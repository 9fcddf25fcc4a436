"""Persistent-collective schedules: the compiled, reusable part.

A persistent collective (after "Analyzing Persistent Alltoallv RMA
Implementations", see PAPERS.md) separates *planning* from *execution*:
the counts matrix is fixed at plan time, so every derived quantity —
peer lists, per-source receive offsets, per-target put offsets, the
window layout — is computed exactly once here and then reused by every
``start()/wait()`` invocation with zero per-invocation setup.

Window layout
-------------
Each rank's plan window holds **two slots** of ``slot_elems`` elements;
invocation ``k`` lands in slot ``k % 2``.  Double buffering decouples
adjacent invocations: rank skew across a persistent collective is at
most one invocation (enforced by the epoch protocol of every style), so
the slot being written is never the slot still being read.  All three
epoch styles share this one layout, which keeps the final window bytes
— part of the differential oracle's *strict* digest — identical across
engines.

Within a slot, source ``i``'s block occupies elements
``[recv_offsets[i], recv_offsets[i] + counts[i][me])`` in source-rank
order; the mirrored ``put_offsets[j]`` tells this rank where its own
block lands inside target ``j``'s slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CollSchedule", "build_schedule", "uniform_counts", "validate_counts"]


def validate_counts(counts, nranks: int) -> tuple[tuple[int, ...], ...]:
    """Normalize/validate a counts matrix: ``counts[i][j]`` = elements
    rank ``i`` contributes to rank ``j``; must be ``nranks x nranks``
    with non-negative integer entries."""
    rows = [tuple(int(c) for c in row) for row in counts]
    if len(rows) != nranks or any(len(r) != nranks for r in rows):
        raise ValueError(
            f"counts must be a {nranks}x{nranks} matrix, got "
            f"{len(rows)}x{[len(r) for r in rows]}"
        )
    if any(c < 0 for row in rows for c in row):
        raise ValueError("counts must be non-negative")
    return tuple(rows)


def uniform_counts(nranks: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The allgather/allreduce shape: every rank contributes ``count``
    elements to every rank (itself included)."""
    row = (count,) * nranks
    return (row,) * nranks


@dataclass(frozen=True)
class CollSchedule:
    """Everything one rank pre-computes about one persistent collective."""

    nranks: int
    rank: int
    dtype: np.dtype
    #: Full counts matrix (identical on every rank).
    counts: tuple[tuple[int, ...], ...]
    #: counts[rank][j]: what I contribute to each rank.
    send_counts: tuple[int, ...]
    #: counts[i][rank]: what each rank contributes to me.
    recv_counts: tuple[int, ...]
    #: Element offset of source i's block within one of my slots.
    recv_offsets: tuple[int, ...]
    #: Element offset of *my* block within target j's slot.
    put_offsets: tuple[int, ...]
    #: Elements in one receive slot, per rank (column sums of counts);
    #: windows are sized per rank, so puts must use the *target's* slot.
    slot_elems_by_rank: tuple[int, ...]
    #: Ranks (≠ me) I put data to / receive data from.
    send_peers: tuple[int, ...]
    recv_peers: tuple[int, ...]

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def slot_elems(self) -> int:
        """Elements in one of *my* receive slots."""
        return self.slot_elems_by_rank[self.rank]

    def slot_bytes_of(self, rank: int) -> int:
        """One slot at ``rank``, padded to at least one element so
        zero-traffic plans still allocate a (layout-identical) window."""
        return max(self.slot_elems_by_rank[rank], 1) * self.itemsize

    @property
    def slot_bytes(self) -> int:
        return self.slot_bytes_of(self.rank)

    @property
    def window_bytes(self) -> int:
        return 2 * self.slot_bytes

    def slot_disp(self, invocation: int) -> int:
        """Byte displacement of the slot invocation ``invocation`` uses
        in *my* window."""
        return (invocation % 2) * self.slot_bytes

    def put_disp(self, target: int, invocation: int) -> int:
        """Byte displacement where my block lands in ``target``'s window."""
        return ((invocation % 2) * self.slot_bytes_of(target)
                + self.put_offsets[target] * self.itemsize)


def build_schedule(
    nranks: int, rank: int, counts, dtype=np.int64
) -> CollSchedule:
    """Compile the per-rank schedule from the (global) counts matrix."""
    counts = validate_counts(counts, nranks)
    dtype = np.dtype(dtype)
    send_counts = counts[rank]
    recv_counts = tuple(counts[i][rank] for i in range(nranks))
    # Source-rank-ordered receive layout: prefix sums over senders.
    recv_offsets, acc = [], 0
    for i in range(nranks):
        recv_offsets.append(acc)
        acc += recv_counts[i]
    # Mirrored placement at each target: prefix over sources < me.
    columns = tuple(zip(*counts))
    put_offsets = tuple(sum(col[:rank]) for col in columns)
    slot_elems_by_rank = tuple(sum(col) for col in columns)
    return CollSchedule(
        nranks=nranks,
        rank=rank,
        dtype=dtype,
        counts=counts,
        send_counts=send_counts,
        recv_counts=recv_counts,
        recv_offsets=tuple(recv_offsets),
        put_offsets=put_offsets,
        slot_elems_by_rank=slot_elems_by_rank,
        send_peers=tuple(j for j in range(nranks) if j != rank and counts[rank][j] > 0),
        recv_peers=tuple(i for i in range(nranks) if i != rank and counts[i][rank] > 0),
    )
