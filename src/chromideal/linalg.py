"""Exact linear-system kernels for certificate search.

Two solvers for A x = b given column-wise sparse input:

* solve_gf2: dense bit-packed Gauss-Jordan elimination on numpy uint64
  words; leftmost pivot column, first available pivot row.
* solve_sparse: row-dict elimination over GF(p) on canonical ints with
  Markowitz-style pivoting (emptiest active column first, emptiest row
  within it) and deterministic tie-breaking by index.

Both take each column's rows at most once, return one solution (free
variables set to zero) or None when the system is inconsistent, and are
deterministic for fixed input.  Both always run under a memory budget, so
they raise FillBudgetExceeded instead of exhausting memory: solve_gf2 before
allocating a matrix above _DENSE_BYTES, solve_sparse once fill-in stores more
than _FILL_BUDGET nonzeros.

Both stop pivoting as soon as no unpivoted row carries a nonzero rhs.  A
nonzero rhs reaches a row only from a pivot row whose rhs is nonzero, so
every later pivot row would have rhs 0 and would change no other row's rhs.
The rest of the system is then homogeneous, hence consistent, and its pivot
columns would solve to 0.  So no contradiction can come later, and the
vector returned, with those columns free at 0, is the one the full
elimination returns.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

import numpy as np

from .fields import PrimeField

# Bytes the dense GF(2) matrix may take.  Row updates copy the selected rows,
# so the peak can reach twice this, about 4 GB.
_DENSE_BYTES = 2_000_000_000
# Stored nonzeros allowed during one odd-p elimination.  A stored entry costs
# about 125 bytes: K_7/k=6/GF(5) at degree 13 reaches 8 M on its first ladder
# rung at a 1.14 GB peak RSS, 139 MB of it assembly (CPython 3.11, 2-vCPU
# x86-64 guest).  A larger budget only delays the failure: at 30 M that rung
# ran for 16 minutes, reached 4.06 GB and had not finished.
_FILL_BUDGET = 8_000_000


class FillBudgetExceeded(RuntimeError):
    """An elimination would store more than its memory budget allows."""


def solve_gf2(
    n_rows: int, col_rows: Sequence[Sequence[int]], rhs_rows: Sequence[int]
) -> list[int] | None:
    """Solve over GF(2).  Columns are given by their nonzero row indices
    (0-based, each listed once); rhs_rows lists the rows where b = 1."""
    n_cols = len(col_rows)
    words = (n_cols + 1 + 63) // 64 or 1
    size = max(n_rows, 1) * words * 8
    if size > _DENSE_BYTES:
        raise FillBudgetExceeded(f"dense GF(2) matrix of {size} bytes exceeds {_DENSE_BYTES}")
    m = np.zeros((max(n_rows, 1), words), dtype=np.uint64)
    for j, rows in enumerate(col_rows):
        if rows:
            m[np.asarray(rows, dtype=np.intp), j >> 6] |= np.uint64(1 << (j & 63))
    wb, bb = divmod(n_cols, 64)
    rhs_bit = np.uint64(1 << bb)
    for i in rhs_rows:
        m[i, wb] |= rhs_bit

    used = np.zeros(m.shape[0], dtype=bool)
    pivot_of_col = np.full(n_cols, -1, dtype=np.int64)
    # unused rows whose rhs bit is set; changes only when a pivot row's is set
    live = int(np.count_nonzero(m[:, wb] & rhs_bit))
    for j in range(n_cols):
        if not live:
            break
        w, b = divmod(j, 64)
        has = ((m[:, w] >> np.uint64(b)) & np.uint64(1)).astype(bool)
        candidates = np.flatnonzero(has & ~used)
        if candidates.size == 0:
            continue
        piv = int(candidates[0])
        used[piv] = True
        pivot_of_col[j] = piv
        sel = np.flatnonzero(has)
        sel = sel[sel != piv]
        if m[piv, wb] & rhs_bit:
            flipped = sel[~used[sel]]
            live += flipped.size - 1 - 2 * int(np.count_nonzero(m[flipped, wb] & rhs_bit))
        if sel.size:
            m[sel] ^= m[piv]

    rhs_bits = (m[:, wb] & rhs_bit).astype(bool)
    if bool(np.any(rhs_bits & ~used)):
        return None
    x = [0] * n_cols
    for j in range(n_cols):
        piv = pivot_of_col[j]
        if piv >= 0 and rhs_bits[piv]:
            x[j] = 1
    return x


def solve_sparse(
    col_entries: Sequence[Sequence[tuple[int, int]]],
    rhs: Mapping[int, int],
    field: PrimeField,
) -> list[int] | None:
    """Solve over GF(p).  Columns are given by (row, coefficient) pairs with
    each row listed at most once; rows are arbitrary hashable indices.

    Rows never touched by a column are the equations 0 = rhs, so a nonzero
    rhs on such a row makes the system inconsistent immediately.  Raises
    FillBudgetExceeded as soon as fill-in stores more than _FILL_BUDGET nonzeros.

    The pivot is the exact minimum of (active count, column index), with
    the sparsest row (lowest index on ties) inside that column.  A pivot
    step changes only the counts of the pivot row's columns, and retiring
    the pivot row lowers each of them by one, so each is pushed once then,
    with its final count; fill-in and cancellation push nothing.  The heap
    thus holds every active column's current count, and other entries are
    stale.  Pivoting stops once no unpivoted row has a nonzero rhs; the
    returned vector is the one the full elimination returns (see the module
    docstring).
    """
    p = field.p
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    nonzeros = 0
    for j, entries in enumerate(col_entries):
        members = set()
        for i, c in entries:
            c %= p
            if c:
                rows.setdefault(i, {})[j] = c
                members.add(i)
        nonzeros += len(members)
        col_rows[j] = members

    rhs_d = {i: c % p for i, c in rhs.items() if c % p}
    for i in rhs_d:
        if not rows.get(i):
            return None  # equation 0 = nonzero
    live = set(rhs_d)  # unpivoted rows with a nonzero rhs

    heap = [(len(members), j) for j, members in col_rows.items() if members]
    heapq.heapify(heap)
    pivots: list[tuple[int, int]] = []

    while live and heap:
        count, j = heapq.heappop(heap)
        members = col_rows[j]
        if len(members) != count:
            continue  # stale: the column's current count is in the heap too
        i = min(members, key=lambda r: (len(rows[r]), r))
        piv_row = rows[i]
        piv_inv = pow(piv_row[j], p - 2, p)
        piv_rhs = rhs_d.get(i, 0)
        live.discard(i)
        rest = [(c, v) for c, v in piv_row.items() if c != j]
        for r in members:
            if r == i:
                continue
            target = rows[r]
            factor = target.pop(j) * piv_inv % p
            nonzeros -= 1
            for c, v in rest:
                old = target.get(c)
                if old is None:  # fill-in
                    target[c] = -factor * v % p
                    nonzeros += 1
                    col_rows[c].add(r)
                elif nv := (old - factor * v) % p:
                    target[c] = nv
                else:  # cancellation
                    del target[c]
                    nonzeros -= 1
                    col_rows[c].discard(r)
            if piv_rhs:
                nr = (rhs_d.get(r, 0) - factor * piv_rhs) % p
                if nr:
                    rhs_d[r] = nr
                    live.add(r)
                else:
                    rhs_d.pop(r, None)
                    live.discard(r)
            if not target:
                if r in rhs_d:
                    return None  # row collapsed to 0 = nonzero
                del rows[r]
        # retire the pivot row and column; the counts of the pivot row's
        # columns, the only ones this step changed, go on the heap
        for c, _ in rest:
            cr = col_rows[c]
            cr.discard(i)
            if cr:
                heapq.heappush(heap, (len(cr), c))
        col_rows[j] = set()
        pivots.append((i, j))
        if nonzeros > _FILL_BUDGET:
            raise FillBudgetExceeded(f"elimination fill-in exceeded {_FILL_BUDGET} entries")

    # back-substitute with free columns at 0
    x: dict[int, int] = {}
    for i, j in reversed(pivots):
        s = rhs_d.get(i, 0)
        row = rows[i]
        for c, v in row.items():
            if c == j:
                continue
            xc = x.get(c)
            if xc is not None:
                s = (s - v * xc) % p
        x[j] = s * pow(row[j], p - 2, p) % p
    return [x.get(j, 0) for j in range(len(col_entries))]
