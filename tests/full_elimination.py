"""Full-elimination GF(2) and GF(p) kernels: a test-only oracle.

These are the kernels of chromideal.linalg before they learned to stop once
no unpivoted row carries a nonzero rhs, and before the column heap was
pushed only when a pivot row retires.  They pivot through the whole system,
so the differential tests can check that the production kernels return
equal vectors, not just valid ones.

full_solve_gf2 is now a different algorithm from solve_gf2, on numpy
uint64 words: it runs Gauss-Jordan elimination column by column, XORing
each pivot row into every other row that holds its bit, and reads x off
the reduced pivot rows.  solve_gf2 reduces rows one by one, in its own
order, into an echelon form of Python ints and back-substitutes.  The
vectors still agree: both pivot on the leftmost columns of the row space
of [A | b], a set that does not depend on the row order, and with every
non-pivot column at 0 the solution is unique.

full_solve_gf2 reads the production kernels' input format: a column lists
its rows, and a row listed c times has coefficient c mod 2.  full_solve_sparse
keeps the general (row, coefficient) form; full_solve_listed feeds it that
format, and listed turns a (row, coefficient) system into it.

The memory budgets are left out: the oracle only runs on small systems.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from chromideal.fields import PrimeField


def full_solve_gf2(
    n_rows: int, col_rows: Sequence[Sequence[int]], rhs_rows: Sequence[int]
) -> list[int] | None:
    """Solve over GF(2).  Columns list their row indices (0-based) and
    rhs_rows the rows of b; a row listed c times has coefficient c mod 2."""
    n_cols = len(col_rows)
    words = (n_cols + 1 + 63) // 64 or 1
    m = np.zeros((max(n_rows, 1), words), dtype=np.uint64)
    for j, rows in enumerate((*col_rows, rhs_rows)):  # the rhs is column n_cols
        odd = [i for i, c in Counter(rows).items() if c % 2]
        if odd:
            m[np.asarray(odd, dtype=np.intp), j >> 6] |= np.uint64(1 << (j & 63))

    used = np.zeros(m.shape[0], dtype=bool)
    pivot_of_col = np.full(n_cols, -1, dtype=np.int64)
    for j in range(n_cols):
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
        if sel.size:
            m[sel] ^= m[piv]

    wb, bb = divmod(n_cols, 64)
    rhs_bits = ((m[:, wb] >> np.uint64(bb)) & np.uint64(1)).astype(bool)
    if bool(np.any(rhs_bits & ~used)):
        return None
    x = [0] * n_cols
    for j in range(n_cols):
        piv = pivot_of_col[j]
        if piv >= 0 and rhs_bits[piv]:
            x[j] = 1
    return x


def full_solve_sparse(
    col_entries: Sequence[Sequence[tuple[int, int]]],
    rhs: Mapping[int, int],
    field: PrimeField,
) -> list[int] | None:
    """Solve over GF(p).  Columns are given by (row, coefficient) pairs; a
    row listed more than once in a column gets the sum of its coefficients.
    Rows are arbitrary hashable indices.

    Rows never touched by a column are the equations 0 = rhs, so a nonzero
    rhs on such a row makes the system inconsistent immediately.
    """
    p = field.p
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for j, entries in enumerate(col_entries):
        members = set()
        for i, c in entries:
            row = rows.setdefault(i, {})
            if c := (row.get(j, 0) + c) % p:
                row[j] = c
                members.add(i)
            elif j in row:
                del row[j]
                members.discard(i)
        col_rows[j] = members

    rhs_d = {i: c % p for i, c in rhs.items() if c % p}
    for i in rhs_d:
        if not rows.get(i):
            return None  # equation 0 = nonzero

    heap: list[tuple[int, int]] = []
    for j, members in col_rows.items():
        if members:
            heapq.heappush(heap, (len(members), j))
    pivots: list[tuple[int, int]] = []

    while heap:
        count, j = heapq.heappop(heap)
        members = col_rows.get(j)
        if not members or len(members) != count:
            continue
        i = min(members, key=lambda r: (len(rows[r]), r))
        piv_row = rows[i]
        piv_inv = pow(piv_row[j], p - 2, p)
        piv_rhs = rhs_d.get(i, 0)
        for r in [r for r in members if r != i]:
            factor = rows[r][j] * piv_inv % p
            target = rows[r]
            for c, v in piv_row.items():
                nv = (target.get(c, 0) - factor * v) % p
                if not nv:
                    if c in target:
                        del target[c]
                        cr = col_rows[c]
                        cr.discard(r)
                        if cr:
                            heapq.heappush(heap, (len(cr), c))
                else:
                    if c not in target:
                        cr = col_rows[c]
                        cr.add(r)
                        heapq.heappush(heap, (len(cr), c))
                    target[c] = nv
            if piv_rhs:
                nr = (rhs_d.get(r, 0) - factor * piv_rhs) % p
                if nr:
                    rhs_d[r] = nr
                else:
                    rhs_d.pop(r, None)
            if not target:
                if r in rhs_d:
                    return None  # row collapsed to 0 = nonzero
                del rows[r]
        # retire the pivot row and column
        for c in piv_row:
            if c != j:
                cr = col_rows[c]
                cr.discard(i)
                if cr:
                    heapq.heappush(heap, (len(cr), c))
        col_rows[j] = set()
        pivots.append((i, j))

    # remaining active rows are empty; back-substitute with free columns at 0
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


def full_solve_listed(
    columns: Sequence[Sequence[int]], rhs: Sequence[int], field: PrimeField
) -> list[int] | None:
    """full_solve_sparse on the production kernels' input: columns and rhs
    list rows, a row listed c times having coefficient c."""
    return full_solve_sparse([[(i, 1) for i in col] for col in columns], Counter(rhs), field)


def listed(
    cols: Sequence[Sequence[tuple[int, int]]], rhs: Mapping[int, int], p: int
) -> tuple[list[list[int]], list[int]]:
    """The production kernels' input for a system given by (row, coefficient)
    pairs and an rhs map over GF(p): each row listed c mod p times."""
    return ([[i for i, c in entries for _ in range(c % p)] for entries in cols],
            [i for i, c in rhs.items() for _ in range(c % p)])
