"""Exact linear-system kernels for certificate search, on plain Python ints.

Both solvers read A x = b as certificate systems are assembled: a column
lists row ids, a row listed c times has coefficient c mod p, and b is a
list of rows read the same way.  Neither changes its input lists.

* solve_gf2: each row is an int used as a bitset; rows are reduced one by
  one into an echelon form keyed by their leftmost column, then x is found
  by back-substitution.
* solve_sparse: row-dict elimination over GF(p) on canonical ints with
  Markowitz-style pivoting (emptiest active column first, emptiest row
  within it) and deterministic tie-breaking by index; a column is an exact
  count and an append-only list of the rows that gained it.

Both return one solution (free variables set to zero) or None when the
system is inconsistent, and are deterministic for fixed input.  Both raise
FillBudgetExceeded instead of exhausting memory: solve_gf2 before building
a system whose dense size passes _DENSE_BYTES, solve_sparse once fill-in
stores more than _FILL_BUDGET nonzeros.  check_size applies the same
budgets to a system that is still being assembled.

Pivoting on leftmost columns, solve_gf2 returns the same vector whatever
order it takes the rows in: the leftmost columns of any echelon basis of
the row space of [A | b] are the pivot columns of its reduced row echelon
form, and the solution that is 0 off them is unique.

solve_sparse stops pivoting once no unpivoted row carries a nonzero rhs.  A
nonzero rhs reaches a row only from a pivot row whose rhs is nonzero, so
the rest of the system is then homogeneous, hence consistent, and its pivot
columns would solve to 0.  The solution with every other column at 0 is
unique for a given set of pivots, so the vector returned is the one the
full elimination returns.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Sequence

from .fields import PrimeField

# Bytes a GF(2) system may take stored densely, in 64-bit words per row.
# solve_gf2 holds each row once, as an int of at most n_cols + 1 bits (30
# bits per 4 bytes in CPython), so it peaks below about 1.07 times this: on
# W_101/k=3 at degree 1 it traced 38.9 MB against 65.0 MB, and a fresh
# `cert` process peaked at 62 MB (104 MB with the numpy kernel before it).
_DENSE_BYTES = 2_000_000_000
# Stored nonzeros allowed during one odd-p elimination.  A fresh `cert`
# process on M_4/k=4/GF(5), which is 4-colorable, reaches the budget at
# degree 9 (1,256,860 x 253,991) at a 967 MB peak RSS, about 127 bytes per
# entry.  Assembled alone, that system takes 328 MB before the pivot loop,
# whose rows, column lists and heap then add about 85 bytes per entry.  A
# copy of the input as (row, 1) pairs took that run to 1,117 MB, and a set
# of rows per column on top of it to 1,950 MB, about 255 bytes per entry
# (CPython 3.11, 2-vCPU x86-64 guest).
# A larger budget only delays the failure: at 30 M a 50,020-column subsystem
# of the plain K_7/k=6/GF(5) system at degree 13 ran for 16 minutes, reached
# 4.06 GB with the set store and had not finished.
_FILL_BUDGET = 8_000_000


class FillBudgetExceeded(RuntimeError):
    """An elimination would store more than its memory budget allows."""


def check_size(p: int, n_rows: int, n_cols: int, entries: int) -> None:
    """Raise FillBudgetExceeded if the GF(p) kernel would refuse a system of
    at least n_rows rows, n_cols columns and `entries` listings: n_rows x
    (n_cols + 1) bits past _DENSE_BYTES over GF(2), entries past _FILL_BUDGET."""
    size = max(n_rows, 1) * ((n_cols + 64) // 64) * 8
    if p == 2 and size > _DENSE_BYTES:
        raise FillBudgetExceeded(f"dense GF(2) matrix of {size} bytes exceeds {_DENSE_BYTES}")
    if p != 2 and entries > _FILL_BUDGET:
        raise FillBudgetExceeded(f"{entries} entries exceed {_FILL_BUDGET}")


def solve_gf2(
    n_rows: int, col_rows: Sequence[Sequence[int]], rhs_rows: Sequence[int]
) -> list[int] | None:
    """Solve over GF(2).  Columns list their row indices (0-based) and
    rhs_rows the rows of b; a row listed c times has coefficient c mod 2.

    Bit n_cols - j of a row is column j and bit 0 the rhs, so bit_length
    finds the leftmost column without a pass over the row.  Rows are taken
    from the end: certificate systems number rows by first touch, so rows
    come in descending order of leftmost column, and most go in with no
    XOR.  In list order K_6/k=5 at degree 6 took 6x the XORs, and keying
    pivots by the lowest set bit made the kernel 1.5-3x slower.
    """
    n_cols = len(col_rows)
    check_size(2, n_rows, n_cols, 0)
    rows = [0] * max(n_rows, 1)
    for j, col in enumerate((*col_rows, rhs_rows)):  # the rhs is column n_cols
        bit = 1 << (n_cols - j)
        for i in col:
            rows[i] ^= bit
    echelon: dict[int, int] = {}  # bit length of the leading bit -> row
    while rows:
        row = rows.pop()
        while piv := echelon.get(top := row.bit_length()):
            row ^= piv
        if top == 1:
            return None  # the row reads 0 = 1
        if row:
            echelon[top] = row
    # each pivot row holds its column, columns right of it and the rhs; x
    # keeps the rhs bit set, so x_j is the parity of the row's bits in x
    x = 1
    for top in sorted(echelon):
        if (echelon[top] & x).bit_count() & 1:
            x |= 1 << (top - 1)
    return [int(b) for b in format(x >> 1, f"0{n_cols}b")] if n_cols else []


def solve_sparse(
    columns: Sequence[Sequence[int]], rhs: Sequence[int], field: PrimeField
) -> list[int] | None:
    """Solve over GF(p).  Columns list their row indices and rhs the rows of
    b; a row listed c times has coefficient c mod p.  Rows are arbitrary
    hashable indices.

    Rows never touched by a column are the equations 0 = rhs, so a nonzero
    rhs on such a row makes the system inconsistent immediately.  Raises
    FillBudgetExceeded as soon as fill-in stores more than _FILL_BUDGET nonzeros.

    A column keeps the exact count of its rows and lists every row that
    gained it; rows that lost it since (cancelled, emptied, retired) are
    filtered out when it is pivoted.  The pivot is the exact minimum of
    (count, column index), pushed as the int count * n_cols + column, with
    the sparsest row (lowest index on ties) inside that column.  A pivot
    step changes only the counts of the pivot row's columns, and retiring
    the pivot row lowers each by one, so each is pushed once then, with its
    final count; the heap thus holds every active column's current count,
    and other entries are stale.  Pivoting stops once no unpivoted row has a
    nonzero rhs; the returned vector is the one the full elimination returns
    (see the module docstring).
    """
    p = field.p
    n_cols = len(columns)
    rows: dict[int, dict[int, int]] = {}  # the active rows
    col_rows: list[list[int]] = []
    for j, col in enumerate(columns):
        members = []
        for i in col:
            row = rows.get(i) or rows.setdefault(i, {})
            if not (c := row.get(j, 0)):
                members.append(i)
            row[j] = c + 1
        if len(members) != len(col):  # a repeated row: its count mod p
            for i in members:
                rows[i][j] %= p
                if not rows[i][j]:
                    del rows[i][j]
            members = [i for i in members if j in rows[i]]
        col_rows.append(members)
    counts = [len(members) for members in col_rows]
    nonzeros = sum(counts)

    rhs_d = {i: c % p for i, c in Counter(rhs).items() if c % p}
    for i in rhs_d:
        if not rows.get(i):
            return None  # equation 0 = nonzero
    live = set(rhs_d)  # unpivoted rows with a nonzero rhs

    heap = [count * n_cols + j for j, count in enumerate(counts) if count]
    heapq.heapify(heap)
    pivots: list[tuple[int, int, dict[int, int]]] = []

    while live and heap:
        count, j = divmod(heapq.heappop(heap), n_cols)
        if counts[j] != count:
            continue  # stale: the column's current count is in the heap too
        members = [r for r in col_rows[j] if j in rows.get(r, ())]
        if len(members) != count:  # a row that lost j and regained it
            members = list(dict.fromkeys(members))
        col_rows[j] = []
        counts[j] = 0
        i = min(members, key=lambda r: (len(rows[r]), r))
        piv_row = rows.pop(i)
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
                    col_rows[c].append(r)
                    counts[c] += 1
                elif nv := (old - factor * v) % p:
                    target[c] = nv
                else:  # cancellation
                    del target[c]
                    nonzeros -= 1
                    counts[c] -= 1
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
        # the retired pivot row leaves the counts of its columns, the only
        # ones this step changed, which go on the heap
        for c, _ in rest:
            counts[c] -= 1
            if counts[c]:
                heapq.heappush(heap, counts[c] * n_cols + c)
        pivots.append((i, j, piv_row))
        if nonzeros > _FILL_BUDGET:
            raise FillBudgetExceeded(f"elimination fill-in exceeded {_FILL_BUDGET} entries")

    # back-substitute with free columns at 0
    x: dict[int, int] = {}
    for i, j, row in reversed(pivots):
        s = rhs_d.get(i, 0)
        for c, v in row.items():
            if c == j:
                continue
            xc = x.get(c)
            if xc is not None:
                s = (s - v * xc) % p
        x[j] = s * pow(row[j], p - 2, p) % p
    return [x.get(j, 0) for j in range(n_cols)]
