"""Exact linear-system kernels for certificate search.

Two solvers for A x = b given column-wise sparse input:

* solve_gf2: dense forward elimination on rows bit-packed into numpy uint64
  words; leftmost pivot column, lowest-index unpivoted row within it.  A
  pivot updates only the unpivoted rows that hold its bit, and only from
  its own word on: bits left of a pivot are never read again.  One scan of
  each word's column finds the unpivoted rows with a nonzero word, and that
  word's pivots are looked for among those rows only; the set only shrinks
  within the word, because only rows already holding the pivot bit are
  XORed.  Back-substitution walks the pivots in reverse on a packed x.
* solve_sparse: row-dict elimination over GF(p) on canonical ints with
  Markowitz-style pivoting (emptiest active column first, emptiest row
  within it) and deterministic tie-breaking by index.

Both return one solution (free variables set to zero) or None when the
system is inconsistent, and are deterministic for fixed input.  Both always
run under a memory budget, so they raise FillBudgetExceeded instead of
exhausting memory: solve_gf2 before allocating a matrix above _DENSE_BYTES,
solve_sparse once fill-in stores more than _FILL_BUDGET nonzeros.

Both stop pivoting as soon as no unpivoted row carries a nonzero rhs.  A
nonzero rhs reaches a row only from a pivot row whose rhs is nonzero, so
every later pivot row would have rhs 0 and would change no other row's rhs.
The rest of the system is then homogeneous, hence consistent, and its pivot
columns would solve to 0.  So no contradiction can come later, and the
vector returned, with those columns free at 0, is the one the full
elimination returns.  For a given set of pivots the solution with every
other column at 0 is unique, so forward elimination and Gauss-Jordan
elimination, which choose the same pivots, return the same vector.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Mapping, Sequence

import numpy as np

from .fields import PrimeField

# Bytes the dense GF(2) matrix may take.  A pivot step gathers a copy of the
# selected rows' tails, from the pivot's word on, so the peak is the matrix
# plus that copy: at most twice this, about 4 GB.
_DENSE_BYTES = 2_000_000_000
# Stored nonzeros allowed during one odd-p elimination.  A stored entry costs
# about 125 bytes: a 50,020-column subsystem of the plain (trivial-group)
# K_7/k=6/GF(5) system at degree 13 reaches 8 M at a 1.14 GB peak RSS, 139 MB
# of it assembly (CPython 3.11, 2-vCPU x86-64 guest).  A larger budget only
# delays the failure: at 30 M that subsystem ran for 16 minutes, reached
# 4.06 GB and had not finished.
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
    # one scatter of every entry, the rhs as column n_cols
    lengths = [len(rows) for rows in col_rows] + [len(rhs_rows)]
    ii = np.fromiter(itertools.chain(*col_rows, rhs_rows), dtype=np.intp, count=sum(lengths))
    jj = np.repeat(np.arange(n_cols + 1, dtype=np.intp), lengths)
    np.bitwise_or.at(m, (ii, jj >> 6), np.left_shift(np.uint64(1), (jj & 63).astype(np.uint64)))
    wb, bb = divmod(n_cols, 64)
    rhs_bit = np.uint64(1 << bb)

    used = np.zeros(m.shape[0], dtype=bool)
    pivots: list[tuple[int, int]] = []  # (column, row)
    # unused rows whose rhs bit is set; changes only when a pivot row's is set
    live = int(np.count_nonzero(m[:, wb] & rhs_bit))
    for w in range((n_cols + 63) // 64):
        if not live:
            break
        # unused rows with a nonzero word w, and that word of each; a row
        # outside the set holds no bit of w and is never XORed within it
        rows = ((m[:, w] != 0) & ~used).nonzero()[0]
        word = m[rows, w]
        for b in range(min(64, n_cols - 64 * w)):
            if not live or not rows.size:
                break
            hits = ((word >> np.uint64(b)) & np.uint64(1)).nonzero()[0]
            if not hits.size:
                continue
            piv = int(rows[hits[0]])
            used[piv] = True
            pivots.append((64 * w + b, piv))
            sel = rows[hits[1:]]
            if m[piv, wb] & rhs_bit:
                live += sel.size - 1 - 2 * int(np.count_nonzero(m[sel, wb] & rhs_bit))
            if sel.size:
                m[sel, w:] ^= m[piv, w:]
                word[hits[1:]] ^= word[hits[0]]
            word[hits[0]] = 0  # drop the pivot row and rows whose word w is now 0
            keep = word.nonzero()[0]
            rows, word = rows[keep], word[keep]

    if live:
        return None  # an unpivoted row reads 0 = 1
    # a pivot row holds its own column, later columns and the rhs (in its
    # last word); solve upwards with every other column free at 0
    xs = np.zeros(words, dtype=np.uint64)
    for j, piv in reversed(pivots):
        w = j >> 6
        row = m[piv, w:]
        parity = int(np.bitwise_xor.reduce(row & xs[w:])).bit_count() + bool(row[-1] & rhs_bit)
        if parity & 1:
            xs[w] |= np.uint64(1 << (j & 63))
    return np.unpackbits(xs.astype("<u8").view(np.uint8), bitorder="little")[:n_cols].tolist()


def solve_sparse(
    col_entries: Sequence[Sequence[tuple[int, int]]],
    rhs: Mapping[int, int],
    field: PrimeField,
) -> list[int] | None:
    """Solve over GF(p).  Columns are given by (row, coefficient) pairs; a
    row listed more than once in a column gets the sum of its coefficients.
    Rows are arbitrary hashable indices.

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
            row = rows.setdefault(i, {})
            if c := (row.get(j, 0) + c) % p:
                row[j] = c
                members.add(i)
            elif j in row:
                del row[j]
                members.discard(i)
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
