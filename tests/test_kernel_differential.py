"""The production kernels return the vectors that full elimination returns.

solve_sparse stops pivoting once no unpivoted row carries a nonzero rhs and
pushes a column on its heap only when a pivot row retires.  solve_gf2
reduces Python-int rows into an echelon form, last row first, and
back-substitutes, where the numpy oracle runs Gauss-Jordan column by
column.  None of this may change the answer: these tests compare the
returned vectors (not just their validity) with the full-elimination oracle
in full_elimination.py, kernel by kernel, on feasible and infeasible
certificate systems and through search_certificate.
"""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chromideal.linalg
from chromideal.certificates import admissible_degrees, assemble_system, search_certificate
from chromideal.fields import GF
from chromideal.graphs import Graph, complete_graph
from chromideal.linalg import solve_gf2, solve_sparse
from full_elimination import full_solve_gf2, full_solve_listed, full_solve_sparse, listed

PRIMES = (2, 3, 5, 7)


def assert_kernels_match(n_rows, cols, rhs, p):
    """Both kernels read the system as row lists, repeated and cancelling
    listings included, return the oracle's vector and leave their input
    unchanged."""
    expected = full_solve_sparse(cols, rhs, GF(p))
    columns, b = listed(cols, rhs, p)
    before = ([list(col) for col in columns], list(b))
    assert solve_sparse(columns, b, GF(p)) == expected
    if p == 2:
        x = full_solve_gf2(n_rows, columns, b)
        assert solve_gf2(n_rows, columns, b) == x
        assert (x is None) == (expected is None)
    assert (columns, b) == before
    return expected


@st.composite
def systems(draw):
    p = draw(st.sampled_from(PRIMES))
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(0, 8))
    entry = st.tuples(st.integers(0, n_rows - 1), st.integers(0, p - 1))
    # A column may list a row more than once, and repeats may sum to 0 mod p:
    # such a row was listed yet holds no entry in the column.
    cols = []
    for _ in range(n_cols):
        entries = draw(st.lists(entry, max_size=n_rows))
        for i, c in draw(st.lists(entry, max_size=2)):
            entries += [(i, c), (i, -c % p)]
        cols.append(draw(st.permutations(entries)))
    if draw(st.booleans()):  # consistent: b = A x0
        x0 = draw(st.lists(st.integers(0, p - 1), min_size=n_cols, max_size=n_cols))
        rhs = {}
        for j, entries in enumerate(cols):
            for i, c in entries:
                rhs[i] = (rhs.get(i, 0) + c * x0[j]) % p
    else:
        rhs = draw(st.dictionaries(st.integers(0, n_rows - 1), st.integers(0, p - 1)))
    return n_rows, cols, rhs, p


@given(systems())
def test_kernels_return_the_full_elimination_vector(system):
    assert_kernels_match(*system)


@pytest.mark.parametrize("p", PRIMES)
def test_kernels_match_on_certificate_shaped_systems(p):
    """Wider systems shaped like certificate systems: a few nonzeros per
    column and the rhs on one or several rows.  Both outcomes must occur."""
    rng = random.Random(p)
    outcomes = set()
    for _ in range(40):
        n_rows, n_cols = rng.randint(10, 40), rng.randint(10, 60)
        cols = [[(i, rng.randrange(1, p)) for i in rng.sample(range(n_rows), 3)]
                for _ in range(n_cols)]
        rhs = {i: rng.randrange(1, p) for i in rng.sample(range(n_rows), rng.randint(1, 4))}
        outcomes.add(assert_kernels_match(n_rows, cols, rhs, p) is None)
    assert outcomes == {True, False}


def test_gf2_kernel_matches_across_word_boundaries():
    """The oracle packs 64 columns to a word and the rhs after the last
    column, and the kernel sizes its budget in such words, so widths of 63,
    64 and 65 put the rhs bit at bit 63, at the start of a new word and
    mid-word.  Tall and wide systems, the rhs on one row, on several, or on
    A x0; both outcomes must occur."""
    rng = random.Random(64)
    widths = [1, 63, 64, 65, 127, 128, 129] + [rng.randint(1, 300) for _ in range(7)]
    outcomes = set()
    for n_cols in widths:
        for n_rows in (n_cols + rng.randint(1, 40), max(1, n_cols // 3)):  # tall, wide
            cols = [rng.sample(range(n_rows), rng.randint(0, min(n_rows, 5)))
                    for _ in range(n_cols)]
            x0 = [j for j in range(n_cols) if rng.random() < 0.5]
            consistent = [i for i in range(n_rows) if sum(i in cols[j] for j in x0) % 2]
            for rhs in (rng.sample(range(n_rows), 1),
                        rng.sample(range(n_rows), min(n_rows, rng.randint(2, 6))),
                        consistent):
                x = solve_gf2(n_rows, cols, rhs)
                assert x == full_solve_gf2(n_rows, cols, rhs)
                outcomes.add(x is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_zero_rhs_returns_the_zero_vector(p):
    cols = [[(0, 1), (1, 1)], [(1, 1), (2, 1)], []]
    for rhs in ({}, {0: 0}, {0: p, 2: 2 * p}):
        assert assert_kernels_match(3, cols, rhs, p) == [0, 0, 0]


@pytest.mark.parametrize("p", PRIMES)
def test_empty_columns_and_rhs_on_several_rows(p):
    # column 1 is empty and column 3 holds only multiples of p
    cols = [[(0, 1)], [], [(1, 1), (2, 1)], [(0, p), (2, 2 * p)], [(2, 1)]]
    assert assert_kernels_match(3, cols, {0: 1, 1: 1, 2: 1}, p) == [1, 0, 1, 0, 0]
    assert assert_kernels_match(3, cols, {1: 1}, p) == [0, 0, 1, 0, p - 1]
    # row 3 is touched by no column: 0 = 1
    assert solve_sparse(*listed(cols, {0: 1, 3: 1}, p), GF(p)) is None
    assert solve_gf2(4, *listed(cols, {0: 1, 3: 1}, 2)) is None


def planted(n, k, rng):
    """K_{k+1} on vertices 1..k+1 plus a third of the other pairs."""
    clique = set(itertools.combinations(range(1, k + 2), 2))
    others = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in clique]
    return Graph(n, sorted(clique | set(rng.sample(others, len(others) // 3))))


def wheel(r):
    """The wheel W_r: a hub joined to every vertex of an r-cycle."""
    n = r + 1
    return Graph(n, [(i, i % r + 1) for i in range(1, n)] + [(i, n) for i in range(1, n)])


def cycle(n):
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def planted_cells():
    rng = random.Random(9)
    return [(planted(n, k, rng), k, p) for n, k, p in
            [(7, 3, 5), (8, 3, 7), (9, 3, 5), (6, 4, 3), (6, 4, 5), (6, 4, 7), (9, 3, 2)]]


def certificate_cells():
    # the complete-graph cells of the benchmark grid, then planted graphs,
    # then an odd wheel of the grid (no twins: 924 columns and 1,051 rows at
    # degree 1 over GF(2))
    cells = [(complete_graph(n), k, p) for n, k, p in
             [(4, 3, 2), (4, 3, 5), (4, 3, 7), (5, 4, 3), (5, 4, 5), (5, 4, 7), (6, 5, 2)]]
    cells += planted_cells()
    cells.append((wheel(21), 3, 2))
    return cells


@pytest.mark.parametrize("g, k, p", certificate_cells())
def test_search_certificate_matches_full_elimination(g, k, p, monkeypatch):
    cert = search_certificate(g, k, GF(p))
    monkeypatch.setattr(chromideal.linalg, "solve_sparse", full_solve_listed)
    monkeypatch.setattr(chromideal.linalg, "solve_gf2", full_solve_gf2)
    full = search_certificate(g, k, GF(p))
    assert cert is not None and full is not None
    assert (cert.degree, cert.infeasible_degrees) == (full.degree, full.infeasible_degrees)
    assert cert.edge_coeffs == full.edge_coeffs


@pytest.mark.parametrize("g, k, p", planted_cells())
def test_kernels_match_on_the_plain_system_at_the_found_degree(g, k, p):
    """search_certificate answers the planted graphs from their K_{k+1}, so
    the kernels meet the graphs' own wide plain systems here: at the found
    degree, where they are solvable because the clique's certificate is
    one of their solutions."""
    d = search_certificate(g, k, GF(p)).degree
    system = assemble_system(g, k, GF(p), d)
    args = (system.col_rows, [0])
    expected = full_solve_listed(*args, GF(p))
    assert expected is not None
    assert solve_sparse(*args, GF(p)) == expected
    if p == 2:
        n_rows = len(system.row_monomials)
        assert solve_gf2(n_rows, *args) == full_solve_gf2(n_rows, *args)


@pytest.mark.parametrize("d", admissible_degrees(3, 7))
def test_gf2_kernel_matches_on_an_infeasible_certificate_system(d):
    """C_7 is 3-colorable, so its GF(2) certificate systems are inconsistent
    at every degree.  At d=7 (3,927 columns, 701 rows) the kernel takes the
    constant row, the only one with a nonzero rhs, last, so it meets the
    contradiction only after reducing every other row."""
    system = assemble_system(cycle(7), 3, GF(2), d)
    args = (len(system.row_monomials), system.col_rows, [0])
    assert solve_gf2(*args) is None
    assert full_solve_gf2(*args) is None


# (graph, k, p, d) -> the smallest _FILL_BUDGET at which solve_sparse finishes
# the plain certificate system, found with the kernel that kept a set of rows
# per column.  The fill-in count is unchanged by how a column remembers its
# rows, so rows a column still lists after losing them must not count.
FILL_THRESHOLDS = [
    (cycle(7), 3, 5, 4, 5_959),  # 1,176 columns, 435 rows: inconsistent
    (complete_graph(5), 4, 5, 5, 12_296),  # 1,060 columns, 221 rows: solvable
]


@pytest.mark.parametrize("g, k, p, d, budget", FILL_THRESHOLDS)
def test_fill_budget_threshold_is_exact(g, k, p, d, budget, monkeypatch):
    system = assemble_system(g, k, GF(p), d)
    expected = full_solve_listed(system.col_rows, [0], GF(p))
    monkeypatch.setattr(chromideal.linalg, "_FILL_BUDGET", budget)
    assert solve_sparse(system.col_rows, [0], GF(p)) == expected
    monkeypatch.setattr(chromideal.linalg, "_FILL_BUDGET", budget - 1)
    with pytest.raises(chromideal.linalg.FillBudgetExceeded):
        solve_sparse(system.col_rows, [0], GF(p))
