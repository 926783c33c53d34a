"""Differential tests of the certificate-system assembler.

The oracle below is the dense assembler the package used to have: it walks
every exponent vector in range(min(k, d + 1))^n, keeps those of an
admissible degree, sorts them by (degree, descending vector), and keys each
row by its dense exponent tuple.  Its cost is exponential in n, so it lives
here only, and the tests keep n small.
"""

import itertools
import random

import pytest

from chromideal.certificates import _coefficient_monomials, admissible_degrees, assemble_system
from chromideal.fields import GF
from chromideal.graphs import Graph
from chromideal.poly import Monomial


def dense_coefficient_monomials(n, k, degrees):
    if not degrees:
        return []
    span = range(min(k, max(degrees) + 1))
    out = [t for t in itertools.product(span, repeat=n) if sum(t) in degrees]
    out.sort(key=lambda t: (sum(t), tuple(-e for e in t)))
    return out


def dense_assembly(g, k, d):
    """(columns, col_rows, rhs_row, number of rows) with tuple-keyed rows."""
    n = g.n
    degrees = {t for t in range(1, d + 1) if t % k == 1 % k}
    mono_tuples = dense_coefficient_monomials(n, k, degrees)
    row_index = {}

    def row_id(t):
        return row_index.setdefault(t, len(row_index))

    rhs_row = row_id((0,) * n)
    columns, col_rows = [], []
    for u, v in g.edges():
        for t in mono_tuples:
            rows = []
            for l in range(k):
                prod = list(t)
                prod[u - 1] = (prod[u - 1] + l) % k
                prod[v - 1] = (prod[v - 1] + k - 1 - l) % k
                rows.append(row_id(tuple(prod)))
            columns.append(((u, v), Monomial({i + 1: e for i, e in enumerate(t) if e})))
            col_rows.append(rows)
    return columns, col_rows, rhs_row, len(row_index)


def sparse(t):
    return tuple((i + 1, e) for i, e in enumerate(t) if e)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", range(8))
def test_enumerator_matches_dense_oracle(n, k):
    """Every degree alone, the admissible degrees up to 3k + 1 together, and
    an arbitrary set of degrees: the same vectors in the same order."""
    by_degree = {d: [] for d in range((k - 1) * n + 2)}
    for t in dense_coefficient_monomials(n, k, set(by_degree)):
        by_degree[sum(t)].append(sparse(t))
    for d, expected in by_degree.items():
        assert list(_coefficient_monomials(n, k, {d})) == expected
    for degrees in [set(admissible_degrees(k, 3 * k + 1)), {0, 2, 3}, set()]:
        expected = [m for d in sorted(degrees) for m in by_degree.get(d, [])]
        assert list(_coefficient_monomials(n, k, degrees)) == expected


FIELD_FOR_K = {2: GF(3), 3: GF(2), 4: GF(3), 5: GF(2)}


def random_graph(n, rng):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return Graph(n, rng.sample(pairs, rng.randint(1, len(pairs))))


# Up to 8 vertices; the dense oracle's cost caps n at 7 for k = 4 and 6 for k = 5.
N_MAX = {2: 8, 3: 8, 4: 7, 5: 6}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_assembler_matches_dense_oracle(k, seed):
    """Seeded random graphs on N_MAX[k] - seed vertices, at degree 0 and at
    every admissible degree up to 3k + 1."""
    rng = random.Random(100 * k + seed)
    g = random_graph(N_MAX[k] - seed, rng)
    for d in [0] + admissible_degrees(k, 3 * k + 1):
        system = assemble_system(g, k, FIELD_FOR_K[k], d)
        columns, col_rows, rhs_row, n_rows = dense_assembly(g, k, d)
        assert system.columns == columns
        assert system.col_rows == col_rows
        assert rhs_row == 0
        assert len(system.row_monomials) == n_rows
