"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two stretch grid cells
take minutes and are gated behind `-m slow`.
"""

import itertools
import random
import time

import pytest

from chromideal.certificates import (
    Certificate,
    admissible_degrees,
    assemble_system,
    lift_certificate,
    search_certificate,
    solve_system,
    verify_certificate,
)
from chromideal.chordal import (
    build_groebner_basis,
    count_colorings_chordal,
    extract_coloring,
    quotient_dimension,
)
from chromideal.fields import GF, QQ, kth_roots_of_unity
from chromideal.graphs import Graph, complete_graph, perfect_elimination_order, random_chordal
from chromideal.ideals import build_ideal, check_coloring, mk_vertex_poly
from chromideal.oracle import (
    OracleBudgetExceeded,
    brute_force_colorings,
    buchberger,
    buchberger_criterion,
    reduce_basis,
)
from chromideal.poly import Monomial, Polynomial, TermOrder, complete_homogeneous, elementary_symmetric

SMALL_GRID = [
    # (clique size, k, p, expected minimal degree)
    (4, 3, 2, 1),
    (4, 3, 7, 4),
    (5, 4, 3, 5),
    (5, 4, 5, 5),
    (5, 4, 7, 5),
    (6, 5, 2, 6),
    (6, 5, 3, 6),
]

STRETCH_GRID = [
    (6, 5, 7, 11),
    (7, 6, 5, 13),
]


def report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


# --- shared computations -------------------------------------------------------

@pytest.fixture(scope="module")
def small_grid_certs():
    results = {}
    for n, k, p, expected in SMALL_GRID:
        g = complete_graph(n)
        start = time.monotonic()
        cert = search_certificate(g, k, GF(p))
        elapsed = time.monotonic() - start
        results[(n, k, p)] = (g, cert, expected, elapsed)
    return results


@pytest.fixture(scope="module")
def k4_f5_cert():
    g = complete_graph(4)
    return g, search_certificate(g, 3, GF(5))


@pytest.fixture(scope="module")
def congruence_suite_certs():
    """50 seeded non-k-colorable graphs: K_{k+1} plus random extra edges."""
    found = []
    infeasible_d1 = []
    field_for_k = {2: GF(3), 3: GF(2), 4: GF(3), 5: GF(2)}
    for i in range(50):
        rng = random.Random(1000 + i)
        k = [2, 3, 4, 5][i % 4]
        n = rng.randint(k + 1, 7)
        edges = set(itertools.combinations(range(1, k + 2), 2))
        for u, v in itertools.combinations(range(1, n + 1), 2):
            if (u, v) not in edges and rng.random() < 0.35:
                edges.add((u, v))
        g = Graph(n, sorted(edges))
        assert brute_force_colorings(g, k) == 0
        field = field_for_k[k]
        if k in (2, 3):
            cert = search_certificate(g, k, field)
            assert cert is not None
            found.append((g, k, field, cert))
        else:
            infeasible_d1.append((g, k, field))
    return found, infeasible_d1


@pytest.fixture(scope="module")
def chordal_suite():
    """200 seeded random chordal instances with n <= 8 and k <= 4."""
    instances = []
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        k = rng.randint(2, 4)
        k_max = rng.randint(1, 6)
        g = random_chordal(n, k_max, seed)
        result = build_groebner_basis(g, k, QQ)
        assert result is not None  # generator only emits chordal graphs
        count = brute_force_colorings(g, k)
        instances.append((g, k, result, count))
    return instances


# --- criterion 1: small grid of minimal degrees ----------------------------------

def test_criterion_1_minimal_degree_grid(small_grid_certs):
    for (n, k, p), (g, cert, expected, elapsed) in small_grid_certs.items():
        assert cert is not None, f"K_{n} k={k} GF({p}): no certificate found"
        assert cert.degree == expected, (
            f"K_{n} k={k} GF({p}): degree {cert.degree}, expected {expected}"
        )
        assert elapsed < 60.0, f"K_{n} k={k} GF({p}) took {elapsed:.1f}s"
    detail = ", ".join(
        f"K_{n}/k={k}/GF({p})={cert.degree} in {dt:.1f}s"
        for (n, k, p), (g, cert, e, dt) in small_grid_certs.items()
    )
    report("1 minimal-degree grid", detail)


@pytest.mark.slow
@pytest.mark.parametrize("n,k,p,expected", STRETCH_GRID)
def test_criterion_1_stretch_cells(n, k, p, expected):
    g = complete_graph(n)
    start = time.monotonic()
    cert = search_certificate(g, k, GF(p))
    elapsed = time.monotonic() - start
    assert cert is not None and cert.degree == expected
    report("1 stretch cell", f"K_{n}/k={k}/GF({p})={cert.degree} in {elapsed:.0f}s")


# --- criterion 2: the contested K_4 over GF(5) cell -------------------------------

def test_criterion_2_k4_gf5_computed_with_record(k4_f5_cert):
    g, cert = k4_f5_cert
    assert cert is not None
    assert cert.degree % 3 == 1
    # every smaller admissible degree must have been tried and found infeasible
    lower = [d for d in admissible_degrees(3, 10) if d < cert.degree]
    assert list(cert.infeasible_degrees) == lower
    for d in cert.infeasible_degrees:  # re-checkable record
        assert solve_system(assemble_system(g, 3, GF(5), d)) is None
    assert verify_certificate(cert, build_ideal(g, 3, GF(5)))
    report("2 K_4/k=3/GF(5)", f"computed degree {cert.degree}, "
                              f"infeasible at {list(cert.infeasible_degrees)}")


# --- criterion 3: degree congruence on random non-colorable graphs -----------------

def test_criterion_3_degree_congruence(congruence_suite_certs):
    start = time.monotonic()
    found, infeasible_d1 = congruence_suite_certs
    assert len(found) + len(infeasible_d1) == 50
    for g, k, field, cert in found:
        assert cert.degree % k == 1 % k
        for beta in cert.edge_coeffs.values():
            assert all(m.degree % k == 1 % k for m in beta.terms)
    for g, k, field in infeasible_d1:
        assert k > 3
        assert solve_system(assemble_system(g, k, field, 1)) is None
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report("3 degree congruence", f"{len(found)} certificates, "
                                  f"{len(infeasible_d1)} degree-1 infeasibilities")


# --- criterion 4: chordal basis correctness ---------------------------------------

def test_criterion_4_chordal_basis_correctness(chordal_suite):
    start = time.monotonic()
    feasible = infeasible = 0
    for g, k, result, count in chordal_suite:
        if result.infeasible:
            assert count == 0, f"{g} k={k}: infeasible verdict but {count} colorings"
            assert len(result.witness.clique) >= k
            infeasible += 1
        else:
            basis = result.basis
            assert buchberger_criterion(basis.polys, basis.order), f"{g} k={k}"
            feasible += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report("4 chordal bases", f"{feasible} bases pass the S-pair criterion, "
                              f"{infeasible} infeasible verdicts match count 0")


# --- criterion 5: counting ----------------------------------------------------------

def test_criterion_5_counting(chordal_suite):
    for g, k, result, count in chordal_suite:
        assert quotient_dimension(result, k) == count
        assert count_colorings_chordal(g, k) == count
    for seed in range(30):
        rng = random.Random(10_000 + seed)
        n, k = rng.randint(1, 8), rng.randint(2, 4)
        tree = random_chordal(n, 2, seed)
        expected = k * (k - 1) ** (n - 1) if n > 1 else k
        assert count_colorings_chordal(tree, k) == expected
    report("5 counting", "dimension = brute force on 200 instances; "
                         "30 trees match k*(k-1)^(n-1)")


# --- criterion 6: coloring extraction ------------------------------------------------

def test_criterion_6_extraction(chordal_suite):
    prime_for_k = {2: 3, 3: 7, 4: 5}
    checked = 0
    for g, k, result, count in chordal_suite:
        coloring = extract_coloring(perfect_elimination_order(g), k)
        if result.infeasible:
            assert coloring is None
            continue
        assert check_coloring(g, k, coloring)
        p = prime_for_k[k]
        roots = kth_roots_of_unity(p, k)
        point = {v: roots[c] for v, c in coloring.items()}
        modp = build_groebner_basis(g, k, GF(p))
        assert all(poly.evaluate(point) == 0 for poly in modp.basis.polys)
        checked += 1
    report("6 extraction", f"{checked} colorings proper and vanish at root points")


# --- criterion 7: symmetric-polynomial identities -------------------------------------

def first_prime_with_kth_roots(k):
    from chromideal.fields import is_prime

    p = 2
    while (p - 1) % k != 0 or not is_prime(p):
        p += 1
    return p


def test_criterion_7_symmetric_identities():
    start = time.monotonic()
    for k in range(1, 7):
        p = first_prime_with_kth_roots(k)
        field = GF(p)
        roots = kth_roots_of_unity(p, k)
        x = k + 1
        x_poly = Polynomial.variable(field, x)
        target = Polynomial.variable(field, x, k) - Polynomial.constant(field, 1)
        for r in range(0, k):
            if r == 0:
                # empty prefix: the augmenting polynomial is x^k - 1 itself
                lhs = mk_vertex_poly(x, k, field)
            else:
                zs = roots[:r]
                s = complete_homogeneous(k - r, list(range(1, r + 1)) + [x], field)
                lhs = s.substitute({i + 1: zs[i] for i in range(r)})
                for z in zs:
                    lhs = lhs * (x_poly - Polynomial.constant(field, z))
            assert lhs == target, f"k={k} r={r}"
            # evaluated recursion against the complementary roots
            d_top = k - r if r >= 1 else k - 1
            for d in range(0, d_top + 1):
                if d == 0:
                    s_val = field.one
                elif r == 0:
                    s_val = field.zero
                else:
                    s_val = complete_homogeneous(d, list(range(1, r + 1)), field).evaluate(
                        {i + 1: roots[i] for i in range(r)}
                    )
                sigma = elementary_symmetric(d, roots[r:], field)
                sign = field.one if d % 2 == 0 else field.neg(field.one)
                assert s_val == field.mul(sign, sigma), f"k={k} r={r} d={d}"
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report("7 symmetric identities", f"k <= 6 in {elapsed:.2f}s")


# --- criterion 8: disjoint unions of reduced bases -------------------------------------

def random_proper_generators(rng, variables, field, order):
    """Small random generators whose ideal is proper (reduced basis != {1})."""
    one = Polynomial.constant(field, 1)
    while True:
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = Monomial(
                    {v: rng.randint(0, 2) for v in rng.sample(variables, rng.randint(1, 2))}
                )
                terms[mono] = rng.randint(1, field.p - 1)
            poly = Polynomial(field, terms)
            if not poly.is_zero:
                gens.append(poly)
        if not gens:
            continue
        try:
            reduced = reduce_basis(buchberger(gens, order, budget=20_000))
        except OracleBudgetExceeded:
            continue
        if list(reduced.polys) != [one]:
            return gens, reduced


def test_criterion_8_disjoint_union_of_reduced_bases():
    field = GF(5)
    left_vars, right_vars = [1, 2, 3], [4, 5, 6]
    order = TermOrder.lex_descending([1, 2, 3, 4, 5, 6])
    for i in range(50):
        rng = random.Random(5000 + i)
        f1, g1 = random_proper_generators(rng, left_vars, field, order)
        f2, g2 = random_proper_generators(rng, right_vars, field, order)
        joint = reduce_basis(buchberger(f1 + f2, order, budget=50_000))
        assert set(joint.polys) == set(g1.polys) | set(g2.polys), f"pair {i}"
    report("8 disjoint unions", "50 pairs: reduced basis of union = union of reduced bases")


# --- criterion 9: certificate round trips ------------------------------------------------

def test_criterion_9_certificate_round_trip(small_grid_certs, k4_f5_cert, congruence_suite_certs):
    cases = []
    for (n, k, p), (g, cert, expected, elapsed) in small_grid_certs.items():
        cases.append((g, k, GF(p), cert))
    g5, cert5 = k4_f5_cert
    cases.append((g5, 3, GF(5), cert5))
    for g, k, field, cert in congruence_suite_certs[0]:
        cases.append((g, k, field, cert))

    for g, k, field, cert in cases:
        ideal = build_ideal(g, k, field)
        assert verify_certificate(cert, ideal)
        lifted = lift_certificate(cert, g)
        assert verify_certificate(lifted, ideal)
        assert lifted.lifted_degree is not None
        # any single-coefficient perturbation must break the identity
        edge, beta = sorted(cert.edge_coeffs.items())[0]
        mono = next(iter(beta.terms))
        bumped = dict(cert.edge_coeffs)
        bumped[edge] = beta + Polynomial(field, {mono: 1})
        assert not verify_certificate(Certificate(field, k, bumped), ideal)
    report("9 certificate round trip", f"{len(cases)} certificates verified, "
                                       "lifted, and broken by perturbation")
