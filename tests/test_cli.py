import argparse
import hashlib
import json
import random

import pytest

import chromideal.cli
from chromideal.chordal import basis_polynomial, count_along_order, elimination_term_order
from chromideal.cli import main
from chromideal.fields import QQ
from chromideal.graphs import Graph, perfect_elimination_order, random_chordal
from chromideal.ideals import check_coloring
from chromideal.poly import render

TRIANGLE = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
C4 = "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
K4 = "p edge 4 6\n" + "".join(
    f"e {u} {v}\n" for u in range(1, 5) for v in range(u + 1, 5)
)
# An isolated vertex, then an edge, a triangle and a K_4 glued by single
# edges, and a pendant vertex: elimination cliques of every size 0 to 3.
# The labels are shuffled, so that variable ids and ranks disagree.
CLIQUES = "p edge 11 13\n" + "".join(
    f"e {u} {v}\n" for u, v in ((2, 11), (2, 9), (3, 9), (7, 9), (3, 7), (1, 7), (1, 10),
                               (1, 4), (1, 8), (4, 10), (8, 10), (4, 8), (5, 8)))
EDGELESS = "p edge 3 0\n"


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "triangle.col"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def c4(tmp_path):
    path = tmp_path / "c4.col"
    path.write_text(C4)
    return str(path)


@pytest.fixture
def k4(tmp_path):
    path = tmp_path / "k4.col"
    path.write_text(K4)
    return str(path)


@pytest.fixture
def cliques(tmp_path):
    path = tmp_path / "cliques.col"
    path.write_text(CLIQUES)
    return str(path)


@pytest.fixture
def edgeless(tmp_path):
    path = tmp_path / "edgeless.col"
    path.write_text(EDGELESS)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_gb_triangle(capsys, triangle):
    code, doc = run_json(capsys, "gb", "--k", "3", triangle)
    assert code == 0
    assert doc["kind"] == "groebner_basis"
    assert doc["chordal"] and not doc["infeasible"]
    assert len(doc["basis"]) == 3
    assert doc["dimension"] == 6
    assert sorted(doc["coloring"].values()) == [0, 1, 2]


def test_gb_not_chordal_exits_1(capsys, c4):
    code, doc = run_json(capsys, "gb", "--k", "3", c4)
    assert code == 1
    assert doc["chordal"] is False


def test_gb_infeasible_reports_witness(capsys, k4):
    code, doc = run_json(capsys, "gb", "--k", "3", k4)
    assert code == 1
    assert doc["infeasible"] is True
    assert doc["basis"] == ["1"]
    assert len(doc["witness"]["clique"]) >= 3


def test_count_and_oracle_count(capsys, triangle, c4):
    code, doc = run_json(capsys, "count", "--k", "3", triangle)
    assert code == 0 and doc["colorings"] == 6
    code, doc = run_json(capsys, "count", "--k", "2", c4)
    assert code == 1 and doc["chordal"] is False
    code, doc = run_json(capsys, "oracle-count", "--k", "2", c4)
    assert code == 0 and doc["colorings"] == 2


def test_color(capsys, triangle, k4):
    code, doc = run_json(capsys, "color", "--k", "3", triangle)
    assert code == 0
    assert sorted(doc["coloring"].values()) == [0, 1, 2]
    code, doc = run_json(capsys, "color", "--k", "3", k4)
    assert code == 1 and doc["coloring"] is None


def test_check_chordal(capsys, triangle, c4):
    code, doc = run_json(capsys, "check-chordal", triangle)
    assert code == 0 and doc["chordal"]
    assert [r["vertex"] for r in doc["elimination"]] == [1, 2, 3]
    code, doc = run_json(capsys, "check-chordal", c4)
    assert code == 1 and not doc["chordal"]


def test_cert_k4_gf2(capsys, k4):
    code, doc = run_json(capsys, "cert", "--k", "3", "--p", "2", k4)
    assert code == 0
    assert doc["kind"] == "certificate"
    assert doc["degree"] == 1
    assert doc["infeasible_degrees"] == []


def test_cert_reports_progress_per_degree(capsys, k4):
    code = main(["cert", "--k", "3", "--p", "7", k4])
    captured = capsys.readouterr()
    assert code == 0
    assert "degree 1: infeasible" in captured.err
    assert "degree 4: certificate found" in captured.err


def test_cert_colorable_graph_exits_1(capsys, triangle):
    code, doc = run_json(capsys, "cert", "--k", "3", "--p", "2", "--d-max", "4", triangle)
    assert code == 1
    assert doc["certificate"] is None
    assert doc["infeasible_degrees"] == [1, 4]


def test_cert_verify_round_trip(capsys, k4, tmp_path):
    code, out = run(capsys, "cert", "--k", "3", "--p", "7", "--lift", k4)
    assert code == 0
    doc_path = tmp_path / "cert.json"
    doc_path.write_text(out)
    code, verdict = run_json(capsys, "verify-cert", str(doc_path))
    assert code == 0 and verdict["valid"] is True

    tampered = json.loads(out)
    key = sorted(tampered["edge_coefficients"])[0]
    tampered["edge_coefficients"][key] = "x1"
    doc_path.write_text(json.dumps(tampered))
    code, verdict = run_json(capsys, "verify-cert", str(doc_path))
    assert code == 1 and verdict["valid"] is False


@pytest.mark.parametrize(
    "edit",
    [
        {"degree": 99},
        {"lifted_degree": 1},
        {"infeasible_degrees": [4, 7]},
        {"infeasible_degrees": [1, 1]},
        {"infeasible_degrees": [2]},
        {"infeasible_degrees": ["1"]},
        {"degree": 4.0},
        {"lifted_degree": 4.0},
    ],
    ids=["degree", "lifted-degree", "infeasible-at-degree", "infeasible-repeated",
         "infeasible-not-admissible", "infeasible-string", "degree-float",
         "lifted-degree-float"],
)
def test_verify_cert_checks_claimed_degrees(capsys, k4, tmp_path, edit):
    """The K_4/k=3/GF(7) lifted document (degree 4, lifted_degree 4,
    infeasible_degrees [1]) verifies; with one claimed degree edited it does
    not."""
    code, doc = run_json(capsys, "cert", "--k", "3", "--p", "7", "--lift", k4)
    assert code == 0 and doc["degree"] == doc["lifted_degree"] == 4
    assert doc["infeasible_degrees"] == [1]
    doc_path = tmp_path / "cert.json"
    doc_path.write_text(json.dumps(doc))
    code, verdict = run_json(capsys, "verify-cert", str(doc_path))
    assert code == 0 and verdict["valid"] is True
    doc_path.write_text(json.dumps({**doc, **edit}))
    code, verdict = run_json(capsys, "verify-cert", str(doc_path))
    assert code == 1 and verdict["valid"] is False


def write_dimacs(path, g) -> str:
    path.write_text(f"p edge {g.n} {g.edge_count()}\n"
                    + "".join(f"e {u} {v}\n" for u, v in g.edges()))
    return str(path)


def odd_wheel(tmp_path, r):
    """W_r: a hub, vertex r + 1, joined to every vertex of the cycle 1..r."""
    edges = [(i, i % r + 1) for i in range(1, r + 1)] + [(i, r + 1) for i in range(1, r + 1)]
    return write_dimacs(tmp_path / f"w{r}.col", Graph(r + 1, edges))


def assert_degree_one_gf2_certificate(capsys, monkeypatch, path):
    """cert --k 3 --p 2 --lift finds degree 1 at once, and verify-cert accepts it."""
    import io

    code, out = run(capsys, "cert", "--k", "3", "--p", "2", "--lift", path)
    doc = json.loads(out)
    assert code == 0 and doc["degree"] == 1 and doc["infeasible_degrees"] == []
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, verdict = run_json(capsys, "verify-cert", "-")
    assert code == 0 and verdict["valid"] is True


def test_cert_on_odd_wheel_w41(capsys, tmp_path, monkeypatch):
    """42 vertices: the dense exponent walk would visit 2^42 vectors."""
    assert_degree_one_gf2_certificate(capsys, monkeypatch, odd_wheel(tmp_path, 41))


def test_cert_on_odd_wheel_w101(capsys, tmp_path, monkeypatch):
    """NulLA scale: the degree-1 system over GF(2) has 25,251 rows and
    20,604 columns, all solved by the dense kernel."""
    assert_degree_one_gf2_certificate(capsys, monkeypatch, odd_wheel(tmp_path, 101))


def test_cert_odd_wheel_w11_degree_one_infeasible_over_gf5(capsys, tmp_path):
    path = odd_wheel(tmp_path, 11)
    code, doc = run_json(capsys, "cert", "--k", "3", "--p", "5", "--d-max", "1", path)
    assert code == 1 and doc["certificate"] is None and doc["infeasible_degrees"] == [1]


def planted_k4(tmp_path, n):
    """A seeded 3-colorable graph with n vertices and 2n edges, plus a K_4
    on vertices 1-4."""
    rng = random.Random(1)
    color = [rng.randrange(3) for _ in range(n + 1)]
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if color[u] != color[v]]
    k4_edges = {(u, v) for u in range(1, 5) for v in range(u + 1, 5)}
    return write_dimacs(tmp_path / f"planted{n}.col",
                        Graph(n, set(rng.sample(pairs, 2 * n)) | k4_edges))


@pytest.mark.parametrize("p, degree, infeasible, lines", [
    ("2", 1, [], ["degree 1: certificate found on clique 1-2-3-4 "
                  "(24 column orbits, 17 row orbits, group order 1)"]),
    ("5", 4, [1], ["degree 1: infeasible (7500 column orbits, 10213 row orbits, group order 1)",
                   "degree 4: certificate found on clique 1-2-3-4 "
                   "(10 column orbits, 5 row orbits, group order 24)"]),
])
def test_cert_on_a_planted_k4_answers_from_the_clique(capsys, tmp_path, monkeypatch,
                                                      p, degree, infeasible, lines):
    """Over GF(5) the graph's own degree-4 system passes the fill budget;
    the K_4 answers at degree 4 instead, and verify-cert accepts its
    certificate as one for the whole graph."""
    import io

    code = main(["cert", "--k", "3", "--p", p, "--lift", planted_k4(tmp_path, 60)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err.splitlines() == lines
    doc = json.loads(captured.out)
    assert doc["degree"] == degree and doc["infeasible_degrees"] == infeasible
    monkeypatch.setattr("sys.stdin", io.StringIO(captured.out))
    code, verdict = run_json(capsys, "verify-cert", "-")
    assert code == 0 and verdict["valid"] is True


def test_cert_below_the_clique_degree_exits_1(capsys, tmp_path):
    code, doc = run_json(capsys, "cert", "--k", "3", "--p", "5", "--d-max", "3",
                         planted_k4(tmp_path, 60))
    assert code == 1 and doc["kind"] == "certificate_search"
    assert doc["certificate"] is None and doc["infeasible_degrees"] == [1]


def test_gb_verify_round_trip(capsys, triangle, tmp_path):
    code, out = run(capsys, "gb", "--k", "3", triangle)
    assert code == 0
    doc_path = tmp_path / "gb.json"
    doc_path.write_text(out)
    code, verdict = run_json(capsys, "verify-gb", str(doc_path))
    assert code == 0 and verdict["valid"] is True

    tampered = json.loads(out)
    tampered["basis"][0] = "x1 + x2"
    doc_path.write_text(json.dumps(tampered))
    code, verdict = run_json(capsys, "verify-gb", str(doc_path))
    assert code == 1 and verdict["valid"] is False


def assert_gb_document_verifies(capsys, monkeypatch, tmp_path, n, k):
    """gb --k k on random_chordal(n, k, 1), piped to verify-gb, is valid."""
    import io

    g = random_chordal(n, k, 1)
    code, out = run(capsys, "gb", "--k", str(k), write_dimacs(tmp_path / "g.col", g))
    assert code == 0 and json.loads(out)["chordal"] is True
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, verdict = run_json(capsys, "verify-gb", "-")
    assert code == 0 and verdict["valid"] is True


def test_verify_gb_on_a_forty_vertex_basis(capsys, monkeypatch, tmp_path):
    """The S-pair check runs over all 780 pairs of a 40-element basis."""
    assert_gb_document_verifies(capsys, monkeypatch, tmp_path, 40, 4)


def test_verify_gb_accepts_infeasible_document(capsys, k4, tmp_path):
    code, out = run(capsys, "gb", "--k", "3", k4)
    assert code == 1
    doc_path = tmp_path / "gb.json"
    doc_path.write_text(out)
    code, verdict = run_json(capsys, "verify-gb", str(doc_path))
    assert code == 0 and verdict["valid"] is True


K4_GRAPH = {"n": 4, "edges": [[u, v] for u in range(1, 5) for v in range(u + 1, 5)]}
K4_WITNESS = {"vertex": 1, "clique": [2, 3, 4]}


@pytest.mark.parametrize(
    "witness, changes",
    [
        (None, {}),
        ({"vertex": 1, "clique": [2, 3]}, {}),  # a clique, but only k vertices
        ({"vertex": 1, "clique": [2, 2, 3]}, {}),
        ({"vertex": 1, "clique": [2, 3, 4]}, {}),  # vertex 4 is not in the graph
        ({"vertex": 1}, {}),
        ("1 2 3", {}),
        (K4_WITNESS, {"graph": K4_GRAPH, "dimension": 5}),
        (K4_WITNESS, {"graph": K4_GRAPH, "dimension": 0.0}),
        (K4_WITNESS, {"graph": K4_GRAPH, "dimension": False}),
        (K4_WITNESS, {"graph": K4_GRAPH, "coloring": {"1": 0, "2": 0, "3": 0, "4": 0}}),
    ],
    ids=["None", "witness1", "witness2", "witness3", "witness4", "1 2 3",
         "k4-dimension-5", "k4-float-dimension", "k4-bool-dimension", "k4-coloring"],
)
def test_verify_gb_rejects_forged_infeasible_document(capsys, witness, changes, tmp_path):
    """The 3-colorable triangle dressed up as infeasible with basis {1}, and
    K_4's genuine infeasible document with a false dimension or coloring."""
    doc = {
        "version": 1, "kind": "groebner_basis", "field": {"kind": "rational"},
        "k": 3, "graph": {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
        "chordal": True, "infeasible": True, "basis": ["1"], "order": None,
        "elimination": None, "dimension": 0, "coloring": None, "witness": witness,
        **changes,
    }
    doc_path = tmp_path / "gb.json"
    doc_path.write_text(json.dumps(doc))
    code, verdict = run_json(capsys, "verify-gb", str(doc_path))
    assert code == 1 and verdict["valid"] is False


def _first_key_as(mapping: dict, key: str) -> dict:
    """mapping with its first key replaced by key, values and order kept."""
    first = next(iter(mapping))
    return {key if k == first else k: v for k, v in mapping.items()}


def _swap_first_records(doc):
    doc["elimination"][:2] = doc["elimination"][1::-1]


def _point_basis(doc):
    doc["basis"] = ["x1 + 6", "x2 + 5", "x3 + 3"]  # the single coloring (1, 2, 4)


def _dimension_off_by_one(doc):
    doc["dimension"] += 1


def _float_dimension(doc):
    doc["dimension"] = float(doc["dimension"])


def _signed_coloring_key(doc):
    doc["coloring"] = _first_key_as(doc["coloring"], "+1")


def _color_one(doc, value):
    """Give the vertex of color 1 the color value: the coloring stays proper
    and in range, but one color is not an int."""
    (v,) = [v for v, c in doc["coloring"].items() if c == 1]
    doc["coloring"][v] = value


def _fractional_color(doc):
    _color_one(doc, 0.5)


def _bool_color(doc):
    _color_one(doc, True)


def _float_color(doc):
    _color_one(doc, 1.0)


@pytest.mark.parametrize("forge", [_point_basis, _swap_first_records, _dimension_off_by_one,
                                   _float_dimension, _signed_coloring_key, _fractional_color,
                                   _bool_color, _float_color])
def test_verify_gb_rejects_forged_feasible_document(capsys, triangle, tmp_path, forge):
    code, doc = run_json(capsys, "gb", "--k", "3", "--p", "7", triangle)
    assert code == 0
    forge(doc)
    doc_path = tmp_path / "gb.json"
    doc_path.write_text(json.dumps(doc))
    code, verdict = run_json(capsys, "verify-gb", str(doc_path))
    assert code == 1 and verdict["valid"] is False


def test_verify_gb_reads_integers_beyond_the_int_string_limit(capsys, triangle, tmp_path):
    code, out = run(capsys, "gb", "--k", "3", "--p", "7", triangle)
    assert code == 0 and '"dimension": 6,' in out
    doc_path = tmp_path / "gb.json"
    doc_path.write_text(out.replace('"dimension": 6,', f'"dimension": {"9" * 5000},'))
    code, verdict = run_json(capsys, "verify-gb", str(doc_path))
    assert code == 1 and verdict["valid"] is False


@pytest.mark.parametrize("verb,field", [("count", "colorings"), ("gb", "dimension")])
def test_exact_counts_beyond_the_int_string_limit(capsys, tmp_path, verb, field):
    g = random_chordal(12000, 5, 1)
    expected = count_along_order(perfect_elimination_order(g), 5)
    assert expected > 10 ** 4300
    code, doc = run_json(capsys, verb, "--k", "5", write_dimacs(tmp_path / "g.col", g))
    assert code == 0 and doc[field] == expected


# Every key gb writes into a groebner_basis document.
GB_KEYS = ("version", "kind", "field", "k", "graph", "chordal", "infeasible", "basis",
           "order", "elimination", "dimension", "coloring", "witness")


def _name_first_edge_twice(coefficients: dict) -> dict:
    key, text = next(iter(coefficients.items()))
    u, v = key.split("-")
    return {**coefficients, f"{v}-{u}": text}


@pytest.mark.parametrize(
    "verb,malform",
    [
        ("verify-gb", lambda doc: [doc]),
        ("verify-gb", lambda doc: {**doc, "order": None}),
        ("verify-gb", lambda doc: {**doc, "graph": {"n": 4, "edges": [1]}}),
        ("verify-gb", lambda doc: {**doc, "field": None}),
        ("verify-gb", lambda doc: {**doc, "basis": [5]}),
        ("verify-gb", lambda doc: {**doc, "version": 2}),
        ("verify-cert", lambda doc: [doc]),
        ("verify-cert", lambda doc: {**doc, "edge_coefficients": []}),
        ("verify-cert", lambda doc: {**doc, "k": 0}),
        ("verify-cert", lambda doc: {**doc, "edge_coefficients": _name_first_edge_twice(
            doc["edge_coefficients"])}),
        ("verify-cert", lambda doc: {**doc, "version": 99}),
        ("verify-cert", lambda doc: {**doc, "version": "1"}),
        ("verify-gb", lambda doc: {**doc, "k": 4.0}),
        ("verify-gb", lambda doc: {**doc, "order": {**doc["order"], "ranks": {
            v: float(r) for v, r in doc["order"]["ranks"].items()}}}),
        ("verify-gb", lambda doc: {**doc, "graph": {**doc["graph"], "edges": [
            [True if u == 1 else u, v] for u, v in doc["graph"]["edges"]]}}),
        ("verify-cert", lambda doc: {**doc, "k": 3.9}),
        ("verify-cert", lambda doc: {**doc, "k": "3"}),
        ("verify-cert", lambda doc: {**doc, "graph": {**doc["graph"], "n": 4.5}}),
        ("verify-cert", lambda doc: {**doc, "graph": {**doc["graph"], "edges": [
            [u, float(v)] for u, v in doc["graph"]["edges"]]}}),
        ("verify-cert", lambda doc: {**doc, "field": {**doc["field"], "p": 7.0}}),
        ("verify-cert", lambda doc: {**doc, "field": {**doc["field"], "p": 2**61 - 1}}),
        ("verify-gb", lambda doc: {**doc, "field": {"kind": "prime", "p": 2**61 - 1}}),
        *[("verify-cert", lambda doc, key=key: {**doc, "edge_coefficients": _first_key_as(
            doc["edge_coefficients"], key)}) for key in ["+1-2", " 01-2", "0_1-2", "\u0661-2"]],
        ("verify-cert", lambda doc: {**doc, "vertex_coefficients": {"+1": "x1"}}),
        ("verify-gb", lambda doc: {**doc, "order": {**doc["order"], "ranks": _first_key_as(
            doc["order"]["ranks"], " 01")}}),
        *[("verify-cert", lambda doc, key=key: {k: v for k, v in doc.items() if k != key})
          for key in ["degree", "lifted_degree", "vertex_coefficients", "infeasible_degrees"]],
        ("verify-cert-lifted", lambda doc: {**doc, "vertex_coefficients": {
            **doc["vertex_coefficients"], "99": "0"}}),
        *[("verify-cert-lifted", lambda doc, key=key: {k: v for k, v in doc.items() if k != key})
          for key in ["degree", "lifted_degree", "vertex_coefficients", "infeasible_degrees"]],
        *[(verb, lambda doc, keys=keys: {k: v for k, v in doc.items() if k not in keys})
          for verb in ["verify-gb", "verify-gb-infeasible"]
          for keys in [*[(key,) for key in GB_KEYS], ("order", "elimination", "coloring")]],
    ],
    ids=["gb-array", "gb-null-order", "gb-int-edge", "gb-null-field", "gb-int-poly",
         "gb-version", "cert-array", "cert-list-coefficients", "cert-k-zero",
         "cert-repeated-edge", "cert-version", "cert-version-string",
         "gb-float-k", "gb-float-rank", "gb-bool-edge-end", "cert-float-k", "cert-string-k",
         "cert-float-n", "cert-float-edge-end", "cert-float-p", "cert-huge-p", "gb-huge-p",
         "cert-signed-edge-key",
         "cert-padded-edge-key", "cert-underscored-edge-key", "cert-arabic-indic-edge-key",
         "cert-signed-vertex-key", "gb-padded-rank-key",
         "cert-no-degree", "cert-no-lifted-degree", "cert-no-vertex-coefficients",
         "cert-no-infeasible-degrees", "lifted-cert-vertex-out-of-range",
         "lifted-cert-no-degree", "lifted-cert-no-lifted-degree",
         "lifted-cert-no-vertex-coefficients", "lifted-cert-no-infeasible-degrees",
         *[f"{name}-no-{'-'.join(keys)}"
           for name in ["gb", "infeasible-gb"]
           for keys in [*[(key,) for key in GB_KEYS], ("order", "elimination", "coloring")]]],
)
def test_malformed_documents_exit_2(capsys, k4, tmp_path, verb, malform):
    """The gb documents are K_4 at k = 4 and its infeasible one at k = 3; the
    cert documents are K_4 at k = 3, over GF(7) plain and over GF(5) lifted
    (degree 4, infeasible_degrees [1])."""
    checker, source, source_code = {
        "verify-gb": ("verify-gb", ["gb", "--k", "4"], 0),
        "verify-gb-infeasible": ("verify-gb", ["gb", "--k", "3"], 1),
        "verify-cert": ("verify-cert", ["cert", "--k", "3", "--p", "7"], 0),
        "verify-cert-lifted": ("verify-cert", ["cert", "--k", "3", "--p", "5", "--lift"], 0),
    }[verb]
    code, doc = run_json(capsys, *source, k4)
    assert code == source_code
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(malform(doc)))
    code = main([checker, str(doc_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cert_fill_budget_exits_3(capsys, k4, monkeypatch):
    import chromideal.linalg

    monkeypatch.setattr(chromideal.linalg, "_FILL_BUDGET", 1)
    code = main(["cert", "--k", "3", "--p", "7", k4])
    captured = capsys.readouterr()
    assert code == 3
    assert "computation error:" in captured.err
    assert captured.out == ""


def test_cert_dense_gf2_bound_exits_3(capsys, k4, monkeypatch):
    import chromideal.linalg

    monkeypatch.setattr(chromideal.linalg, "_DENSE_BYTES", 1)
    code = main(["cert", "--k", "3", "--p", "2", k4])
    captured = capsys.readouterr()
    assert code == 3
    assert "computation error: dense GF(2) matrix" in captured.err
    assert captured.out == ""


def test_cert_memory_error_exits_3(capsys, k4, monkeypatch):
    import chromideal.linalg

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(chromideal.linalg, "solve_sparse", exhausted)
    code = main(["cert", "--k", "3", "--p", "7", k4])
    captured = capsys.readouterr()
    assert code == 3
    assert "computation error: out of memory" in captured.err
    assert captured.out == ""


def test_usage_errors_exit_2(capsys, triangle, tmp_path):
    assert main(["gb", "--k", "1", triangle]) == 2
    assert main(["gb", "--k", "3", "--p", "6", triangle]) == 2
    assert main(["cert", "--k", "3", "--p", "3", triangle]) == 2  # gcd(3,3) != 1
    assert main(["cert", "--k", "3", "--p", "rational", triangle]) == 2
    assert main(["cert", "--k", "3", "--p", "7", "--d-max", "-1", triangle]) == 2
    assert main(["gb", "--k", "3", str(tmp_path / "missing.col")]) == 2
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 7\n")
    assert main(["gb", "--k", "3", str(bad)]) == 2
    assert main(["nonsense"]) == 2
    assert main(["gb", "--k", "3", "--format", "text", triangle]) == 2
    assert main(["count", "--k", "3", "--oracle", triangle]) == 2
    capsys.readouterr()


def test_edge_list_input(capsys, tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("1 2\n2 3\n1 3\n")
    code, doc = run_json(capsys, "count", "--k", "3", str(path))
    assert code == 0 and doc["colorings"] == 6


def pinned_cells(capsys, tmp_path, triangle, c4, k4, cliques, edgeless) -> dict:
    """(exit code, sha256 of stdout) of each cell, by cell name; each
    verifier cell reads the document the cell before it printed."""
    cells = {}

    def cell(name, *argv):
        code, out = run(capsys, *argv)
        cells[name] = (code, hashlib.sha256(out.encode()).hexdigest())
        return out

    def verified(verb, name, *argv):
        doc = tmp_path / "doc.json"
        doc.write_text(cell(name, *argv))
        cell(f"{verb} < {name}", verb, str(doc))

    for graph, path in (("triangle", triangle), ("C_4", c4)):
        cell(f"check-chordal {graph}", "check-chordal", path)
        verified("verify-gb", f"gb {graph}", "gb", "--k", "3", path)
        verified("verify-gb", f"gb --p 7 {graph}", "gb", "--k", "3", "--p", "7", path)
        for verb in ("count", "color", "oracle-count"):
            cell(f"{verb} {graph}", verb, "--k", "3", path)
    verified("verify-gb", "gb --k 5 cliques", "gb", "--k", "5", cliques)
    verified("verify-gb", "gb --k 5 --p 11 cliques", "gb", "--k", "5", "--p", "11", cliques)
    verified("verify-gb", "gb --p 2 triangle", "gb", "--k", "3", "--p", "2", triangle)
    # the parser rejects k = 1, so the edgeless graph's smallest basis is k = 2
    verified("verify-gb", "gb --k 1 edgeless", "gb", "--k", "1", edgeless)
    verified("verify-gb", "gb --k 2 edgeless", "gb", "--k", "2", edgeless)
    verified("verify-cert", "cert --p 2 K_4", "cert", "--k", "3", "--p", "2", k4)
    verified("verify-cert", "cert --p 5 --lift K_4", "cert", "--k", "3", "--p", "5", "--lift", k4)
    return cells


# Exit code and sha256 of stdout, in-process, recorded before the verbs
# returned (document, answer) to main; the cliques, edgeless and GF(2)
# triangle cells were recorded before gb wrote clique elements as text.  A
# change to any document's layout or content has to edit this table.
PINNED_STDOUT = {
    "check-chordal triangle":
        (0, "6e91a910b702e8ba32d61eacfefcd26f238d132854cf2c3b7f89dd3ec4fe7487"),
    "gb triangle":
        (0, "2ea49b239f9d59d7bec50fa490522f44f2e60daad59f041e16d684c16d5e6774"),
    "verify-gb < gb triangle":
        (0, "c5a3ab06d5be541262cc024a7089f904178355f21b69e2dcfba0579660b4b707"),
    "gb --p 7 triangle":
        (0, "f467475f0ab64028755d85fc0235d9c1219483bfdf3c3f8e048874ec96de604e"),
    "verify-gb < gb --p 7 triangle":
        (0, "c5a3ab06d5be541262cc024a7089f904178355f21b69e2dcfba0579660b4b707"),
    "count triangle":
        (0, "5d5921ae15947982615ebdba1ac2dba35b9fea6d91c9e013324b15bf12a3f097"),
    "color triangle":
        (0, "f9befa3a8678d6f239a9a223e3b3cb6609bf1df0d20c538c9d4f0114ba230803"),
    "oracle-count triangle":
        (0, "f2b1a4cda348dac920530a2acee5e4704d6388ce96a377e5283b6927d85b5908"),
    "check-chordal C_4":
        (1, "4e1f9ea9e3da2d73cefb209c5d8c888753075222117357430397b6a3007fa1df"),
    "gb C_4":
        (1, "fcfd43b63968f2c0363bed6d47c824757c975407d24f1fb4b1903c42639a6e78"),
    "verify-gb < gb C_4":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gb --p 7 C_4":
        (1, "b39e363d7d5d6f8f9e55d8e13208cb5b0517bfc5e62abacff8c2393221094b50"),
    "verify-gb < gb --p 7 C_4":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count C_4":
        (1, "d06d40e67397b86548705e4462baa5b27518112ea72166026e447bbc8ab0ffa9"),
    "color C_4":
        (1, "062fdd14fe7048c06dbd45133c7150a97db02317ccf2701742bc390cb5d6974f"),
    "oracle-count C_4":
        (0, "db6129a172d5c0ad9ec8d16a71f7d8bd9fe873d8b14b7eafc50fbdfd81efb4d5"),
    "gb --k 5 cliques":
        (0, "c63586b87d2660a6bba0909ab05f57c782f60d0e670ee2784d18438e07871ddd"),
    "verify-gb < gb --k 5 cliques":
        (0, "c5a3ab06d5be541262cc024a7089f904178355f21b69e2dcfba0579660b4b707"),
    "gb --k 5 --p 11 cliques":
        (0, "88ba84fae0172f8d8efdcb4ec6a7cdcdccdbc14fd26ad04f3775b976643e1c60"),
    "verify-gb < gb --k 5 --p 11 cliques":
        (0, "c5a3ab06d5be541262cc024a7089f904178355f21b69e2dcfba0579660b4b707"),
    "gb --p 2 triangle":
        (0, "75a33e9dc5615d8439e07e0b6420c8419ba1b3f7d5012a1a0bffb4ef4061d279"),
    "verify-gb < gb --p 2 triangle":
        (0, "c5a3ab06d5be541262cc024a7089f904178355f21b69e2dcfba0579660b4b707"),
    "gb --k 1 edgeless":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-gb < gb --k 1 edgeless":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gb --k 2 edgeless":
        (0, "f8354f1e0a0ef74dbcb9e9fe3c9fd85002508b1508f7ebf1e904eba421058572"),
    "verify-gb < gb --k 2 edgeless":
        (0, "c5a3ab06d5be541262cc024a7089f904178355f21b69e2dcfba0579660b4b707"),
    "cert --p 2 K_4":
        (0, "1ec0862272b036b0c9cb73448908c0098f99ca7e36982b9026f6a31e7059cb20"),
    "verify-cert < cert --p 2 K_4":
        (0, "c5a3ab06d5be541262cc024a7089f904178355f21b69e2dcfba0579660b4b707"),
    "cert --p 5 --lift K_4":
        (0, "58bdf0ef05f8a63ee085e3102f0746aca9db36dad1b99f3c0c7497980e7beeb1"),
    "verify-cert < cert --p 5 --lift K_4":
        (0, "c5a3ab06d5be541262cc024a7089f904178355f21b69e2dcfba0579660b4b707"),
}


def test_stdout_bytes_and_exit_codes_are_pinned(capsys, tmp_path, triangle, c4, k4, cliques,
                                                edgeless):
    assert pinned_cells(capsys, tmp_path, triangle, c4, k4, cliques, edgeless) == PINNED_STDOUT


def test_main_runs_the_verb_function_it_finds_at_call_time(capsys, triangle, monkeypatch):
    calls = []
    original = chromideal.cli.cmd_count

    def wrapper(args):
        calls.append(args.verb)
        return original(args)

    monkeypatch.setattr(chromideal.cli, "cmd_count", wrapper)
    code, doc = run_json(capsys, "count", "--k", "3", triangle)
    assert code == 0 and doc["colorings"] == 6
    assert calls == ["count"]


def subparser_names(parser: argparse.ArgumentParser) -> set[str]:
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(verbs.choices)


def test_every_verb_has_one_cmd_function():
    commands = {name[len("cmd_"):].replace("_", "-")
                for name in vars(chromideal.cli) if name.startswith("cmd_")}
    assert subparser_names(chromideal.cli.build_parser()) == commands


def test_two_main_calls_build_one_parser_tree(capsys, triangle, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    chromideal.cli.build_parser.cache_clear()
    assert main(["count", "--k", "3", triangle]) == 0
    assert len(built) == 1 + len(subparser_names(built[0]))
    assert main(["color", "--k", "3", triangle]) == 0
    assert len(built) == 1 + len(subparser_names(built[0]))
    capsys.readouterr()


@pytest.mark.parametrize(
    "error,code,message",
    [(MemoryError, 3, "computation error: out of memory"), (ValueError, 2, "error: ")],
    ids=["memory-error", "value-error"],
)
def test_errors_while_printing_keep_their_exit_code(capsys, triangle, monkeypatch, error, code,
                                                    message):
    def failing(document):
        raise error

    monkeypatch.setattr(chromideal.cli, "_emit", failing)
    assert main(["count", "--k", "3", triangle]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)


def test_json_output_is_byte_identical_across_runs(capsys, k4):
    _, first = run(capsys, "cert", "--k", "3", "--p", "7", k4)
    _, second = run(capsys, "cert", "--k", "3", "--p", "7", k4)
    assert first == second
    _, a = run(capsys, "gb", "--k", "3", k4)
    _, b = run(capsys, "gb", "--k", "3", k4)
    assert a == b


def test_module_entry_point(k4):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "chromideal", "count", "--k", "4", k4],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["colorings"] == 24


@pytest.mark.parametrize("p", ["rational", "7"])
def test_gb_and_verify_gb_stdout_ignore_the_hash_seed(tmp_path, p):
    """gb --k 3 and verify-gb print the same bytes under PYTHONHASHSEED 1, 2
    and 3: no set or dict iteration that depends on string hashes reaches
    the output or the division."""
    import os
    import subprocess
    import sys

    def chromideal(seed, *argv, stdin=None):
        proc = subprocess.run([sys.executable, "-m", "chromideal", *argv], input=stdin,
                              capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
        return proc.returncode, proc.stdout

    graph = write_dimacs(tmp_path / "g.col", random_chordal(16, 3, 5))
    outputs = set()
    for seed in ("1", "2", "3"):
        gb = chromideal(seed, "gb", "--k", "3", "--p", p, graph)
        outputs.add((gb, chromideal(seed, "verify-gb", "-", stdin=gb[1])))
    assert len(outputs) == 1
    ((gb_code, gb_out), (verify_code, verify_out)), = outputs
    assert gb_code == 0 and json.loads(gb_out)["chordal"] is True
    assert verify_code == 0 and json.loads(verify_out)["valid"] is True


def test_cli_import_leaves_numpy_out():
    """The package has no third-party runtime dependency: importing the CLI
    in a fresh interpreter loads no numpy."""
    import subprocess
    import sys

    code = "import sys, chromideal.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_stdin_verify(capsys, k4, tmp_path, monkeypatch):
    import io

    code, out = run(capsys, "cert", "--k", "3", "--p", "2", k4)
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, verdict = run_json(capsys, "verify-cert", "-")
    assert code == 0 and verdict["valid"] is True


@pytest.mark.slow
def test_chordal_verbs_at_one_hundred_thousand_vertices(capsys, tmp_path):
    g = random_chordal(100000, 5, 1)
    path = write_dimacs(tmp_path / "g.col", g)
    code, doc = run_json(capsys, "check-chordal", path)
    assert code == 0 and doc["chordal"] is True
    peo = perfect_elimination_order(g)
    assert doc["elimination"] == [{"vertex": r.vertex, "clique": sorted(r.clique)} for r in peo]
    code, doc = run_json(capsys, "count", "--k", "5", path)
    assert code == 0 and doc["colorings"] == count_along_order(peo, 5)
    code, doc = run_json(capsys, "color", "--k", "5", path)
    coloring = {int(v): c for v, c in doc["coloring"].items()}
    assert code == 0 and len(coloring) == g.n and check_coloring(g, 5, coloring)
    code, doc = run_json(capsys, "gb", "--k", "5", path)
    assert code == 0 and len(doc["basis"]) == g.n
    assert doc["dimension"] == count_along_order(peo, 5)
    order = elimination_term_order(peo)
    for i in random.Random(1).sample(range(g.n), 1000):
        assert doc["basis"][i] == render(basis_polynomial(peo[i], 5, QQ), order)


@pytest.mark.slow
def test_verify_gb_on_a_sixty_vertex_basis(capsys, monkeypatch, tmp_path):
    assert_gb_document_verifies(capsys, monkeypatch, tmp_path, 60, 5)
