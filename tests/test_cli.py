import json

import pytest

from chromideal.chordal import count_along_order
from chromideal.cli import main
from chromideal.graphs import Graph, perfect_elimination_order, random_chordal
from chromideal.ideals import check_coloring

TRIANGLE = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
C4 = "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
K4 = "p edge 4 6\n" + "".join(
    f"e {u} {v}\n" for u in range(1, 5) for v in range(u + 1, 5)
)


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


@pytest.mark.parametrize("forge", [_point_basis, _swap_first_records, _dimension_off_by_one,
                                   _float_dimension, _signed_coloring_key])
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
        *[("verify-cert", lambda doc, key=key: {**doc, "edge_coefficients": _first_key_as(
            doc["edge_coefficients"], key)}) for key in ["+1-2", " 01-2", "0_1-2", "\u0661-2"]],
        ("verify-cert", lambda doc: {**doc, "vertex_coefficients": {"+1": "x1"}}),
        ("verify-gb", lambda doc: {**doc, "order": {**doc["order"], "ranks": _first_key_as(
            doc["order"]["ranks"], " 01")}}),
    ],
    ids=["gb-array", "gb-null-order", "gb-int-edge", "gb-null-field", "gb-int-poly",
         "gb-version", "cert-array", "cert-list-coefficients", "cert-k-zero",
         "cert-repeated-edge", "cert-version", "cert-version-string",
         "gb-float-k", "gb-float-rank", "gb-bool-edge-end", "cert-float-k", "cert-string-k",
         "cert-float-n", "cert-float-edge-end", "cert-float-p", "cert-signed-edge-key",
         "cert-padded-edge-key", "cert-underscored-edge-key", "cert-arabic-indic-edge-key",
         "cert-signed-vertex-key", "gb-padded-rank-key"],
)
def test_malformed_documents_exit_2(capsys, k4, tmp_path, verb, malform):
    source = ["gb", "--k", "4"] if verb == "verify-gb" else ["cert", "--k", "3", "--p", "7"]
    code, doc = run_json(capsys, *source, k4)
    assert code == 0
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(malform(doc)))
    code = main([verb, str(doc_path)])
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


@pytest.mark.slow
def test_verify_gb_on_a_sixty_vertex_basis(capsys, monkeypatch, tmp_path):
    assert_gb_document_verifies(capsys, monkeypatch, tmp_path, 60, 5)
