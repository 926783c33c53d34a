"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

import chromideal as ci

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def dimacs(g: ci.Graph) -> str:
    return "".join([f"p edge {g.n} {len(g.edges())}\n"]
                   + [f"e {u} {v}\n" for u, v in g.edges()])


# K_4 is chordal, not 3-colorable, and has a certificate, so it reaches the
# certificate and lift lines; its basis is infeasible, so the triangle is
# needed to reach the coloring count.
@pytest.mark.parametrize("n", [3, 4])
def test_library_example_runs(n, tmp_path, monkeypatch):
    g = ci.complete_graph(n)
    (tmp_path / "graph.col").write_text(dimacs(g), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["g"] == g
    if n == 3:
        assert namespace["cert"] is None
        assert ci.quotient_dimension(namespace["result"], 3) == 6
    else:
        lifted = namespace["lifted"]
        assert lifted.vertex_coeffs is not None
        assert ci.verify_certificate(lifted, ci.build_ideal(g, 3, ci.GF(2)))
