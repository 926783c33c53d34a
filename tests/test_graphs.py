import itertools
import random

import pytest

from chromideal.graphs import (
    EliminationRecord,
    Graph,
    ParseError,
    _adj_is_simplicial,
    complete_graph,
    find_clique,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    perfect_elimination_order,
    random_chordal,
)
from oracles import is_simplicial

TRIANGLE = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def cycle(n):
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def simplicial(g, v):
    """The simpliciality test perfect_elimination_order runs, on g's own
    adjacency."""
    return _adj_is_simplicial(g._adj, v)


# --- parsing -------------------------------------------------------------------

def test_parse_dimacs_triangle():
    g = parse_dimacs(TRIANGLE)
    assert g.n == 3
    assert g.edges() == [(1, 2), (1, 3), (2, 3)]


def test_parse_dimacs_comments_and_duplicates():
    g = parse_dimacs("c header\np edge 3 4\ne 1 2\nc mid\ne 2 1\ne 2 3\n")
    assert g.edges() == [(1, 2), (2, 3)]


def test_parse_dimacs_isolated_vertices():
    g = parse_dimacs("p edge 4 0\n")
    assert g.n == 4 and g.edges() == []


@pytest.mark.parametrize(
    "text,edges",
    [
        ("comment first\np edge 3 1\ne 1 3\n", [(1, 3)]),
        ("\n  p edge 2 1\n  e 1 2\n", [(1, 2)]),
        ("# note\n1 3\n", [(1, 3)]),
        ("", []),
        ("# only a comment\n", []),
    ],
)
def test_load_graph_sniffs_format(tmp_path, text, edges):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert load_graph(str(path)).edges() == edges


def test_parse_dimacs_self_loop_reports_line():
    with pytest.raises(ParseError, match="line 2: self-loop"):
        parse_dimacs("p edge 2 1\ne 1 1\n")


def test_parse_dimacs_errors():
    with pytest.raises(ParseError, match="line 2: vertex out of range"):
        parse_dimacs("p edge 2 1\ne 1 5\n")
    with pytest.raises(ParseError, match="line 1: malformed problem"):
        parse_dimacs("p edge two 1\n")
    with pytest.raises(ParseError, match="edge before problem"):
        parse_dimacs("e 1 2\n")
    with pytest.raises(ParseError, match="missing problem"):
        parse_dimacs("c nothing here\n")
    with pytest.raises(ParseError, match="unrecognized"):
        parse_dimacs("p edge 2 1\nq 1 2\n")


def test_parse_edge_list():
    g = parse_edge_list("# a comment\n1 2\n\n2 5\n")
    assert g.n == 5
    assert g.edges() == [(1, 2), (2, 5)]
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("1 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("1 2\n1 2 3\n")


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(2, 2)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(1, 3)])


# --- simpliciality and elimination orders -----------------------------------------

def test_simplicial_examples():
    k4 = complete_graph(4)
    assert all(simplicial(k4, v) for v in k4.vertices)
    p3 = path(3)
    assert not simplicial(p3, 2)
    assert simplicial(p3, 1) and simplicial(p3, 3)
    c4 = cycle(4)
    assert not any(simplicial(c4, v) for v in c4.vertices)


def test_simplicial_matches_pairwise_adjacency_definition():
    import random

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        for v in g.vertices:
            assert simplicial(g, v) == is_simplicial(g, v)


def test_peo_examples():
    assert perfect_elimination_order(cycle(4)) is None
    tri = perfect_elimination_order(complete_graph(3))
    assert [len(r.clique) for r in tri] == [2, 1, 0]
    assert [r.vertex for r in tri] == [1, 2, 3]  # lowest index first


def test_peo_on_star_removes_lowest_simplicial_first():
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    peo = perfect_elimination_order(star)
    # once two leaves are gone the center (index 1) becomes simplicial and wins
    assert [r.vertex for r in peo] == [2, 3, 1, 4]
    assert [set(r.clique) for r in peo] == [{1}, {1}, {4}, set()]


def validate_peo(g, peo):
    """Each record's clique must be the residual neighborhood and a clique."""
    seen = set()
    assert sorted(r.vertex for r in peo) == list(g.vertices)
    for rec in peo:
        residual = set(g.vertices) - seen
        assert rec.clique == g.neighbors(rec.vertex) & residual - {rec.vertex}
        for a, b in itertools.combinations(sorted(rec.clique), 2):
            assert g.has_edge(a, b)
        seen.add(rec.vertex)


def has_long_induced_cycle(g):
    """Exhaustive: some vertex subset of size >= 4 induces a cycle."""
    for size in range(4, g.n + 1):
        for sub in itertools.combinations(g.vertices, size):
            degs = [len(g.neighbors(v) & set(sub)) for v in sub]
            if any(d != 2 for d in degs):
                continue
            # connected 2-regular induced subgraph = induced cycle
            todo, seen = [sub[0]], set()
            while todo:
                v = todo.pop()
                if v in seen:
                    continue
                seen.add(v)
                todo.extend(g.neighbors(v) & set(sub))
            if len(seen) == size:
                return True
    return False


def test_peo_exists_iff_chordal_exhaustive_small():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            peo = perfect_elimination_order(g)
            assert (peo is not None) == (not has_long_induced_cycle(g))
            if peo is not None:
                validate_peo(g, peo)


def test_peo_exists_iff_chordal_random_larger():
    import random

    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(6, 7)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = Graph(n, [e for e in pairs if rng.random() < rng.choice([0.2, 0.5, 0.8])])
        peo = perfect_elimination_order(g)
        assert (peo is not None) == (not has_long_induced_cycle(g))
        if peo is not None:
            validate_peo(g, peo)


def rescanning_peo(g):
    """Reference elimination order: each round rescans every remaining vertex
    in index order and removes the first simplicial one (quadratic)."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    records = []
    while adj:
        found = next((v for v in sorted(adj)
                      if all(b in adj[a] for a, b in itertools.combinations(adj[v], 2))), None)
        if found is None:
            return None
        records.append(EliminationRecord(found, frozenset(adj[found])))
        for w in adj.pop(found):
            adj[w].discard(found)
    return tuple(records)


def fan(n, hub):
    """The hub joined to every vertex of a path on the other n - 1 vertices."""
    rest = [v for v in range(1, n + 1) if v != hub]
    return Graph(n, [(hub, v) for v in rest] + list(zip(rest, rest[1:])))


def star(n, hub):
    return Graph(n, [(hub, v) for v in range(1, n + 1) if v != hub])


def test_peo_matches_rescanning_reference_on_random_graphs():
    import random

    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(6, 12)
        density = rng.choice([0.2, 0.5, 0.8])
        g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < density])
        peo = perfect_elimination_order(g)
        assert peo == rescanning_peo(g)
        outcomes.add(peo is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [2, 17, 90, 400])
def test_peo_matches_rescanning_reference_on_random_chordal(n):
    for c in range(2, 9):
        for seed in range(1, 4 if n < 400 else 2):
            g = random_chordal(n, c, seed)
            peo = perfect_elimination_order(g)
            assert peo is not None and peo == rescanning_peo(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
def test_peo_matches_rescanning_reference_on_families(n):
    graphs = [complete_graph(n), star(n, 1), star(n, (n + 1) // 2), star(n, n),
              fan(n, 1), fan(n, (n + 1) // 2), fan(n, n)]
    if n >= 4:
        graphs.append(Graph(n, cycle(n).edges() + [(1, 3)]))
        graphs.append(Graph(n, cycle(n).edges() + [(2, n)]))
    for g in graphs:
        assert perfect_elimination_order(g) == rescanning_peo(g)


# --- random chordal generator --------------------------------------------------------

def test_random_chordal_single_vertex():
    g = random_chordal(1, 3, seed=0)
    assert g.n == 1 and g.edges() == []


@pytest.mark.parametrize("seed", range(12))
def test_random_chordal_is_chordal(seed):
    g = random_chordal(9, 4, seed)
    peo = perfect_elimination_order(g)
    assert peo is not None
    validate_peo(g, peo)


@pytest.mark.parametrize("seed", range(6))
def test_random_chordal_kmax2_is_tree(seed):
    g = random_chordal(5, 2, seed)
    assert g.edge_count() == 4  # connected and acyclic on 5 vertices
    assert perfect_elimination_order(g) is not None
    reachable, todo = set(), [1]
    while todo:
        v = todo.pop()
        if v not in reachable:
            reachable.add(v)
            todo.extend(g.neighbors(v))
    assert reachable == set(g.vertices)


def test_random_chordal_deterministic_per_seed():
    assert random_chordal(8, 3, 5) == random_chordal(8, 3, 5)
    assert random_chordal(8, 3, 5) != random_chordal(8, 3, 6)


def test_random_chordal_pinned_outputs():
    """Benchmark inputs are built by this generator, so its output is fixed."""
    assert random_chordal(8, 3, 5).edges() == [
        (1, 2), (2, 3), (2, 5), (2, 7), (3, 4), (3, 6), (3, 7), (5, 8)]
    assert random_chordal(10, 4, 2).edges() == [
        (1, 2), (1, 6), (1, 7), (2, 3), (2, 6), (2, 7), (3, 4), (3, 5), (3, 8), (3, 9),
        (4, 5), (4, 8), (4, 9), (4, 10), (5, 8), (5, 9), (6, 7), (8, 10)]


# --- cliques -------------------------------------------------------------------

def first_clique_by_brute_force(g, size):
    for c in itertools.combinations(g.vertices, size):
        if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2)):
            return list(c)
    return None


def test_find_clique_is_the_lexicographically_first():
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(0, 10)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        for size in range(n + 2):
            assert find_clique(g, size) == first_clique_by_brute_force(g, size), (g.edges(), size)


def test_find_clique_examples():
    assert find_clique(complete_graph(5), 3) == [1, 2, 3]
    assert find_clique(complete_graph(5), 6) is None
    assert find_clique(cycle(5), 3) is None
    assert find_clique(cycle(5), 2) == [1, 2]
    assert find_clique(Graph(0), 0) == []
    # the triangle 2-5-6 comes before 3-4-5 in lexicographic order
    g = Graph(6, [(3, 4), (4, 5), (3, 5), (2, 5), (2, 6), (5, 6), (1, 4)])
    assert find_clique(g, 3) == [2, 5, 6]
    with pytest.raises(ValueError):
        find_clique(g, -1)
