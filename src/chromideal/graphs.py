"""Undirected simple graphs: DIMACS/edge-list ingestion, simplicial vertices,
perfect elimination orders, and a seeded chordal-graph generator."""

from __future__ import annotations

import heapq
import random
from typing import Iterable, NamedTuple


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class NotChordalError(ValueError):
    """The operation requires a chordal graph."""


class Graph:
    """An undirected simple graph on vertices 1..n with frozen adjacency sets."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        for u, v in edges:
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.vertices for v in sorted(self._adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and other.n == self.n and other._adj == self._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def parse_dimacs(text: str) -> Graph:
    """DIMACS coloring format: 'c' comments, one 'p edge N M' line, 'e U V' edges."""
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(tok) != 4 or tok[1] not in ("edge", "edges"):
                raise ParseError(f"malformed problem line {line!r}", lineno)
            try:
                n = int(tok[2])
                int(tok[3])
            except ValueError:
                raise ParseError(f"malformed problem line {line!r}", lineno) from None
            if n < 0:
                raise ParseError("negative vertex count", lineno)
        elif tok[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(tok) != 3:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise ParseError(f"malformed edge line {line!r}", lineno) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ParseError(f"vertex out of range in edge ({u}, {v})", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            edges.append((u, v))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing problem line")
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Plain 'u v' lines ('#' comments allowed); vertex count is the max index."""
    edges = []
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if len(tok) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise ParseError(f"expected 'u v', got {line!r}", lineno) from None
        if u < 1 or v < 1:
            raise ParseError(f"vertex indices must be >= 1 in {line!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
        n = max(n, u, v)
    return Graph(n, edges)


def load_graph(path: str) -> Graph:
    """Read a graph file: DIMACS when its first line that is neither blank nor
    a '#' comment starts with 'c', 'p' or 'e', otherwise an edge list."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            if line[0] in "cpe":
                return parse_dimacs(text)
            break
    return parse_edge_list(text)


class EliminationRecord(NamedTuple):
    vertex: int
    clique: frozenset[int]


def _adj_is_simplicial(adj, v: int) -> bool:
    """True iff adj[v] is a clique; adj maps each vertex to its neighbor set."""
    # |N(v) & N(w)| >= d-1 for every neighbor w means N(v) is a clique
    nv = adj[v]
    d = len(nv)
    for w in nv:
        if len(nv & adj[w]) < d - 1:
            return False
    return True


def perfect_elimination_order(g: Graph) -> tuple[EliminationRecord, ...] | None:
    """Remove a simplicial vertex per round (lowest index wins ties), recording
    its residual neighborhood; returns None when some residual graph has no
    simplicial vertex, which happens exactly when g is not chordal.

    A min-heap holds exactly the simplicial vertices of the residual graph,
    so its minimum is the vertex a rescan of all remaining vertices would
    pick.  Deleting a vertex only shrinks neighborhoods, and a subset of a
    clique is a clique, so no queued vertex stops being simplicial; only the
    deleted vertex's neighbors can start, and only they are tested again
    (Rose, Tarjan and Lueker 1976).
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    heap = [v for v in adj if _adj_is_simplicial(adj, v)]  # ascending, so already a heap
    queued = set(heap)
    records: list[EliminationRecord] = []
    while heap:
        v = heapq.heappop(heap)
        nv = adj.pop(v)
        records.append(EliminationRecord(v, frozenset(nv)))
        for w in nv:
            adj[w].discard(v)
        for w in nv:
            if w not in queued and _adj_is_simplicial(adj, w):
                queued.add(w)
                heapq.heappush(heap, w)
    return tuple(records) if not adj else None


def find_clique(g: Graph, size: int) -> list[int] | None:
    """The lexicographically first clique of `size` vertices, as a sorted
    list, or None when g has none.

    Depth-first search over the cliques in lexicographic order: a clique
    grows only by a vertex after its last one, taken from its candidates
    (the later vertices adjacent to every member) in ascending order, and
    the candidates of the grown clique are the old ones intersected with
    the new vertex's later neighbors.  Candidates are int bitsets, and a
    branch is cut once fewer candidates remain than vertices are missing.
    """
    if size < 0:
        raise ValueError("clique size must be nonnegative")
    later = [sum(1 << w for w in g._adj[v] if w > v) for v in range(g.n + 1)]

    def extend(clique: list[int], cand: int) -> list[int] | None:
        need = size - len(clique)
        if need == 0:
            return clique
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            grown = cand & later[w]
            if grown.bit_count() >= need - 1:
                found = extend(clique + [w], grown)
                if found is not None:
                    return found
        return None

    return extend([], sum(1 << v for v in g.vertices))


def random_chordal(n: int, k_max_clique: int, seed: int) -> Graph:
    """Seeded chordal graph: each new vertex is glued onto an existing clique
    of size below k_max_clique, i.e. built along a reverse elimination order.

    k_max_clique=2 yields trees; k_max_clique=1 yields isolated vertices.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k_max_clique < 1:
        raise ValueError("k_max_clique must be positive")
    rng = random.Random(seed)
    adj: dict[int, set[int]] = {1: set()}
    edges: list[tuple[int, int]] = []
    for v in range(2, n + 1):
        limit = min(k_max_clique - 1, v - 1)
        clique: set[int] = set()
        if limit >= 1:
            size = rng.randint(1, limit)
            start = rng.randint(1, v - 1)
            clique = {start}
            while len(clique) < size:
                common = set.intersection(*(adj[u] for u in clique)) - clique
                if not common:
                    break
                clique.add(rng.choice(sorted(common)))
        adj[v] = set(clique)
        for u in clique:
            adj[u].add(v)
            edges.append((u, v))
    return Graph(n, edges)
