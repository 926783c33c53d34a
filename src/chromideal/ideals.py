"""Coloring ideals: vertex generators x_i^k - 1, edge generators
sum_{l<k} x_i^l x_j^{k-1-l}, the exponent-mod-k quotient reduction, and
direct proper-coloring checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graphs import Graph
from .poly import MONOMIAL_ONE, Monomial, Polynomial


class CharacteristicDividesK(ValueError):
    """The field characteristic divides the color count, so x^k - 1 is not
    square-free and the root-of-unity encoding breaks down."""


def _check_characteristic(field, k: int):
    if field.char != 0 and k % field.char == 0:
        raise CharacteristicDividesK(
            f"characteristic {field.char} divides k={k}; pick a coprime field"
        )


def mk_vertex_poly(i: int, k: int, field) -> Polynomial:
    """x_i^k - 1, whose roots are the k-th roots of unity."""
    if k < 1:
        raise ValueError("k must be positive")
    return Polynomial(field, {Monomial({i: k}): field.one, MONOMIAL_ONE: field.neg(field.one)})


def mk_edge_poly(i: int, j: int, k: int, field) -> Polynomial:
    """sum_{l=0}^{k-1} x_i^l x_j^{k-1-l}; times (x_i - x_j) it telescopes to
    x_i^k - x_j^k, so it vanishes exactly on pairs of distinct k-th roots."""
    if i == j:
        raise ValueError(f"self-loop at vertex {i}")
    if k < 2:
        raise ValueError("edge polynomials need k >= 2")
    terms = {Monomial({i: l, j: k - 1 - l}): field.one for l in range(k)}
    return Polynomial(field, terms)


@dataclass(frozen=True)
class ColoringIdeal:
    graph: Graph
    k: int
    field: object
    vertex_polys: tuple[Polynomial, ...]
    edge_polys: dict[tuple[int, int], Polynomial]

    def generators(self) -> list[Polynomial]:
        return list(self.vertex_polys) + [self.edge_polys[e] for e in sorted(self.edge_polys)]


def build_ideal(g: Graph, k: int, field) -> ColoringIdeal:
    """All vertex and edge generators of the k-coloring ideal of g."""
    _check_characteristic(field, k)
    vertex_polys = tuple(mk_vertex_poly(v, k, field) for v in g.vertices)
    edge_polys = {(u, v): mk_edge_poly(u, v, k, field) for u, v in g.edges()}
    return ColoringIdeal(g, k, field, vertex_polys, edge_polys)


def quotient_reduce(f: Polynomial, k: int) -> Polynomial:
    """Reduce every exponent mod k (the image modulo all x_i^k - 1)."""
    if k < 1:
        raise ValueError("k must be positive")
    return Polynomial(f.field, ((Monomial({v: e % k for v, e in m.exps}), c)
                                for m, c in f.terms.items()))


def check_coloring(g: Graph, k: int, coloring: Mapping[int, int]) -> bool:
    """True iff the total map V -> {0..k-1} gives no edge equal endpoint colors."""
    for v in g.vertices:
        if v not in coloring:
            raise ValueError(f"vertex {v} is not colored")
        c = coloring[v]
        if not (0 <= c < k):
            raise ValueError(f"color {c} out of range 0..{k - 1}")
    return all(coloring[u] != coloring[v] for u, v in g.edges())


# The "version" of every JSON document the package writes.
JSON_VERSION = 1


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json(d: dict) -> Graph:
    return Graph(int(d["n"]), [(int(u), int(v)) for u, v in d["edges"]])


def field_to_json(field) -> dict:
    if field.char == 0:
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.char}


def field_from_json(d: dict):
    from .fields import QQ, PrimeField

    if d["kind"] == "rational":
        return QQ
    if d["kind"] == "prime":
        return PrimeField(int(d["p"]))
    raise ValueError(f"unknown field kind {d['kind']!r}")
