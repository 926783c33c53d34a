"""The benchmark's workloads: seeded inputs, the CLI argv of each job, and the
check each job's output must pass.

A run executes a fixed number of cycles; a cycle is a list of jobs, each one
chromideal verb invocation.  The jobs follow from the seed and the number of
cycles alone, so each commit runs exactly the same jobs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from chromideal.certificates import (
    admissible_degrees,
    certificate_from_json_dict,
    verify_certificate,
)
from chromideal.fields import GF, QQ, kth_roots_of_unity
from chromideal.graphs import Graph, complete_graph, random_chordal
from chromideal.ideals import build_ideal, check_coloring, graph_from_json
from chromideal.poly import Polynomial, TermOrder, parse_poly, render


@dataclass
class Job:
    """One verb invocation and the check its JSON output must pass."""

    label: str
    argv: list[str]
    expect_rc: int
    check: Callable[[dict], bool]
    # A forged document that the program is known to accept (ROADMAP item
    # 4(a)); it still counts as failed when accepted.
    forged: bool = False


# Minimal certificate degrees of the complete-graph cells of the acceptance
# grid that the workloads run (tests/test_acceptance.py SMALL_GRID; K_4/GF(5)
# is criterion 2).  K_6/k=5/GF(3) is left out: its 4-5 s solve alone would be
# half of a cert-oddp cycle.
GRID = {
    (4, 3, 2): 1, (4, 3, 5): 4, (4, 3, 7): 4,
    (5, 4, 3): 5, (5, 4, 5): 5, (5, 4, 7): 5,
    (6, 5, 2): 6,
}


class Inputs:
    """Writes the graph and document files of one workload into a directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._count = 0

    def _path(self, suffix: str) -> Path:
        self._count += 1
        return self.workdir / f"in{self._count:04d}{suffix}"

    def graph(self, g: Graph) -> str:
        edges = g.edges()
        lines = [f"p edge {g.n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
        path = self._path(".col")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def document(self, doc: dict) -> str:
        path = self._path(".json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


def planted(n: int, k: int, rng: random.Random, density: float = 0.35) -> Graph:
    """K_{k+1} on vertices 1..k+1 plus a random `density` share of the other
    pairs, like the congruence-suite fixture of the acceptance tests.  The
    edge count is fixed so that the system size varies little with the seed."""
    clique = set(itertools.combinations(range(1, k + 2), 2))
    others = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in clique]
    return Graph(n, sorted(clique | set(rng.sample(others, round(density * len(others))))))


# --- checks ------------------------------------------------------------------
# Each takes the verb's parsed stdout and returns True when it is right.  They
# are computed from the input graph, not from the program's own answers.

def _same_graph(doc: dict, g: Graph) -> bool:
    return graph_from_json(doc["graph"]) == g


def check_certificate(doc: dict, g: Graph, k: int, p: int, expect_degree: int | None,
                      max_degree: int) -> bool:
    """Lifted certificate for g that verifies, with every smaller admissible
    degree recorded infeasible; for grid cells, at the grid's degree."""
    if doc.get("kind") != "certificate" or not _same_graph(doc, g):
        return False
    cert, _ = certificate_from_json_dict(doc)
    if cert.k != k or cert.field != GF(p) or cert.vertex_coeffs is None:
        return False
    degree = doc["degree"]
    if degree not in admissible_degrees(k, max_degree):
        return False
    if expect_degree is not None and degree != expect_degree:
        return False
    if doc["infeasible_degrees"] != [d for d in admissible_degrees(k, degree) if d < degree]:
        return False
    return verify_certificate(cert, build_ideal(g, k, GF(p)))


def check_exhausted(doc: dict, g: Graph, k: int, d_max: int) -> bool:
    return (doc.get("kind") == "certificate_search" and doc["certificate"] is None
            and _same_graph(doc, g) and doc["infeasible_degrees"] == admissible_degrees(k, d_max))


def earlier_cliques(g: Graph) -> list[int]:
    """|N(v) & {1..v-1}| per vertex; random_chordal glues each vertex onto a
    clique of earlier vertices, so 1..n is a reverse elimination order."""
    return [sum(1 for u in g.neighbors(v) if u < v) for v in g.vertices]


def coloring_count(g: Graph, k: int) -> int:
    count = 1
    for r in earlier_cliques(g):
        count *= max(k - r, 0)
    return count


def _coloring(doc: dict, g: Graph, k: int) -> bool:
    coloring = doc.get("coloring")
    if coloring is None or len(coloring) != g.n:
        return False
    return check_coloring(g, k, {int(v): c for v, c in coloring.items()})


def check_basis(doc: dict, g: Graph, k: int, field: dict) -> bool:
    return (doc.get("kind") == "groebner_basis" and doc["field"] == field
            and doc["infeasible"] is False and _same_graph(doc, g)
            and len(doc["basis"]) == g.n and doc["dimension"] == coloring_count(g, k)
            and _coloring(doc, g, k))


def check_witness(doc: dict, g: Graph, k: int) -> bool:
    """Infeasible basis: witness vertex plus its clique is a clique of more
    than k vertices of g."""
    if doc.get("kind") != "groebner_basis" or doc["infeasible"] is not True:
        return False
    if doc["basis"] != ["1"] or not _same_graph(doc, g):
        return False
    members = [doc["witness"]["vertex"]] + doc["witness"]["clique"]
    return (len(set(members)) == len(members) > k
            and all(g.has_edge(u, v) for u, v in itertools.combinations(members, 2)))


def check_count(doc: dict, g: Graph, k: int) -> bool:
    return doc.get("kind") == "count" and doc["colorings"] == coloring_count(g, k)


def check_color(doc: dict, g: Graph, k: int) -> bool:
    if doc.get("kind") != "coloring":
        return False
    if coloring_count(g, k) == 0:
        return doc["coloring"] is None
    return _coloring(doc, g, k)


def check_verdict(doc: dict, valid: bool) -> bool:
    return doc.get("kind") == "verification" and doc["valid"] is valid


# --- job builders ------------------------------------------------------------

def cert_job(inputs: Inputs, g: Graph, k: int, p: int, label: str,
             expect_degree: int | None = None, d_max: int | None = None) -> Job:
    argv = ["cert", inputs.graph(g), "--k", str(k), "--p", str(p), "--lift"]
    if d_max is not None:
        argv += ["--d-max", str(d_max)]
        return Job(label, argv, 1, partial(check_exhausted, g=g, k=k, d_max=d_max))
    check = partial(check_certificate, g=g, k=k, p=p, expect_degree=expect_degree,
                    max_degree=3 * k + 1)
    return Job(label, argv, 0, check)


def grid_job(inputs: Inputs, n: int, k: int, p: int) -> Job:
    return cert_job(inputs, complete_graph(n), k, p, f"cert K{n}/k{k}/GF{p}",
                    expect_degree=GRID[(n, k, p)])


def planted_job(inputs: Inputs, rng: random.Random, n: int, k: int, p: int) -> Job:
    return cert_job(inputs, planted(n, k, rng), k, p, f"cert planted n{n}/k{k}/GF{p}")


def field_arg(p: int | None) -> list[str]:
    return [] if p is None else ["--p", str(p)]


def field_json(p: int | None) -> dict:
    return {"kind": "rational"} if p is None else {"kind": "prime", "p": p}


def gb_job(g: Graph, path: str, k: int, p: int | None, label: str) -> Job:
    argv = ["gb", path, "--k", str(k)] + field_arg(p)
    if coloring_count(g, k) == 0:
        return Job(label, argv, 1, partial(check_witness, g=g, k=k))
    return Job(label, argv, 0, partial(check_basis, g=g, k=k, field=field_json(p)))


def count_job(g: Graph, path: str, k: int, label: str) -> Job:
    return Job(label, ["count", path, "--k", str(k)], 0, partial(check_count, g=g, k=k))


def color_job(g: Graph, path: str, k: int, label: str) -> Job:
    rc = 0 if coloring_count(g, k) else 1
    return Job(label, ["color", path, "--k", str(k)], rc, partial(check_color, g=g, k=k))


def verify_job(inputs: Inputs, doc: dict, valid: bool, label: str, forged: bool = False) -> Job:
    argv = ["verify-gb", inputs.document(doc)]
    return Job(label, argv, 0 if valid else 1, partial(check_verdict, valid=valid), forged)


# --- documents for verify-gb -------------------------------------------------

def gb_document(run_cli, inputs: Inputs, g: Graph, k: int, p: int | None) -> dict:
    """A genuine basis document, produced by the program's own gb verb."""
    rc, out = run_cli(["gb", inputs.graph(g), "--k", str(k)] + field_arg(p))
    if rc != 0:
        raise RuntimeError(f"gb failed with exit {rc} while building inputs")
    return json.loads(out)


def tampered(doc: dict, rng: random.Random) -> dict:
    """The document with one coefficient of one basis polynomial changed."""
    field = GF(doc["field"]["p"]) if doc["field"]["kind"] == "prime" else QQ
    order = TermOrder(doc["order"]["kind"], {int(v): r for v, r in doc["order"]["ranks"].items()})
    i = rng.randrange(len(doc["basis"]))
    poly = parse_poly(doc["basis"][i], field)
    mono = rng.choice(sorted(poly.terms, key=order.sort_key))
    terms = dict(poly.terms)
    terms[mono] = field.add(terms[mono], field.one)
    if field.is_zero(terms[mono]):
        terms[mono] = field.add(terms[mono], field.one)
    out = json.loads(json.dumps(doc))
    out["basis"][i] = render(Polynomial(field, terms), order)
    return out


def forged_infeasible(g: Graph, k: int, p: int | None) -> dict:
    """ROADMAP 4(a): claims the trivial basis {1} for a k-colorable graph."""
    return {
        "version": 1, "kind": "groebner_basis", "field": field_json(p), "k": k,
        "graph": {"n": g.n, "edges": [[u, v] for u, v in g.edges()]},
        "chordal": True, "infeasible": True, "basis": ["1"], "order": None,
        "elimination": None, "dimension": 0, "coloring": None, "witness": None,
    }


def forged_point(g: Graph, k: int, p: int) -> dict:
    """ROADMAP 4(a): a basis x_v - r_v describing one proper coloring by k-th
    roots of unity mod p, which is not the ideal of all colorings."""
    roots = kth_roots_of_unity(p, k)
    colors: dict[int, int] = {}
    for v in g.vertices:
        used = {colors[u] for u in g.neighbors(v) if u < v}
        colors[v] = next(c for c in range(k) if c not in used)
    return {
        "version": 1, "kind": "groebner_basis", "field": field_json(p), "k": k,
        "graph": {"n": g.n, "edges": [[u, v] for u, v in g.edges()]},
        "chordal": True, "infeasible": False,
        "basis": [f"x{v} + {(-roots[colors[v]]) % p}" for v in g.vertices],
        "order": {"kind": "lex", "ranks": {str(v): v for v in g.vertices}},
        "elimination": None, "dimension": 1, "coloring": None, "witness": None,
    }


# --- workloads ---------------------------------------------------------------
# Each builder takes (run_cli, inputs, seed, cycles) and returns the cycles.

def cert_oddp(run_cli, inputs: Inputs, seed: int, cycles: int) -> list[list[Job]]:
    """Clique cells of the acceptance grid over odd p, the exhausted
    K_6/k=5/GF(7) search, and planted graphs (fresh ones every cycle)."""
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        jobs = [grid_job(inputs, n, k, p) for (n, k, p) in GRID if p != 2]
        jobs.append(cert_job(inputs, complete_graph(6), 5, 7, "cert K6/k5/GF7 d-max 6", d_max=6))
        for n, p in [(7, 5), (9, 7), (9, 5), (9, 7)]:
            jobs.append(planted_job(inputs, rng, n, 3, p))
        # Run order statistics sit inside clusters of similar jobs, not on
        # the edge between two job kinds: with four cycles the 4 exhausted
        # searches are followed by 12 planted n=7 jobs (0.6-0.9 s), so the
        # eleventh-largest job is one of these, and the median falls among
        # the n=6 k=4 and n=9 k=3 jobs (all about 0.3 s).
        for n, p in [(6, 3), (6, 5), (6, 7), (6, 5), (7, 3), (7, 5), (7, 7)]:
            jobs.append(planted_job(inputs, rng, n, 4, p))
        out.append(jobs)
    return out


def cert_gf2(run_cli, inputs: Inputs, seed: int, cycles: int) -> list[list[Job]]:
    """The same job shape over GF(2): grid cliques, a planted k=5 graph, and
    planted k=3 graphs large enough that assembly dominates (fresh planted
    graphs every cycle)."""
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        # K_6 twice: with six cycles the six planted k=5 jobs (about 2 s)
        # are followed by twelve K_6 jobs, so the eleventh-largest job is one
        # of these rather than the edge between two job kinds.
        jobs = [grid_job(inputs, 4, 3, 2), grid_job(inputs, 6, 5, 2), grid_job(inputs, 6, 5, 2),
                planted_job(inputs, rng, 7, 5, 2)]
        # Assembly time doubles with each vertex; six graphs with n=17 put the
        # median job inside a cluster of similar times.
        jobs += [planted_job(inputs, rng, n, 3, 2)
                 for n in (14, 15, 16, 17, 17, 17, 17, 17, 17, 18, 19)]
        out.append(jobs)
    return out


def chordal_large(run_cli, inputs: Inputs, seed: int, cycles: int) -> list[list[Job]]:
    """gb, count and color on large random chordal graphs; k below the clique
    number takes the infeasible-witness path.  Cycles share their graphs,
    whose sizes already average over many vertices."""
    sizes = [(500, 5), (500, 5), (200, 8), (200, 8), (1200, 5), (1200, 5), (1200, 8), (1200, 8)]
    graphs = []
    for i, (n, c) in enumerate(sizes):
        g = random_chordal(n, c, seed * len(sizes) + i)
        graphs.append((g, inputs.graph(g)))
    jobs = [
        gb_job(*graphs[0], 5, None, "gb n500/c5/k5/QQ"),
        gb_job(*graphs[1], 5, 7, "gb n500/c5/k5/GF7"),
        gb_job(*graphs[2], 8, None, "gb n200/c8/k8/QQ"),
        gb_job(*graphs[3], 8, 11, "gb n200/c8/k8/GF11"),
        gb_job(*graphs[6], 4, None, "gb n1200/c8/k4 infeasible"),
        gb_job(*graphs[4], 3, 7, "gb n1200/c5/k3/GF7 infeasible"),
        count_job(*graphs[4], 5, "count n1200/c5/k5"),
        count_job(*graphs[5], 6, "count n1200/c5/k6"),
        count_job(*graphs[6], 8, "count n1200/c8/k8"),
        count_job(*graphs[7], 4, "count n1200/c8/k4 zero"),
        color_job(*graphs[4], 5, "color n1200/c5/k5"),
        color_job(*graphs[5], 6, "color n1200/c5/k6"),
        color_job(*graphs[7], 8, "color n1200/c8/k8"),
        color_job(*graphs[5], 3, "color n1200/c5/k3 none"),
    ]
    return [jobs] * cycles


def verify_gb(run_cli, inputs: Inputs, seed: int, cycles: int) -> list[list[Job]]:
    """verify-gb on genuine, tampered and forged basis documents (fresh ones
    every cycle).  2 of the 10 jobs per cycle are the forged kinds of ROADMAP
    item 4(a)."""
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        jobs = []
        genuine = []
        # k=3 throughout; several documents with n=20 put the median job
        # inside a cluster of similar times, and two with n=30 per cycle put
        # the eleventh-largest job inside the cluster of n=30 jobs.
        for n, p in [(12, None), (20, 7), (20, None), (20, 5), (30, None), (30, 7)]:
            g = random_chordal(n, 3, rng.randrange(10**9))
            doc = gb_document(run_cli, inputs, g, 3, p)
            genuine.append(doc)
            jobs.append(verify_job(inputs, doc, True, f"verify-gb n{n}"))
        for doc in (genuine[1], genuine[2]):
            jobs.append(verify_job(inputs, tampered(doc, rng), False,
                                   f"verify-gb tampered n{doc['graph']['n']}"))
        g = random_chordal(rng.randint(3, 8), 3, rng.randrange(10**9))
        jobs.append(verify_job(inputs, forged_infeasible(g, 3, None), False,
                               "verify-gb forged {1}", forged=True))
        g = random_chordal(rng.randint(3, 8), 3, rng.randrange(10**9))
        jobs.append(verify_job(inputs, forged_point(g, 3, 7), False,
                               "verify-gb forged point", forged=True))
        out.append(jobs)
    return out


WORKLOADS = {
    "cert-oddp": cert_oddp,
    "cert-gf2": cert_gf2,
    "chordal-large": chordal_large,
    "verify-gb": verify_gb,
}
