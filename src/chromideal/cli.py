"""Batch command-line front end.

Verbs: check-chordal, gb, count, color, cert, verify-cert, verify-gb,
oracle-count.  Each verb prints exactly one JSON document on stdout; the
verifier verbs (verify-gb, verify-cert, oracle-count) check what the others
emit.  Exit codes: 0 success/true, 1 false or infeasible-as-answer, 2 usage
error, 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .certificates import (
    admissible_degrees,
    certificate_from_json_dict,
    certificate_search_to_json_dict,
    certificate_to_json_dict,
    lift_certificate,
    search_certificate,
    verify_certificate,
)
from .chordal import (
    basis_polynomial,
    build_groebner_basis,
    clique_element_text,
    count_along_order,
    count_colorings_chordal,
    elimination_term_order,
    extract_coloring,
    quotient_dimension,
)
from .fields import QQ, PrimeField
from .graphs import (
    EliminationRecord,
    NotChordalError,
    ParseError,
    load_graph,
    perfect_elimination_order,
)
from .ideals import (
    JSON_VERSION,
    _int_key,
    build_ideal,
    check_coloring,
    check_json_version,
    field_from_json,
    field_to_json,
    graph_from_json,
    graph_to_json,
    json_int,
)
from .linalg import FillBudgetExceeded
from .oracle import (
    OracleTooLarge,
    brute_force_colorings,
    buchberger_criterion,
)
from .poly import Divisors, TermOrder, normal_form, parse_poly, render

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3


class UsageError(Exception):
    pass


def _emit(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load(args):
    try:
        return load_graph(args.graph)
    except OSError as exc:
        raise UsageError(f"cannot read {args.graph}: {exc}") from exc
    except ParseError as exc:
        raise UsageError(f"{args.graph}: {exc}") from exc


def _field(args):
    if args.p == "rational":
        return QQ
    try:
        p = int(args.p)
    except ValueError:
        raise UsageError(f"--p must be a prime or 'rational', got {args.p!r}") from None
    return PrimeField(p)


def _colors(text: str) -> int:
    if not text.isdecimal() or int(text) < 2:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 2, got {text!r}")
    return int(text)


def _read_json_document(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc


def _record_to_json(rec: EliminationRecord) -> dict:
    return {"vertex": rec.vertex, "clique": sorted(rec.clique)}


# --- verbs -------------------------------------------------------------------
# Each cmd_<verb> returns (document, answer); main prints the document and
# exits 0 when the answer is true, 1 when it is false.

def cmd_check_chordal(args) -> tuple[dict, bool]:
    g = _load(args)
    peo = perfect_elimination_order(g)
    return {
        "version": JSON_VERSION,
        "kind": "chordality",
        "graph": graph_to_json(g),
        "chordal": peo is not None,
        "elimination": None if peo is None else [_record_to_json(r) for r in peo],
    }, peo is not None


# Every key of a groebner_basis document; gb writes all of them (null when
# they do not apply) and verify-gb requires all of them.
GB_KEYS = ("version", "kind", "field", "k", "graph", "chordal", "infeasible", "basis",
           "order", "elimination", "dimension", "coloring", "witness")


def basis_result_to_json(result, g, k, field) -> dict:
    payload = {
        **dict.fromkeys(GB_KEYS),
        "version": JSON_VERSION,
        "kind": "groebner_basis",
        "field": field_to_json(field),
        "k": k,
        "graph": graph_to_json(g),
        "chordal": result is not None,
    }
    if result is None:
        return payload
    if result.infeasible:
        payload.update(infeasible=True, basis=["1"], dimension=0,
                       witness=_record_to_json(result.witness))
        return payload
    basis = result.basis
    ranks = basis.order.ranks
    payload.update(
        infeasible=False,
        # x_v^k - 1 when the clique is empty: render owns signs and constants
        basis=[clique_element_text(rec, k, ranks) if rec.clique
               else render(basis_polynomial(rec, k, field), basis.order) for rec in basis.peo],
        order={"kind": basis.order.kind, "ranks": {str(v): r for v, r in sorted(ranks.items())}},
        elimination=[_record_to_json(r) for r in basis.peo],
        dimension=quotient_dimension(result, k),
        coloring={str(v): c for v, c in sorted(extract_coloring(basis.peo, k).items())},
    )
    return payload


def cmd_gb(args) -> tuple[dict, bool]:
    field = _field(args)
    g = _load(args)
    result = build_groebner_basis(g, args.k, field)
    return (basis_result_to_json(result, g, args.k, field),
            result is not None and not result.infeasible)


def cmd_count(args) -> tuple[dict, bool]:
    g = _load(args)
    try:
        n = count_colorings_chordal(g, args.k)
    except NotChordalError:
        n = None
    return {"version": JSON_VERSION, "kind": "count", "chordal": n is not None,
            "k": args.k, "colorings": n}, n is not None


def cmd_oracle_count(args) -> tuple[dict, bool]:
    g = _load(args)
    n = brute_force_colorings(g, args.k)
    return {"version": JSON_VERSION, "kind": "count", "method": "brute-force",
            "k": args.k, "colorings": n}, True


def cmd_color(args) -> tuple[dict, bool]:
    g = _load(args)
    peo = perfect_elimination_order(g)
    coloring = None if peo is None else extract_coloring(peo, args.k)
    return {
        "version": JSON_VERSION,
        "kind": "coloring",
        "k": args.k,
        "chordal": peo is not None,
        "coloring": None if coloring is None else {str(v): c for v, c in sorted(coloring.items())},
    }, coloring is not None


def cmd_cert(args) -> tuple[dict, bool]:
    field = _field(args)
    g = _load(args)
    cert = search_certificate(
        g, args.k, field, args.d_max, progress=lambda line: print(line, file=sys.stderr)
    )
    if cert is None:
        return certificate_search_to_json_dict(g, args.k, field, args.d_max), False
    if args.lift:
        cert = lift_certificate(cert, g)
    return certificate_to_json_dict(cert, g), True


def _verification(valid: bool) -> tuple[dict, bool]:
    return {"version": JSON_VERSION, "kind": "verification", "valid": valid}, valid


def _certificate_claim_holds(degree, lifted, cert) -> bool:
    """True iff the claimed `degree` and `lifted_degree` are the integers
    the coefficients have (`lifted_degree` null when unlifted) and
    `infeasible_degrees` are strictly increasing admissible degrees below
    `degree`."""
    infeasible = list(cert.infeasible_degrees)
    return (type(degree) is int and degree == cert.degree
            and type(lifted) is type(cert.lifted_degree) and lifted == cert.lifted_degree
            and all(type(d) is int for d in infeasible)
            and infeasible == sorted(set(infeasible))
            and set(infeasible) <= set(admissible_degrees(cert.k, cert.degree - 1)))


def cmd_verify_cert(args) -> tuple[dict, bool]:
    data = _read_json_document(args.document)
    try:
        cert, g = certificate_from_json_dict(data)
        degree, lifted = data["degree"], data["lifted_degree"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise UsageError(f"malformed certificate document: {exc}") from exc
    return _verification(verify_certificate(cert, build_ideal(g, cert.k, cert.field))
                         and _certificate_claim_holds(degree, lifted, cert))


def _witness_is_large_clique(witness, g, k: int) -> bool:
    """True iff the witness vertex and its clique are distinct in-range
    vertices forming a clique of more than k vertices in g."""
    try:
        members = [witness["vertex"], *witness["clique"]]
    except (TypeError, KeyError):
        return False
    if not all(type(v) is int and 1 <= v <= g.n for v in members):
        return False
    return (len(set(members)) == len(members) > k
            and all(g.has_edge(u, v) for u, v in itertools.combinations(members, 2)))


def _feasible_claim_holds(data: dict, g, k: int, field, polys, order) -> bool:
    """True iff `elimination` is a perfect elimination order of g whose
    cliques have fewer than k members, the order, basis and integer
    dimension are the ones it determines (the elimination term order, one
    construction polynomial per record, the product of the color choices),
    and `coloring` is a proper coloring of g."""
    try:
        vertices = [rec["vertex"] for rec in data["elimination"]]
        coloring = {_int_key(v): c for v, c in data["coloring"].items()}
        proper = len(coloring) == g.n and check_coloring(g, k, coloring)
    except (TypeError, KeyError, AttributeError, ValueError):
        return False
    if not all(type(v) is int for v in vertices) or sorted(vertices) != list(g.vertices):
        return False
    position = {v: i for i, v in enumerate(vertices)}
    peo = [EliminationRecord(v, frozenset(w for w in g.neighbors(v) if position[w] > position[v]))
           for v in vertices]
    return (proper
            and data["elimination"] == [_record_to_json(rec) for rec in peo]
            and all(len(rec.clique) < k for rec in peo)
            and all(g.has_edge(u, w) for rec in peo for u, w in itertools.combinations(rec.clique, 2))
            and order == elimination_term_order(peo)
            and polys == [basis_polynomial(rec, k, field) for rec in peo]
            and type(data["dimension"]) is int
            and data["dimension"] == count_along_order(peo, k))


def cmd_verify_gb(args) -> tuple[dict, bool]:
    data = _read_json_document(args.document)
    try:
        missing = [key for key in GB_KEYS if key not in data]
        if missing:
            raise KeyError(f"missing {', '.join(missing)}")
        if data["kind"] != "groebner_basis":
            raise ValueError("not a groebner_basis document")
        check_json_version(data)
        field = field_from_json(data["field"])
        k = json_int(data["k"])
        g = graph_from_json(data["graph"])
        if not data["chordal"]:
            raise ValueError("document carries no basis (graph was not chordal)")
        polys = [parse_poly(s, field) for s in data["basis"]]
        if data["infeasible"]:
            order = TermOrder.natural(g.vertices or (1,), "lex")
        else:
            ranks = {_int_key(v): json_int(r) for v, r in data["order"]["ranks"].items()}
            order = TermOrder(data["order"]["kind"], ranks)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise UsageError(f"malformed basis document: {exc}") from exc
    if data["infeasible"]:
        ok = (_witness_is_large_clique(data["witness"], g, k) and data["coloring"] is None
              and type(data["dimension"]) is int and data["dimension"] == 0)
    else:
        ok = _feasible_claim_holds(data, g, k, field, polys, order)
    if not ok:
        return _verification(False)
    divisors = Divisors(polys, order)
    return _verification(buchberger_criterion(divisors, order) and all(
        normal_form(gen, divisors, order)[1].is_zero
        for gen in build_ideal(g, k, field).generators()))


# --- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromideal",
        description="Exact algebra for graph k-coloring: chordal Groebner bases, "
                    "coloring counts, and non-colorability certificates over GF(p).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def graph_verb(name, help, needs_k=True, field_default=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("graph", help="graph file (DIMACS .col or 'u v' edge list)")
        if needs_k:
            p.add_argument("--k", type=_colors, required=True, help="number of colors (>= 2)")
        if field_default is not None:
            p.add_argument("--p", default=field_default,
                           help="prime field modulus, or 'rational'")
        return p

    graph_verb("check-chordal", "test chordality, print an elimination order", needs_k=False)
    graph_verb("gb", "Groebner basis of the coloring ideal (chordal graphs)",
               field_default="rational")
    graph_verb("count", "number of proper k-colorings (chordal graphs)")
    graph_verb("color", "extract one proper k-coloring (chordal graphs)")
    p = graph_verb("cert", "search a minimal-degree non-colorability certificate")
    p.add_argument("--p", required=True, help="prime field modulus")
    p.add_argument("--d-max", type=int, default=None,
                   help="degree search bound (default 3k+1)")
    p.add_argument("--lift", action="store_true",
                   help="also emit vertex coefficients for the full-ring identity")
    sub.add_parser("verify-cert", help="check a certificate JSON document").add_argument(
        "document", help="certificate JSON file, or - for stdin")
    sub.add_parser("verify-gb", help="check a Groebner-basis JSON document").add_argument(
        "document", help="basis JSON file, or - for stdin")
    graph_verb("oracle-count", "brute-force coloring count (any graph)")

    return parser


def main(argv=None) -> int:
    # exact counts and dimensions can exceed CPython's default 4300-digit
    # limit on int <-> str conversion, which json.dumps and json.load obey
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # looked up per call, so a wrapper set on a cmd_* after import runs
        document, answer = globals()["cmd_" + args.verb.replace("-", "_")](args)
        _emit(document)
        return EXIT_OK if answer else EXIT_NEGATIVE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OracleTooLarge, FillBudgetExceeded) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError:
        print("computation error: out of memory", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())
