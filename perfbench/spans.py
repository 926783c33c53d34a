"""Layer spans recorded from outside the chromideal package.

The tracer replaces the module-level names that each caller looks up at call
time (for example chromideal.certificates.assemble_system, which
search_certificate resolves in its own module) with timing wrappers, so the
package source is not edited.  A span is (name, start, end, parent, job id,
counts); the layer is the part of the name before the dot.  Spans exist only
while a job runs, so the benchmark's own output checks, which call the same
functions, leave none.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("graphs", "chordal", "ideals", "poly", "oracle", "certificates", "linalg", "cli")


def _sparse(args, result):
    return {"nnz_in": sum(len(col) for col in args[0])}


def _gf2(args, result):
    words = (len(args[1]) + 1 + 63) // 64 or 1  # bit-packed columns plus the rhs
    return {"bytes": max(args[0], 1) * words * 8}


def _assemble(args, result):
    return {"cols": result.n_cols, "rows": len(result.row_monomials),
            "nnz": sum(len(rows) for rows in result.col_rows)}


def _solve(args, result):
    return {"odd": int(args[0].field.p != 2), "infeasible": int(result is None)}


def _peo(args, result):
    return {"vertices": args[0].n}


def _basis(args, result):
    if result is None or result.infeasible:
        return {"terms": 0}
    return {"terms": sum(len(p.terms) for p in result.basis.polys)}


def _render(args, result):
    return {"terms": len(args[0].terms)}


_JSON = ("graph_to_json", "graph_from_json", "field_to_json", "field_from_json")

# (module, attribute, span name, counter)
TARGETS = [
    ("cli", "main", "cli.main", None),
    *[("cli", f"cmd_{verb}", "cli.verb", None)
      for verb in ("check_chordal", "gb", "count", "color", "cert", "verify_cert",
                   "verify_gb", "oracle_count")],
    ("cli", "_emit", "cli.json", None),
    ("cli", "basis_result_to_json", "cli.json", None),
    ("cli", "load_graph", "graphs.load", None),
    ("cli", "perfect_elimination_order", "graphs.peo", _peo),
    ("cli", "build_groebner_basis", "chordal.basis", _basis),
    ("cli", "count_colorings_chordal", "chordal.count", None),
    ("cli", "extract_coloring", "chordal.color", None),
    ("cli", "quotient_dimension", "chordal.dimension", None),
    ("cli", "search_certificate", "certificates.search", None),
    ("cli", "lift_certificate", "certificates.lift", None),
    ("cli", "certificate_to_json_dict", "certificates.json", None),
    ("cli", "certificate_from_json_dict", "certificates.json", None),
    ("cli", "verify_certificate", "certificates.verify", None),
    ("cli", "build_ideal", "ideals.build", None),
    *[("cli", name, "ideals.json", None) for name in _JSON],
    ("cli", "buchberger_criterion", "oracle.spair", None),
    ("cli", "brute_force_colorings", "oracle.brute_force", None),
    ("cli", "normal_form", "poly.normal_form", None),
    ("cli", "parse_poly", "poly.parse", None),
    ("cli", "render", "poly.render", _render),
    ("chordal", "perfect_elimination_order", "graphs.peo", _peo),
    ("certificates", "assemble_system", "certificates.assemble", _assemble),
    ("certificates", "solve_system", "certificates.solve", _solve),
    ("certificates", "render", "poly.render", _render),
    ("certificates", "parse_poly", "poly.parse", None),
    *[("certificates", name, "ideals.json", None) for name in _JSON],
    ("oracle", "normal_form", "poly.normal_form", None),
    ("oracle", "s_polynomial", "poly.s_polynomial", None),
    ("linalg", "solve_sparse", "linalg.sparse", _sparse),
    ("linalg", "solve_gf2", "linalg.gf2", _gf2),
]


class Tracer:
    """Installs the span wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self.job_wall: dict[int, float] = {}
        # Targets the package no longer has, and counters that failed on a
        # changed signature: reported, so that a refactor cannot hide work.
        self.missing: list[str] = []
        self.counter_errors = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(f"chromideal.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"chromideal.{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, name, counter):
        tracer = self

        def span(*args, **kwargs):
            if tracer.job is None:
                return original(*args, **kwargs)
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.job, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    record[5] = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    tracer.counter_errors += 1
            return result

        return span

    def write_jsonl(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "job": job, "counts": counts}) + "\n")


# (name, unit, better) of every per-layer metric, in report order.  Times and
# counts are per workload cycle; self time is span time minus the time of
# wrapped child spans.
PER_LAYER = [
    ("linalg.sparse_s", "s/cycle", "lower"),
    ("linalg.sparse_calls", "count/cycle", "lower"),
    ("linalg.sparse_nnz_in", "count/cycle", "lower"),
    ("linalg.sparse_calls_per_solve", "calls/solve", "lower"),
    ("linalg.gf2_s", "s/cycle", "lower"),
    ("linalg.gf2_calls", "count/cycle", "lower"),
    ("linalg.gf2_bytes_computed", "bytes/cycle", "lower"),
    ("certificates.assemble_s", "s/cycle", "lower"),
    ("certificates.systems", "count/cycle", "lower"),
    ("certificates.cols", "count/cycle", "lower"),
    ("certificates.rows", "count/cycle", "lower"),
    ("certificates.nnz", "count/cycle", "lower"),
    ("certificates.degrees_infeasible", "count/cycle", "lower"),
    ("certificates.solve_s", "s/cycle", "lower"),
    ("certificates.lift_s", "s/cycle", "lower"),
    ("certificates.verify_s", "s/cycle", "lower"),
    ("certificates.json_s", "s/cycle", "lower"),
    ("graphs.load_s", "s/cycle", "lower"),
    ("graphs.peo_s", "s/cycle", "lower"),
    ("graphs.peo_us_per_vertex", "us/vertex", "lower"),
    ("chordal.basis_s", "s/cycle", "lower"),
    ("chordal.basis_terms", "count/cycle", "lower"),
    ("chordal.count_s", "s/cycle", "lower"),
    ("chordal.color_s", "s/cycle", "lower"),
    ("poly.render_s", "s/cycle", "lower"),
    ("poly.render_terms", "count/cycle", "lower"),
    ("cli.json_s", "s/cycle", "lower"),
    ("oracle.spair_s", "s/cycle", "lower"),
    ("oracle.spair_pairs", "count/cycle", "lower"),
    ("poly.normal_form_s", "s/cycle", "lower"),
    ("poly.normal_form_calls", "count/cycle", "lower"),
    ("ideals.build_s", "s/cycle", "lower"),
    *[(f"{layer}.self_s", "s/cycle", "lower") for layer in LAYERS],
    ("trace.residual_s", "s/cycle", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def layer_metrics(tracer: Tracer, cycles: int, overhead_frac: float) -> dict:
    """Per-layer metrics from the recorded spans of `cycles` whole cycles."""
    child_time = defaultdict(float)
    for name, start, end, parent, job, counts in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    counts_by = defaultdict(Counter)
    for i, (name, start, end, parent, job, counts) in enumerate(tracer.spans):
        self_s[name] += end - start - child_time[i]
        calls[name] += 1
        if counts:
            counts_by[name].update(counts)
    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value
    solves_odd = counts_by["certificates.solve"]["odd"]
    peo_vertices = counts_by["graphs.peo"]["vertices"]
    total = {
        "linalg.sparse_s": self_s["linalg.sparse"],
        "linalg.sparse_calls": calls["linalg.sparse"],
        "linalg.sparse_nnz_in": counts_by["linalg.sparse"]["nnz_in"],
        "linalg.gf2_s": self_s["linalg.gf2"],
        "linalg.gf2_calls": calls["linalg.gf2"],
        "linalg.gf2_bytes_computed": counts_by["linalg.gf2"]["bytes"],
        "certificates.assemble_s": self_s["certificates.assemble"],
        "certificates.systems": calls["certificates.assemble"],
        "certificates.cols": counts_by["certificates.assemble"]["cols"],
        "certificates.rows": counts_by["certificates.assemble"]["rows"],
        "certificates.nnz": counts_by["certificates.assemble"]["nnz"],
        "certificates.degrees_infeasible": counts_by["certificates.solve"]["infeasible"],
        "certificates.solve_s": self_s["certificates.solve"],
        "certificates.lift_s": self_s["certificates.lift"],
        "certificates.verify_s": self_s["certificates.verify"],
        "certificates.json_s": self_s["certificates.json"],
        "graphs.load_s": self_s["graphs.load"],
        "graphs.peo_s": self_s["graphs.peo"],
        "chordal.basis_s": self_s["chordal.basis"],
        "chordal.basis_terms": counts_by["chordal.basis"]["terms"],
        "chordal.count_s": self_s["chordal.count"],
        "chordal.color_s": self_s["chordal.color"],
        "poly.render_s": self_s["poly.render"],
        "poly.render_terms": counts_by["poly.render"]["terms"],
        "cli.json_s": self_s["cli.json"],
        "oracle.spair_s": self_s["oracle.spair"],
        "oracle.spair_pairs": calls["poly.s_polynomial"],
        "poly.normal_form_s": self_s["poly.normal_form"],
        "poly.normal_form_calls": calls["poly.normal_form"],
        "ideals.build_s": self_s["ideals.build"],
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.residual_s": math.fsum(tracer.job_wall.values()) - math.fsum(self_s.values()),
    }
    values = {name: value / cycles for name, value in total.items()}
    values["linalg.sparse_calls_per_solve"] = (calls["linalg.sparse"] / solves_odd
                                               if solves_odd else 0.0)
    values["graphs.peo_us_per_vertex"] = (1e6 * self_s["graphs.peo"] / peo_vertices
                                          if peo_vertices else 0.0)
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
