#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs one tiny cycle holding every job kind of the four workloads, untraced
and traced, and checks that every metric named in BENCHMARK.json is reported,
that only the forged document fails, that the tracer restores what it
wrapped, and that tampered cert and gb documents raise failed_frac.  Exits 0
when every check passes.
"""

import json
import random
import shutil
import sys
from contextlib import contextmanager

import run


def tiny_cycle(harness, workloads, inputs):
    from chromideal.graphs import complete_graph, random_chordal

    rng = random.Random(0)
    g = random_chordal(40, 4, 1)
    path = inputs.graph(g)
    small = random_chordal(10, 3, 2)
    doc = workloads.gb_document(harness.run_cli, inputs, small, 3, None)
    return [
        workloads.grid_job(inputs, 4, 3, 5),
        workloads.grid_job(inputs, 4, 3, 2),
        workloads.cert_job(inputs, complete_graph(4), 3, 5, "cert exhausted", d_max=1),
        workloads.planted_job(inputs, rng, 6, 3, 7),
        workloads.gb_job(g, path, 4, None, "gb QQ"),
        workloads.gb_job(g, path, 4, 7, "gb GF7"),
        workloads.gb_job(g, path, 2, None, "gb infeasible"),
        workloads.count_job(g, path, 4, "count"),
        workloads.color_job(g, path, 4, "color"),
        workloads.color_job(g, path, 2, "color none"),
        workloads.verify_job(inputs, doc, True, "verify-gb genuine"),
        workloads.verify_job(inputs, workloads.tampered(doc, rng), False, "verify-gb tampered"),
        workloads.verify_job(inputs, workloads.forged_point(small, 3, 7), False,
                             "verify-gb forged", forged=True),
    ]


@contextmanager
def replaced(module, attr, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def tampering(original):
    """run_cli whose cert and gb documents come back altered: one edge
    coefficient replaced, or the dimension off by one."""
    def run_cli(argv):
        rc, out = original(argv)
        doc = json.loads(out)
        if doc.get("kind") == "certificate":
            key = sorted(doc["edge_coefficients"])[0]
            doc["edge_coefficients"][key] = "x1"
        elif doc.get("kind") == "groebner_basis" and doc.get("dimension"):
            doc["dimension"] += 1
        return rc, json.dumps(doc)
    return run_cli


def main() -> int:
    run.bootstrap()
    import chromideal.linalg
    import harness
    import spans
    import workloads

    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(w["name"] for w in bench["workloads"])
    expect(names == sorted(run.NOMINAL_CYCLE_S) == sorted(workloads.WORKLOADS),
           f"workload names disagree: {names}")
    expect(bench["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in spans.PER_LAYER],
           "BENCHMARK.json per_layer differs from spans.PER_LAYER")
    predictions = json.loads((run.ROOT / "perfbench" / "predictions.json").read_text(encoding="utf-8"))
    for p in predictions["predictions"]:
        expect(set(p["per_layer"]) <= {m["name"] for m in bench["per_layer"]}
               and set(p["moves"]) <= set(names), f"prediction names unknown metrics: {p}")

    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cycle = tiny_cycle(harness, workloads, workloads.Inputs(workdir))
        results = harness.measure([cycle])
        e2e = harness.end_to_end(results, 0.1)
        for m in bench["end_to_end"]:
            expect(m["name"] in e2e and e2e[m["name"]]["unit"] == m["unit"],
                   f"end-to-end metric {m['name']} missing")
        failed = [r.label for r in results if not r.ok]
        # ROADMAP 4(a): the forged document is accepted until verify-gb checks
        # the other inclusion; either way nothing else may fail.
        expect(set(failed) <= {"verify-gb forged"}, f"unexpected failures: {failed}")

        original = chromideal.linalg.solve_sparse
        with spans.Tracer() as tracer:
            harness.measure([cycle], tracer)
        expect(chromideal.linalg.solve_sparse is original, "tracer left a wrapper installed")
        expect(not tracer.missing and not tracer.counter_errors,
               f"trace incomplete: {tracer.missing}, {tracer.counter_errors} counter errors")
        layers = spans.layer_metrics(tracer, 1, 0.0)
        for m in bench["per_layer"]:
            expect(m["name"] in layers, f"per-layer metric {m['name']} missing")
        for name in ("linalg.sparse_calls", "linalg.gf2_calls", "certificates.systems",
                     "certificates.degrees_infeasible", "graphs.peo_s", "chordal.basis_terms",
                     "poly.render_terms", "oracle.spair_pairs", "poly.normal_form_calls",
                     "ideals.build_s", "cli.self_s"):
            expect(layers[name]["value"] > 0, f"per-layer metric {name} is not positive")
        expect(all(span[4] is not None for span in tracer.spans), "span outside a job")

        for verb in ("cert", "gb"):
            jobs = [job for job in cycle if job.argv[0] == verb]
            with replaced(harness, "run_cli", tampering):
                tampered = harness.end_to_end(harness.measure([jobs]), 0.1)
            expect(tampered["failed_frac"]["value"] > 0, f"tampered {verb} documents were not caught")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in problems:
        print(f"FAIL: {message}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
