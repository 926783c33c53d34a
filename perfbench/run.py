#!/usr/bin/env python3
"""Benchmark of chromideal's command-line verbs, run in-process.

    python3 perfbench/run.py --workload cert-oddp --seed 1 --seconds 20 --trace 0

Sets up by importing chromideal in a fresh interpreter and building the
workload's inputs from the seed (three times; setup_s is the median), then
runs the jobs in a closed loop with one client through chromideal.cli.main,
checking every output.  A run executes whole cycles of the workload's jobs;
the number of cycles is --seconds divided by the workload's nominal cycle
time, so every commit runs the same jobs.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the cycles
untraced and half with layer spans, prints the per-layer metrics and writes
the spans as JSONL under .bench_out/.  --workload all runs every workload,
each in its own process.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

perfbench/selftest.py checks the benchmark itself at a tiny size.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Seconds of --seconds that one cycle of each workload counts for.  Fixed, so
# that later commits run the same number of cycles for the same --seconds
# (--seconds 20: 4, 6, 6 and 10 cycles); the workloads place their median and
# tail jobs for these counts.  On a 2-vCPU x86-64 VM (Python 3.11) a cycle of
# the commit that introduced the benchmark took 0.9-1.7 times as long.
NOMINAL_CYCLE_S = {
    "cert-oddp": 4.6,
    "cert-gf2": 3.2,
    "chordal-large": 3.3,
    "verify-gb": 2.0,
}
SETUP_REPEATS = 3


def bootstrap():
    """Import chromideal from the checkout's src/.  Exits when there is no
    source tree to benchmark."""
    package = SRC / "chromideal"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no chromideal source tree at {package}")
    sys.path.insert(0, str(SRC))
    import chromideal
    if Path(chromideal.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported chromideal from {chromideal.__file__}, not {package}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import chromideal and its CLI."""
    code = ("import time; t = time.perf_counter(); import chromideal.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    return float(proc.stdout)


def run_context(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "chromideal").rglob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bootstrap()
    import harness
    import spans
    import workloads

    n_cycles = max(1, round(seconds / NOMINAL_CYCLE_S[name]))
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            import_s = import_seconds()
            start = time.perf_counter()
            cycles = workloads.WORKLOADS[name](harness.run_cli, workloads.Inputs(workdir),
                                               seed, n_cycles)
            setup.append(import_s + time.perf_counter() - start)
        setup_s = statistics.median(setup)
        if trace:
            half = max(1, n_cycles // 2)
            plain = harness.measure(cycles[:half])
            with spans.Tracer() as tracer:
                traced = harness.measure(cycles[:half], tracer)
            overhead = 1.0 - harness.jobs_per_s(traced) / harness.jobs_per_s(plain)
            metrics = spans.layer_metrics(tracer, half, overhead)
            results = plain + traced
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_jsonl(spans_path)
        else:
            results = harness.measure(cycles)
            metrics = harness.end_to_end(results, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"context {json.dumps(run_context(seed), sort_keys=True)}")
    print(f"{name}: {len(results)} jobs in {len(cycles)} cycles of {len(cycles[0])}")
    for metric, m in metrics.items():
        count = f"  ({m['n']})" if "n" in m else ""
        print(f"{name:14} {metric:34} {m['value']:<14.6g} {m['unit']}{count}")
    if trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        if tracer.missing or tracer.counter_errors:
            print(f"trace incomplete: not wrapped {tracer.missing}, "
                  f"{tracer.counter_errors} counter errors")
    failed = [r for r in results if not r.ok]
    for r in failed[:10]:
        kind = "known defect, forged document" if r.forged else "FAILED"
        print(f"{kind}: {r.label}: {r.error}")
    metrics.pop("failed_frac", None)  # reported above; also attempted/failed below
    return {
        # Forged documents that the program accepts are counted in `failed`
        # (ROADMAP item 4(a)); any other failure makes the run incorrect.
        "correct": all(r.forged for r in failed),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NOMINAL_CYCLE_S:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NOMINAL_CYCLE_S, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
