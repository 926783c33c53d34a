"""Closed-loop measurement with one client: run each job through
chromideal.cli.main in-process, time it, check its output, and summarise.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass

import chromideal.cli


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One verb invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = chromideal.cli.main(argv)
    return rc, out.getvalue()


@dataclass
class Result:
    label: str
    seconds: float
    forged: bool
    error: str | None  # why the job failed; None when it passed

    @property
    def ok(self) -> bool:
        return self.error is None


def run_job(job, tracer=None, job_id: int = 0) -> Result:
    """Time one job; a job that raises, exits with another code than expected
    or fails its output check is not ok.  Each job starts from a collected
    heap, so garbage left by earlier jobs is not collected inside its time."""
    gc.collect()
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    rc, out, error = None, "", None
    try:
        rc, out = run_cli(job.argv)
    except Exception as exc:  # a crash is a failed job, not a benchmark error
        error = f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
        tracer.job_wall[job_id] = elapsed
    if error is None and rc != job.expect_rc:
        error = f"exit {rc}, expected {job.expect_rc}"
    if error is None:
        try:
            if not job.check(json.loads(out)):
                error = "output check failed"
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            error = f"output check raised {exc!r}"
    return Result(job.label, elapsed, job.forged, error)


def measure(cycles, tracer=None) -> list[Result]:
    """Run every job of every cycle, in order."""
    results = []
    for jobs in cycles:
        for job in jobs:
            results.append(run_job(job, tracer, len(results)))
    return results


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile of the sample that has at
    least ten samples beyond it, i.e. the eleventh largest value."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def jobs_per_s(results: list[Result]) -> float:
    """Jobs completed per second of time spent inside jobs."""
    return len(results) / math.fsum(r.seconds for r in results)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results: list[Result], setup_s: float) -> dict:
    """Every end-to-end metric, each with its unit and sample count."""
    times = [r.seconds for r in results]
    tail_s, tail_pct = tail(times)
    failed = sum(not r.ok for r in results)
    n = len(results)
    return {
        "setup_s": {"value": setup_s, "unit": "s", "n": "median of set-ups"},
        "job_p50_s": {"value": statistics.median(times), "unit": "s", "n": f"{n} jobs"},
        "job_tail_s": {"value": tail_s, "unit": "s",
                       "n": f"p{tail_pct:.1f} of {n} jobs, {10 if n > 10 else 0} beyond"},
        "jobs_per_s": {"value": jobs_per_s(results), "unit": "1/s",
                       "n": f"{n} jobs in {math.fsum(times):.2f} s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "n": "1 process"},
        "failed_frac": {"value": failed / n, "unit": "frac", "n": f"{failed} of {n} jobs"},
    }
