#!/usr/bin/env python3
"""Reproduce the minimal-certificate-degree grid for complete graphs and odd
wheels.

For each cell, tests the graph (K_{k+1}, or the odd wheel W_r: a hub joined
to every vertex of an r-cycle) for non-k-colorability over a small prime
field by invoking the `cert` CLI verb and reports the minimal certificate
degree.  The quick cells finish in seconds; pass --slow to add K_8/k=7/GF(11)
(about 30 s and 450 MB: its certificate has 558,768 terms).

Usage: python scripts/min_degree_grid.py [--slow] [--k K] [--p P]
"""

import argparse
import itertools
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

QUICK = [(f"K_{k + 1}", k, p) for k, p in
         [(3, 2), (3, 5), (3, 7), (4, 3), (4, 5), (4, 7), (5, 2), (5, 3), (5, 7), (6, 5), (6, 7)]]
QUICK += [("W_5", 3, 2), ("W_21", 3, 2), ("W_51", 3, 2), ("W_101", 3, 2), ("W_5", 3, 5)]
SLOW = [("K_8", 7, 11)]


def dimacs(graph: str) -> str:
    """DIMACS text of K_n ("K_n") or of the wheel W_r ("W_r", r + 1 vertices)."""
    family, size = graph.split("_")
    size = int(size)
    if family == "K":
        n, edges = size, list(itertools.combinations(range(1, size + 1), 2))
    else:
        n = size + 1
        edges = [(i, i % size + 1) for i in range(1, n)] + [(i, n) for i in range(1, n)]
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def run_cell(graph_path: str, k: int, p: int) -> tuple[str, float]:
    cmd = [sys.executable, "-m", "chromideal", "cert", graph_path, "--k", str(k), "--p", str(p)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    # An interpreter that cannot import chromideal exits 1 too, with nothing
    # on stdout, so the document kind decides.
    doc = json.loads(proc.stdout or "{}") if proc.returncode in (0, 1) else {}
    if doc.get("kind") == "certificate":
        return str(doc["degree"]), elapsed
    if doc.get("kind") == "certificate_search":
        return "none<=bound", elapsed
    raise RuntimeError(f"cert failed ({proc.returncode}): {proc.stderr.strip()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slow", action="store_true", help="include the heavy cells")
    parser.add_argument("--k", type=int, help="restrict to one color count")
    parser.add_argument("--p", type=int, help="restrict to one field modulus")
    args = parser.parse_args()

    cells = QUICK + (SLOW if args.slow else [])
    cells = [(graph, k, p) for graph, k, p in cells
             if (args.k is None or k == args.k) and (args.p is None or p == args.p)]
    if not cells:
        print("nothing to do for this filter", file=sys.stderr)
        return 2

    print(f"{'graph':>6} {'k':>2} {'field':>6} {'min degree':>11} {'seconds':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for graph, k, p in cells:
            graph_path = Path(tmp) / f"{graph}.col"
            graph_path.write_text(dimacs(graph))
            degree, elapsed = run_cell(str(graph_path), k, p)
            print(f"{graph:>6} {k:>2} {'GF(' + str(p) + ')':>6} {degree:>11} {elapsed:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
