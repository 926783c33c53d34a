"""scripts/min_degree_grid.py, the README's command for the degree grid,
runs as documented."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_grid(*args):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "min_degree_grid.py"), *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


def test_grid_row_reads_the_minimal_degree():
    proc = run_grid("--k", "4", "--p", "5")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["graph", "k", "field", "min", "degree", "seconds"]
    assert [row.split()[:4] for row in rows] == [["K_5", "4", "GF(5)", "5"]]


def test_grid_filter_matching_no_cell_exits_2():
    proc = run_grid("--k", "9")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "nothing to do" in proc.stderr
