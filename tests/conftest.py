import os
from pathlib import Path

import hypothesis

hypothesis.settings.register_profile(
    "deterministic", derandomize=True, max_examples=60, deadline=None
)
hypothesis.settings.load_profile("deterministic")

# The interpreters the tests start (python -m chromideal) import the package
# from this checkout's src/, as pyproject's `pythonpath` makes pytest do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
