"""The benchmark's per-layer tracer must find every function it hooks.

Renaming a hooked function (``guard_inverse``, ``_search_halting``,
``exceeds_bound``, ...) would otherwise fail only the traced benchmark
run.  The tracer rebinds module attributes, so it is installed in a
child process to keep its wrappers out of this test run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent


def test_tracer_finds_every_hook():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(REPO / "perfbench"), str(REPO / "src")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import json, tracer; print(json.dumps(tracer.Tracer().install().missing))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == []
