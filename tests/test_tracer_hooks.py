"""The benchmark's per-layer tracer must find every function it hooks,
and count exactly what its self-checks expect.

Renaming a hooked function (``guard_inverse``, ``_search_halting``,
``exceeds_bound``, ...), or a rewrite that makes a hooked call more or
less often per word, would otherwise fail only the traced benchmark
run.  The tracer rebinds module attributes, so it is installed in a
child process to keep its wrappers out of this test run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
    [str(REPO / "perfbench"), str(REPO / "src")]))

# runs each of the benchmark's self-check ops traced, through its own
# runner (a fresh ``child.py`` per op), and prints what each one counted
SELFCHECK = """
import json, sys
from pathlib import Path
import run

runner = run.Runner(Path(sys.argv[1]), {})
checks = []
for op, key, want in run.SELFCHECK:
    traced = runner.run(op, trace=True)
    got = traced["trace"]["stats"].get(key, [0])[0] if "trace" in traced else None
    checks.append([op.key, key, want, got, traced.get("error") or traced.get("rc")])
print(json.dumps(checks))
"""


def _child(code: str, *args: str) -> object:
    result = subprocess.run([sys.executable, "-c", code, *args], env=ENV,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_tracer_finds_every_hook():
    assert _child("import json, tracer; "
                  "print(json.dumps(tracer.Tracer().install().missing))") == []


def test_tracer_self_checks_count_exactly(tmp_path):
    """Each self-check op of ``perfbench/run.py`` (the ``mass`` calls of a
    small ν sum, the steps of the loop machine), run traced, makes
    exactly the calls the benchmark expects of it and exits with a
    verdict, not an error."""
    checks = _child(SELFCHECK, str(tmp_path))
    assert {"measure.mass", "machine.step"} <= {key for _, key, _, _, _ in checks}
    for op, key, want, got, rc in checks:
        assert got == want and rc in (0, 1), f"{op}: {got} calls of {key}, exit {rc}"
