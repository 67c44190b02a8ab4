"""Run one ``gclab`` command in this fresh process and report on it.

Usage: child.py SRC_DIR TRACE(0|1) -- GCLAB_ARGS...

First times a fixed probe that uses only the standard library (see
``probe``), then imports ``gclab.cli`` from SRC_DIR and records the
monotonic clock once the import is done (the parent took the clock just
before starting this process, so the difference less the probe is the
cold set-up time), runs ``cli.main`` with stdout captured, and prints
one JSON line: exit code, sha256 and size of the captured stdout, probe
time, op time, peak RSS, and with TRACE=1 the per-layer counters.  The
clock is system-wide, so the two readings compare.
"""

import time
import sys
from fractions import Fraction


def probe() -> float:
    """Seconds for a fixed mix of Fraction sums and dict inserts, the
    kinds of work gclab does.  It runs before gclab is imported, so no
    change to gclab can alter it; it measures how fast this process runs
    on the host at this moment, which on a shared VM moves by a third
    from one process to the next."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(1, k)
    table = {}
    for i in range(50000):
        table[str(i)] = i * i
    return time.perf_counter() - start


probe_s = probe()
src, trace = sys.argv[1], sys.argv[2] == "1"
argv = sys.argv[sys.argv.index("--") + 1:]
sys.path.insert(0, src)
from gclab import cli  # noqa: E402

ready = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(os.path.abspath(src), "gclab"):
    sys.exit(f"gclab was imported from {cli.__file__}, not from {src}")

tracer = None
if trace:
    from tracer import Tracer

    tracer = Tracer().install()

buf = io.StringIO()
error = ""
start = time.monotonic()
try:
    with redirect_stdout(buf):
        code = cli.main(argv)
except Exception:  # a traceback is an op failure, reported to the parent
    code = None
    error = traceback.format_exc()
end = time.monotonic()

out = buf.getvalue().encode()
result = {
    "rc": code,
    "sha256": hashlib.sha256(out).hexdigest(),
    "bytes": len(out),
    "ready": ready,
    "probe_s": probe_s,
    "op_s": end - start,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "error": error,
}
if tracer is not None:
    result["trace"] = tracer.snapshot()
sys.stdout.write(json.dumps(result) + "\n")
