"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py SRC_DIR [SPANS_PATH]  (operations as JSON on stdin)

Times ``import lcmlattice.cli`` first, before the worker imports anything
else the CLI needs, then runs each operation through ``cli.main`` with stdout
and stderr captured, one after the other.  It times the reference computation
(reference.py) three times after the import and once after each operation,
and gives each time the reference durations measured around it.  With SPANS_PATH it wraps the
package's public functions (see tracing.py), writes the spans there and adds
per-layer totals to its result.  Prints one JSON object on stdout.
"""

import sys
import time

src = sys.argv[1]
sys.path.insert(0, src)
t0 = time.perf_counter()
import lcmlattice.cli as cli  # noqa: E402
setup_s = time.perf_counter() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import reference  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"worker: lcmlattice was imported from {cli.__file__}, not from {src}")

ops = json.load(sys.stdin)
spans_path = sys.argv[2] if len(sys.argv) > 2 else None
tracer = None
if spans_path:
    import tracing
    tracer = tracing.Tracer()
    tracer.install()

results = []
setup_ref_s = sorted(reference.duration() for _ in range(3))[1]
before = reference.duration()
for op in ops:
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.op = op["id"]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the benchmark counts it as a failed operation
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    after = reference.duration()
    results.append({"id": op["id"], "code": code, "s": seconds, "ref_s": (before + after) / 2,
                    "out": out.getvalue(), "err": err.getvalue()})
    before = after
peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

layers = None
if tracer:
    tracer.uninstall()
    tracer.write(spans_path)
    layers = tracer.layer_totals()

json.dump({"setup_s": setup_s, "setup_ref_s": setup_ref_s,
           "pass_s": sum(r["s"] for r in results), "peak_rss_kib": peak_rss_kib,
           "ops": results, "layers": layers}, sys.stdout)
