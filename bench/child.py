"""One fresh interpreter: import the CLI, optionally run one command, report.

Usage: python3 child.py RESULT_PATH SRC_DIR {setup|run|trace} [-- PROGRAM_ARGV...]

The child first imports NumPy and records the CPU time its main thread
has used so far: interpreter start plus that import is program-independent
work that gauges how fast the shared host runs this process (see
``host_speed`` in run.py).  It then imports ``spatialbsa.cli`` and calls
``build_parser()``, and records that instant on the system-wide monotonic
clock, which the parent subtracts its spawn time from.  ``setup`` stops
there.  ``run`` then calls ``spatialbsa.cli.main`` with the program
argv and times it; its stdout is whatever file the parent attached.
``trace`` does the same with the span tracer installed.  The result, a JSON
object, goes to RESULT_PATH.
"""

import time

import numpy

calibration_s = time.thread_time()

import sys  # noqa: E402

result_path, src_dir, mode = sys.argv[1:4]
program_argv = sys.argv[5:]
sys.path.insert(0, src_dir)

import spatialbsa.cli as cli  # noqa: E402

cli.build_parser()
setup_done = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import spatialbsa  # noqa: E402

record = {
    "calibration_s": calibration_s,
    "setup_done": setup_done,
    "spatialbsa_file": os.path.realpath(spatialbsa.__file__),
    "spatialbsa_version": getattr(spatialbsa, "__version__", None),
    "numpy_version": numpy.__version__,
    "python_version": sys.version.split()[0],
}

if mode in ("run", "trace"):
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    main = cli.main
    start = time.perf_counter()
    try:
        code = main(program_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the program failed; report it instead of dying silently
        code = "exception"
        record["traceback"] = traceback.format_exc()
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    record["exit_code"] = code
    record["main_s"] = main_s
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["trace"] = spans.summarize(tracer, main_s, start)

with open(result_path, "w") as handle:
    json.dump(record, handle)
