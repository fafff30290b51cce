"""Run one lpns command in this process and time its phases.

    python child.py RESULT_JSON TRACE -- LPNS_ARGS...

Calls ``lpns.cli.main(LPNS_ARGS)`` once.  Wrappers on ``lpns.cli.simulate``
and ``lpns.cli.shell_flux_report`` split the call into set-up (``main`` entry
to the compute call), compute, and output (compute end to return).  With
TRACE = 1 the layer wrappers of ``tracing.Tracer`` are installed too and their
spans, and any transforms called past the counter, are written out.  The timings go to RESULT_JSON; the command's own
standard output is left alone.  Exits with the command's exit code.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from contextlib import nullcontext

import lpns.cli

from tracing import Tracer

COMPUTE_CALLS = ("simulate", "shell_flux_report")


def _time_compute(marks):
    for attr in COMPUTE_CALLS:
        fn = getattr(lpns.cli, attr)

        @functools.wraps(fn)
        def wrapper(*args, _fn=fn, **kwargs):
            marks["compute_start"] = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                marks["compute_end"] = time.perf_counter()

        setattr(lpns.cli, attr, wrapper)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    result_path, traced, lpns_args = argv[0], argv[1] == "1", argv[3:]
    tracer = Tracer() if traced else None
    marks = {}
    with tracer or nullcontext():
        _time_compute(marks)
        start = time.perf_counter()
        code = lpns.cli.main(lpns_args)
        end = time.perf_counter()
    sys.stdout.flush()
    result = {"exit_code": code,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if "compute_end" in marks:
        result.update(setup_s=marks["compute_start"] - start,
                      run_s=marks["compute_end"] - marks["compute_start"],
                      output_s=end - marks["compute_end"])
    if tracer:
        result.update(spans=tracer.spans, fired=tracer.fired, bypasses=tracer.bypasses)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
