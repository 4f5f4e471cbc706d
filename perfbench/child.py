"""One hwiloc CLI call in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py SRC RESULT_JSON TRACE -- CLI_ARGS...

Imports hwiloc from SRC (refusing any other copy), calls the public entry
point hwiloc.cli.main(CLI_ARGS) and writes RESULT_JSON: the exit code, the
monotonic-clock instant the spec was resolved (end of set-up, start of the
run) and the instant main returned (CSV written), the process's peak RSS,
the versions and BLAS in use, and with TRACE=1 the per-layer report of the
tracer. run.py starts one of these per measured sweep, so every sweep pays
the cold costs a CLI user pays.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def _blas_info(np) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": None, "version": None}


def main(argv: list[str]) -> int:
    src, result_path, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[4:] if argv[3:4] == ["--"] else argv[3:]
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import hwiloc.cli
    import numpy as np

    if not os.path.abspath(hwiloc.__file__).startswith(src + os.sep):
        sys.stderr.write(f"imported hwiloc from {hwiloc.__file__}, not from {src}\n")
        return 3

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer("hwiloc")
        tracer.install()
    stamps: dict[str, float] = {}
    resolve = getattr(hwiloc.cli, "resolve_spec", None)
    if resolve is not None:
        # set-up ends, and the run starts, when the CLI has resolved its spec

        def stamped(*args, **kwargs):
            spec = resolve(*args, **kwargs)
            stamps["ready_mono"] = time.monotonic()
            stamps["ready_perf"] = time.perf_counter()
            return spec

        hwiloc.cli.resolve_spec = stamped
    else:
        stamps["ready_mono"] = time.monotonic()
        stamps["ready_perf"] = time.perf_counter()
    try:
        code = hwiloc.cli.main(cli_args)
        end_mono, end_perf = time.monotonic(), time.perf_counter()
    finally:
        if resolve is not None:
            hwiloc.cli.resolve_spec = resolve
        if tracer is not None:
            tracer.uninstall()

    result = {
        "code": code,
        "ready_mono": stamps.get("ready_mono", end_mono),
        "end_mono": end_mono,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "hwiloc_file": hwiloc.__file__,
    }
    if tracer is not None:
        ready = stamps.get("ready_perf", end_perf)
        result["trace"] = {
            "metrics": tracer.report(end_perf),
            "absent": tracer.absent,
            "run_s": end_perf - ready,
            "accounted_s": sum(r["self_s"] for r in tracer.layer_times(ready).values()),
            "spans": len(tracer.names),
            "leftovers": tracer.leftovers(),
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
