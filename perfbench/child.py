"""One benchmark repetition, run in a fresh interpreter.

    python3 child.py MODE RECORD [CLI ARGS...]

MODE is `setup` (import only), `run` (one untraced `cli.main(args)`) or
`trace` (the same call with every layer wrapped in spans).  The process
writes a JSON record to RECORD: the monotonic time at which `fermigas.cli`
and its numpy/scipy imports were loaded, the time inside `cli.main`, the
exit code, the peak resident set and the library versions.  A traced run
adds its per-layer metrics and leaves its spans in RECORD.spans.npz.
"""

import json
import os
import platform
import resource
import sys
import time


def main():
    mode, record_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import fermigas.cli as cli
    record = {"ready": time.monotonic()}
    if mode != "setup":
        run = cli.main
        if mode == "trace":
            import tracer as spans
            recorder = spans.Tracer()
            run = spans.install(recorder)
        t0 = time.perf_counter()
        rc = run(argv)
        record["wall_s"] = time.perf_counter() - t0
        record["rc"] = rc
        if mode == "trace":
            out = argv[argv.index("--out") + 1]
            size = os.path.getsize(out) if os.path.exists(out) else 0
            record["layers"] = spans.layer_metrics(recorder, size)
            recorder.save(record_path + ".spans.npz")
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    )
    import numpy
    import scipy

    record["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]
        ["blas"].get("version"),
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
