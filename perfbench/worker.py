"""One benchmark child process: import stoplex, then run at most one analysis.

Usage: python3 perfbench/worker.py RESULT_JSON SRC_DIR [--trace] [analyze args...]

The first thing recorded is the CLOCK_MONOTONIC reading right after
`stoplex.cli` is imported; the parent subtracts its own reading taken
just before it spawned this process, which gives the set-up time. With no
analyze arguments the worker stops there. Otherwise it times one
`stoplex.cli.main(["analyze", ...])` call and records its exit code and
the peak RSS of this process plus that of any children it waited for.
The CLI's summary goes to this process's stdout, which the parent drains.
"""

import sys
import time


def main() -> None:
    result_path, src_dir, *rest = sys.argv[1:]
    sys.path.insert(0, src_dir)
    import stoplex.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json
    import resource

    from tracing import Tracer, peak_rss_mb

    record = {"ready": ready}
    trace = bool(rest) and rest[0] == "--trace"
    argv = rest[1:] if trace else rest
    if argv:
        tracer = None
        if trace:
            tracer = Tracer()
            record["skipped_spans"] = tracer.install()
        start = time.perf_counter()
        code = stoplex.cli.main(argv)
        record["analyze_s"] = time.perf_counter() - start
        sys.stdout.flush()
        record["exit_code"] = code
        record["peak_rss_mb"] = (
            peak_rss_mb() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        if tracer is not None:
            tracer.restore()
            record["spans"] = [vars(span) for span in tracer.spans]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
