"""Traced stand-in for `python -m cyclecert.cli`: same argv, same stdout and exit code.

Usage: python cli_child.py SUMMARY_PATH ARGS...

Times the import of cyclecert and cyclecert.cli, installs the span tracer,
runs the CLI's `main` on ARGS and writes the import time, the spans and the
trace summary to SUMMARY_PATH as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import cyclecert  # noqa: F401
    import cyclecert.cli
    t1 = time.perf_counter()

    import spans

    tracer = spans.Tracer()
    inst = spans.install(tracer)
    tracer.add_span("cli.import", t0, t1, -1, 0)
    code = cyclecert.cli.main(argv)
    sys.stdout.flush()
    child_spans = [[name, s, e, p] for name, s, e, p, _ in tracer.spans()]
    summary = spans.summarize(tracer, inst)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": t1 - t0, "spans": child_spans, "summary": summary}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
