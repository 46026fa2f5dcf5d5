"""One pass of one workload in a fresh interpreter; started by run.py.

Runs the pass's inputs one operation at a time (a closed loop with a single
caller).  Only the library call is timed; rendering happens between
operations.  Every operation's input, rendered output and latency go to
stdout as one JSON line, so the checks run in the parent and never in this
process; the last line holds the pass totals.

Between operations the worker times the calibration loop (calib.py), so
that the parent can scale each timing to the reference speed.

When traced, the worker's own steps (making the inputs, importing the
library, installing the tracer, each operation, rendering each result and
calibrating) are root spans, so the self times of the layers plus the
benchmark's own spans account for the pass's wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="index", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    import calib
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    cli = wl.name == "cli-oneshot"
    inputs = workloads.pass_inputs(wl.name, args.seed, args.index)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.add_span("bench.inputs", started, time.perf_counter(), -1, -1)
    import_s = None
    if not cli:
        t0 = time.perf_counter()
        import cyclecert
        import cyclecert.cli  # noqa: F401  (part of the import cost users pay)
        t1 = time.perf_counter()
        import_s = t1 - t0
        origin = os.path.realpath(cyclecert.__file__)
        if not origin.startswith(os.path.realpath(args.src) + os.sep):
            sys.stderr.write("cyclecert imported from %s, not from %s\n" % (origin, args.src))
            return 3
        lib = cyclecert
        if tracer is not None:
            tracer.add_span("bench.import", t0, t1, -1, -1)

    inst = None
    child_summaries = []
    summary_path = None
    if tracer is not None:
        t0 = time.perf_counter()
        if cli:
            summary_path = os.path.join(os.path.dirname(args.spans_out), "child-%d.json" % os.getpid())
        else:
            inst = spans.install(tracer)
        tracer.add_span("bench.trace_install", t0, time.perf_counter(), -1, -1)
    if cli:
        lib = workloads.run_cli_process(args.src, dict(os.environ), summary_path)

    op_name = tracer.intern(spans.ROOT) if tracer else None
    render_name = tracer.intern("bench.render") if tracer else None
    out = sys.stdout
    clock = time.perf_counter
    busy = 0.0
    calibration = [[0.0, calib.loop_time()]]
    since_calibration = 0.0
    for n, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op_id = n
            i = tracer.begin(op_name)
        error = None
        t0 = clock()
        try:
            result = wl.run(lib, inp)
        except Exception as exc:  # an operation that raises is a failed operation
            error = "%s: %s" % (type(exc).__name__, exc)
        dt = clock() - t0
        if tracer is not None:
            tracer.finish(i)
            if summary_path is not None:
                child_summaries.append(_adopt_child(spans, tracer, summary_path, i, n))
            j = tracer.begin(render_name)
        busy += dt
        rendered = wl.render(result) if error is None else None
        out.write(json.dumps({"op": n, "input": inp, "output": rendered, "error": error,
                              "ms": dt * 1000, "at_s": busy - dt}, sort_keys=True) + "\n")
        since_calibration += dt
        if since_calibration >= calib.EVERY_S:
            calibration.append([busy, calib.loop_time()])
            since_calibration = 0.0
        if tracer is not None:
            tracer.finish(j)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    calibration.append([busy, calib.loop_time()])
    end = {"busy_s": busy, "peak_rss_kb": usage.ru_maxrss, "import_s": import_s,
           "calibration_s": calibration}
    if tracer is not None:
        summary = spans.summarize(tracer, inst)
        for child in child_summaries:
            summary = spans.merge(summary, child)
        end["trace"] = summary
        end["child_import_s"] = [c["import_s"] for c in child_summaries if c["import_s"] is not None]
        end["wall_s"] = time.perf_counter() - started
        if args.spans_out:
            tracer.write(args.spans_out)
    out.write(json.dumps({"end": end}, sort_keys=True) + "\n")
    out.flush()
    return 0


def _adopt_child(spans, tracer, path, parent, op):
    """Move a traced CLI child's spans under the worker's op span; return its summary.

    A child that died before writing its summary contributes no spans; its
    failure shows in its exit code, which the checks compare.
    """
    if not os.path.exists(path):
        return dict(spans.EMPTY_SUMMARY, import_s=None)
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    os.unlink(path)
    # the child process as a whole (interpreter start and exit included) is
    # the cli layer's; the worker's op span keeps only the wait around it
    process = tracer.add_span("cli.process", tracer.start[parent], tracer.end[parent], parent, op)
    base = len(tracer.start)
    for name, s, e, p in child.pop("spans"):
        tracer.add_span(name, s, e, process if p < 0 else base + p, op)
    # span-derived totals come from the adopted spans; keep the child's counters
    summary = dict(child["summary"], spans=0, self_s={}, calls={}, durations={})
    summary["import_s"] = child["import_s"]
    return summary


if __name__ == "__main__":
    sys.exit(main())
