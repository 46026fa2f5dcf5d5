"""cyclecert benchmark: one workload per call, checked against independent references.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0

--workload is one of certify-sweep, heegner-enum, pullback-ladder,
cli-oneshot, or `all` to run each in turn.  --trace 0 measures the
end-to-end metrics; --trace 1 runs the same passes traced, replays them
untraced for the tracing overhead, writes the spans to bench/out/ and
reports the per-layer metrics.  Every pass runs in a fresh interpreter with
PYTHONPATH=src and with BASE_URL, CACHE_DIR and TIMEOUT_MS removed from its
environment.  The last line of stdout is the result as JSON; the line before
it carries what is reported but not gated (output digest, failed and
unknown-but-provable fractions, tail percentile and sample count, pass plan,
unscaled metrics and speed factors, time accounting of the traced passes).
Timings are scaled to the reference speed (see calib.py).  Exits non-zero
without a result when the checkout has no library source or a pass fails to
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ISOLATED_ENV = ("BASE_URL", "CACHE_DIR", "TIMEOUT_MS")
SETUP_PROBES = 7
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "heegner.self_s": "s",
    "heegner.enumerate_p50_ms": "ms",
    "heegner.classes_enumerated": "count",
    "heegner.hurwitz_hit_ratio": "ratio",
    "pullback.self_s": "s",
    "pullback.decompose_s": "s",
    "pullback.verify_s": "s",
    "pullback.ladder_terms": "count",
    "pullback.divisor_classes_built": "count",
    "repcount.calls": "count",
    "repcount.self_s": "s",
    "lattices.calls": "count",
    "lattices.self_s": "s",
    "certify.self_s": "s",
    "certify.factorization_incomplete": "count",
    "newforms.self_s": "s",
    "newforms.fetches": "count",
    "newforms.records_read": "count",
    "newforms.offline_level_scans": "count",
    "modcurves.self_s": "s",
    "modcurves.cover_profile_hit_ratio": "ratio",
    "modcurves.level_bound_errors": "count",
    "cli.import_s": "s",
    "cli.process_p50_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples).

    With n sorted samples that is the (n-10)-th smallest, at percentile
    100*(n-10)/n.  Below eleven samples no percentile qualifies, and the
    maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def pass_count(wl, seconds: float, replicas: int) -> int:
    """Passes per replica so that all replicas together measure about `seconds`.

    The count comes from the workload's nominal pass time, not from the
    clock, so a run's inputs and sample count depend only on the seed and
    --seconds: the tail percentile then sits at the same rank on every run.
    """
    return max(1, round(seconds / (replicas * wl.pass_seconds)))


def spread_slots(count: int, slots: int) -> set[int]:
    """`count` slot indices spread evenly over range(slots)."""
    if count >= slots:
        return set(range(slots))
    return {int((i + 0.5) * slots / count) for i in range(count)}


def isolated_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env["PYTHONPATH"] = src
    return env


def probe_setup(env: dict) -> tuple[float, float]:
    """Wall time of one fresh interpreter importing cyclecert and cyclecert.cli.

    Returns the time and the machine's speed factor measured just before it.
    """
    factor = calib.speed_factor([calib.loop_time() for _ in range(5)])
    cmd = [sys.executable, "-c", "import cyclecert, cyclecert.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=60, check=False)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("importing cyclecert failed: %s" % proc.stderr.decode()[-500:])
    return dt, factor


def run_pass(workload: str, seed: int, index: int, src: str, env: dict, *, trace=0,
             spans_out=None) -> tuple[list[dict], dict]:
    """Run pass `index` in a fresh worker; returns its operation records and totals."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(index), "--trace", str(trace), "--src", src]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s pass did not finish in %d s" % (workload, PASS_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s worker exited %d: %s" % (workload, proc.returncode, err.decode()[-2000:]))
    lines = [json.loads(line) for line in out.decode().splitlines()]
    if not lines or "end" not in lines[-1]:
        raise BenchError("%s worker wrote no totals" % workload)
    end = lines[-1]["end"]
    samples = end["calibration_s"]
    ops = [dict(op, **{"pass": index,
                       "scaled_ms": op["ms"] / calib.local_factor(samples, op["at_s"] + op["ms"] / 2000)})
           for op in lines[:-1]]
    return ops, end


def pass_factor(end: dict) -> float:
    """The speed factor of a whole pass, from its totals."""
    return calib.speed_factor([loop for _, loop in end["calibration_s"]])


class CheckContext:
    def __init__(self, fixtures):
        self.fixtures = fixtures
        self.unknown_provable = 0


def check_ops(wl, replicas: list[list[dict]], ctx: CheckContext) -> tuple[int, list[str]]:
    """Failed operations and sample problems.

    An operation fails when it raised in any replica, when the replicas
    disagree, or when the reference rejects its output.
    """
    failed = 0
    problems: list[str] = []
    for same in zip(*replicas):
        op = same[0]
        errors = [o["error"] for o in same if o["error"] is not None]
        if errors:
            found = ["raised %s" % errors[0]]
        elif any(o["output"] != op["output"] for o in same[1:]):
            found = ["the replicas gave different outputs"]
        else:
            found = wl.check(op["input"], op["output"], ctx)
        if found:
            failed += 1
            if len(problems) < 5:
                problems.append("pass %d op %d %s: %s" % (op["pass"], op["op"], json.dumps(op["input"]),
                                                           "; ".join(found)))
    return failed, problems


def output_digest(ops: list[dict]) -> dict:
    """sha256 over the inputs and outputs of the run, rendered canonically.

    Fractions are rendered with str, CLI stdout is taken byte for byte, with
    the exit code before it.
    """
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op["input"], sort_keys=True).encode())
        h.update(b"\n")
        out = op["output"]
        if isinstance(out, dict) and "stdout" in out:
            h.update(("%d\n" % out["code"]).encode())
            h.update(out["stdout"].encode())
        else:
            h.update(json.dumps(out, sort_keys=True).encode())
        h.update(b"\n")
    return {"sha256": h.hexdigest(), "ops": len(ops)}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(latencies: list[float], setup: list[float], peak_rss_mb: float):
    """End-to-end metrics from per-operation latencies (ms) and setup times (s).

    Returns the metrics, the tail percentile and its sample count.
    """
    tail, pct, samples = tail_latency(latencies)
    metrics = {
        "throughput_ops_s": 1000 * len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, pct, samples


def measure(name: str, seed: int, passes: int, replicas: int, src: str, env: dict):
    """Untraced passes: every replica runs all passes, replica after replica.

    Replicas of one pass run about seconds/replicas apart, so the faster of
    an operation's timings filters out the bursts of slower CPU that other
    tenants of a shared machine cause; calib scales out the longer stretches.
    One setup probe runs before the first pass, untimed, so that byte-code
    compilation is not counted; the timed probes are spread over the run.
    Returns the replicas' operations, the pass totals and the setup probes
    as (seconds, speed factor) pairs.
    """
    probe_setup(env)
    order = [(r, p) for r in range(replicas) for p in range(passes)]
    probe_at = spread_slots(SETUP_PROBES, len(order))
    runs: list[list[dict]] = [[] for _ in range(replicas)]
    ends: list[dict] = []
    setup: list[tuple[float, float]] = []
    for slot, (r, p) in enumerate(order):
        if slot in probe_at:
            setup.append(probe_setup(env))
        ops, end = run_pass(name, seed, p, src, env)
        runs[r] += ops
        ends.append(end)
    return runs, ends, setup


def run_workload(name: str, seed: int, seconds: float, trace: int, root: str) -> tuple[dict, dict]:
    wl = workloads.WORKLOADS[name]
    src = os.path.join(root, "src")
    env = isolated_env(src)
    ctx = CheckContext(refcheck.Fixtures(os.path.join(src, "cyclecert", "fixtures")))
    info: dict = {"workload": name, "seed": seed}
    if not trace:
        passes = pass_count(wl, seconds, wl.replicas)
        runs, ends, setup = measure(name, seed, passes, wl.replicas, src, env)
        peak_rss_mb = max(e["peak_rss_kb"] for e in ends) / 1024
        scaled, pct, samples = end_to_end(
            [min(o["scaled_ms"] for o in same) for same in zip(*runs)],
            [dt / factor for dt, factor in setup], peak_rss_mb)
        raw, _, _ = end_to_end([min(o["ms"] for o in same) for same in zip(*runs)],
                               [dt for dt, _ in setup], peak_rss_mb)
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in scaled.items()}
        info["raw"] = raw
        info["speed_factors"] = [pass_factor(e) for e in ends]
        info["plan"] = {"passes": passes, "replicas": wl.replicas,
                        "busy_s": sum(e["busy_s"] for e in ends)}
        info["setup_runs_s"] = [dt for dt, _ in setup]
        info["latency_tail"] = {"percentile": pct, "samples": samples}
    else:
        passes = pass_count(wl, seconds, 2)
        runs, layer, info["trace_accounting"] = measure_traced(wl, seed, passes, src, env)
        info["plan"] = {"passes": passes, "replicas": 2}
        metrics = {k: metric(layer[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    failed, problems = check_ops(wl, runs, ctx)
    ops = runs[0]
    info["output_digest"] = output_digest(ops)
    info["failed_frac"] = failed / len(ops)
    if name == "certify-sweep":
        info["unknown_provable_frac"] = ctx.unknown_provable / len(ops)
    info["problems"] = problems
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return info, result


def measure_traced(wl, seed: int, passes: int, src: str, env: dict):
    """Traced passes, then the same passes untraced for the tracing overhead.

    Returns both replicas' operations, the per-layer metrics and the time
    accounting of the traced passes.
    """
    name = wl.name
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    prefix = "spans-%s-" % name
    for stale in os.listdir(out_dir):
        if stale.startswith(prefix):
            os.unlink(os.path.join(out_dir, stale))
    traced, untraced, ends, replay_ends = [], [], [], []
    for p in range(passes):
        spans_out = os.path.join(out_dir, "%spass%d.jsonl" % (prefix, p))
        ops, end = run_pass(name, seed, p, src, env, trace=1, spans_out=spans_out)
        traced += ops
        ends.append(end)
    for p in range(passes):
        ops, end = run_pass(name, seed, p, src, env)
        untraced += ops
        replay_ends.append(end)
    summary = ends[0]["trace"]
    for end in ends[1:]:
        summary = spans.merge(summary, end["trace"])
    layer = spans.layer_metrics(summary)
    cli = name == "cli-oneshot"
    if cli:
        imports = [s for end in ends for s in end["child_import_s"]]
    else:
        imports = [end["import_s"] for end in replay_ends]
    layer["cli.import_s"] = statistics.median(imports) if imports else None
    layer["cli.process_p50_ms"] = statistics.median(op["ms"] for op in untraced) if cli else 0.0
    layer["cli.stdout_bytes"] = (sum(len(op["output"]["stdout"].encode()) for op in untraced
                                     if op["output"]) if cli else 0)
    traced_busy = sum(e["busy_s"] / pass_factor(e) for e in ends)
    untraced_busy = sum(e["busy_s"] / pass_factor(e) for e in replay_ends)
    layer["trace.overhead_frac"] = traced_busy / untraced_busy - 1
    wall = sum(end["wall_s"] for end in ends)
    layer["trace.wall_s"] = wall
    selfs = summary["self_s"]
    layers_self = sum(v for k, v in selfs.items() if k != "bench")
    accounting = {
        "wall_s": wall,
        "layers_self_s": layers_self,
        "bench_self_s": selfs.get("bench", 0.0),
        "unaccounted_s": wall - layers_self - selfs.get("bench", 0.0),
        "self_s_by_layer": selfs,
        "spans": summary["spans"],
        "spans_files": "bench/out/%s*.jsonl" % prefix,
    }
    return [traced, untraced], layer, accounting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cyclecert", "__init__.py")):
        sys.stderr.write("no library source at %s; run from the root of a cyclecert checkout\n"
                         % os.path.join(root, "src", "cyclecert"))
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            info, result = run_workload(name, args.seed, args.seconds, args.trace, root)
        except BenchError as exc:
            sys.stderr.write("error: %s\n" % exc)
            return 1
        print(json.dumps({"info": info}, sort_keys=True))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
