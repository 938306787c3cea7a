"""foliadex end-to-end benchmark: one closed-loop client running real CLI
processes, one at a time, and checking every output.

    python3 perfbench/run.py --workload oracle-sweep --seed 0 --seconds 20 --trace 0

Run it from anywhere in a checkout of the repository; it runs the program
from that checkout's src/ directory.  With --trace 0 it reports the
end-to-end metrics.  With --trace 1 it runs each request untraced and
then under tracing.py, and reports the per-layer metrics.  The last line of
stdout is the JSON result; the lines before it give every metric with its
unit and the environment stamp.  Every timing is reported at reference
speed: scaled by calibrate.py's wall time measured next to it, so that it
does not move with the speed a shared host gives the run.  See README.md
for the workloads, the scaling and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import checks
import tracing
from invoke import invoke
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 10
# Timings are reported at reference speed: a wall time times REF_S over the
# wall time of calibrate.py measured next to it.  REF_S is calibrate.py's
# typical wall time on the 2-vCPU machine the first trajectory point came
# from, so scaled timings there read close to raw ones.  It is a fixed
# constant: changing it rescales every timing.
REF_S = 0.12
# A calibration runs as soon as this much time has passed since the last
# one, after the request that crossed it.
CALIBRATE_EVERY_S = 1.0
CALIBRATION_CHECKSUM = str(calibrate.work())
# Stop starting passes after this long, so that a run ends within 180 s
# even when the program has become much slower than the run length.
STOP_STARTING_S = 110.0
HARD_DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "checks_per_s": "1/s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FOLIADEX_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def calibration(env: dict, run_dir: Path) -> float:
    """Wall time of calibrate.py: how fast the machine runs right now."""
    inv = invoke([sys.executable, str(HERE / "calibrate.py")],
                 timeout_s=30.0, env=env, cwd=ROOT, run_dir=run_dir)
    problem = checks.exit_problem(inv)
    if problem or inv.stdout.strip() != CALIBRATION_CHECKSUM:
        raise SystemExit(f"calibrate.py failed: {problem or 'wrong checksum'}")
    return inv.wall_s


def setup_probes(env: dict, run_dir: Path, count: int) -> tuple[list[float], list[float]]:
    """Raw and reference-speed wall times of processes that only import
    foliadex.cli.  Each probe is scaled by the mean of the calibrations just
    before and just after it."""
    raw, scaled = [], []
    before = calibration(env, run_dir)
    for _ in range(count):
        inv = invoke([sys.executable, "-c", "import foliadex.cli"],
                     timeout_s=30.0, env=env, cwd=ROOT, run_dir=run_dir)
        problem = checks.exit_problem(inv)
        if problem:
            raise SystemExit(f"cannot import foliadex.cli: {problem}")
        after = calibration(env, run_dir)
        raw.append(inv.wall_s)
        scaled.append(inv.wall_s * REF_S / ((before + after) / 2))
        before = after
    return raw, scaled


def environment(env: dict, run_dir: Path) -> dict:
    inv = invoke([sys.executable, "-m", "foliadex.cli", "info", "--out", "json"],
                 timeout_s=30.0, env=env, cwd=ROOT, run_dir=run_dir)
    problem = checks.exit_problem(inv)
    if problem:
        raise SystemExit(f"foliadex info failed: {problem}")
    return {
        "kernel_backend": json.loads(inv.stdout)["kernel_backend"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def percentile(values: list[float], fraction: float) -> tuple[float, int]:
    """Linear-interpolated percentile and how many samples lie above it."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value, sum(1 for v in ordered if v > value)


def run_loop(workload, seed: int, seconds: float, trace: bool, env: dict, run_dir: Path):
    """Closed loop over passes; returns (passes, scales, attempted, failures).

    A pass holds one (Invocation, Verdict, Trace, untraced Invocation) per
    request; the last two are None without trace.  With trace, each request
    runs untraced and then traced, so that the pass measures its own
    tracing overhead.  Every pass is measured, also one whose request
    failed: a request killed at its timeout counts with the time it ran.

    scales holds one scale per request of each pass.  A calibration runs
    before the first request and after every request that ends
    CALIBRATE_EVERY_S or more after the last calibration; a request's scale
    is REF_S over the mean of the two calibrations that bracket it.
    """
    spans_path = run_dir / "spans.bin"
    plain = [sys.executable, "-m", "foliadex.cli"]
    traced = [sys.executable, str(HERE / "tracing.py"), str(spans_path)]
    started = time.perf_counter()

    def call(prefix, request):
        nonlocal attempted
        remaining = HARD_DEADLINE_S - (time.perf_counter() - started)
        inv = invoke(prefix + list(request.args),
                     timeout_s=min(request.timeout_s, remaining),
                     env=env, cwd=ROOT, run_dir=run_dir)
        attempted += 1
        verdict = request.check(inv)
        if verdict.error:
            failures.append(f"foliadex {' '.join(request.args)}: {verdict.error}")
        return inv, verdict

    passes, scales, failures, attempted = [], [], [], 0
    unscaled = []  # (scales of a pass, index) of requests since the last calibration
    before, calibrated = calibration(env, run_dir), time.perf_counter()

    def calibrate():
        nonlocal before, calibrated
        after = calibration(env, run_dir)
        for pass_scales, index in unscaled:
            pass_scales[index] = REF_S / ((before + after) / 2)
        unscaled.clear()
        before, calibrated = after, time.perf_counter()

    for requests in workload.passes(seed, run_dir):
        elapsed = time.perf_counter() - started
        if elapsed >= STOP_STARTING_S or (
            elapsed >= seconds and len(passes) >= workload.min_passes
        ):
            break
        done, pass_scales = [], []
        passes.append(done)
        scales.append(pass_scales)
        for request in requests:
            if not trace:
                done.append((*call(plain, request), None, None))
            else:
                untraced, _ = call(plain, request)
                spans_path.unlink(missing_ok=True)
                inv, verdict = call(traced, request)
                spans = tracing.load(spans_path) if spans_path.exists() else None
                done.append((inv, verdict, spans, untraced))
            pass_scales.append(None)
            unscaled.append((pass_scales, len(pass_scales) - 1))
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                calibrate()
    if unscaled:
        calibrate()
    return passes, scales, attempted, failures


def end_to_end(passes, scales, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed: every wall time is multiplied
    by its request's scale."""
    walls = [sum(inv.wall_s * scale for (inv, *_), scale in zip(p, ps))
             for p, ps in zip(passes, scales)]
    requests = [inv.wall_s * scale for p, ps in zip(passes, scales)
                for (inv, *_), scale in zip(p, ps)]
    p50, beyond_p50 = percentile(requests, 0.5)
    p90, beyond_p90 = percentile(requests, 0.9)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "req_p50_s": p50,
        "req_p90_s": p90,
        "checks_per_s": statistics.median(
            sum(v.checks for _, v, *_ in p) / w for p, w in zip(passes, walls)
        ),
        "records_per_s": statistics.median(
            sum(v.records for _, v, *_ in p) / w for p, w in zip(passes, walls)
        ),
        "peak_rss_mb": max(inv.maxrss_mb for p in passes for inv, *_ in p),
    }
    notes = {
        "raw_wall_s": statistics.median(sum(inv.wall_s for inv, *_ in p) for p in passes),
        "speed": statistics.median(scale for ps in scales for scale in ps),
        "passes": len(passes),
        "requests": len(requests),
        "beyond_p50": beyond_p50,
        "beyond_p90": beyond_p90,
    }
    return metrics, notes


def per_layer(passes) -> dict:
    per_pass = []
    for p in passes:
        if any(spans is None for _, _, spans, _ in p):
            continue
        per_pass.append(tracing.pass_metrics(
            [spans for _, _, spans, _ in p],
            [inv.wall_s for inv, *_ in p],
            [untraced.wall_s for *_, untraced in p],
            sum(len(inv.stdout.encode("utf-8")) for inv, *_ in p),
        ))
    if not per_pass:
        raise SystemExit("no pass produced a complete trace")
    return tracing.median_metrics(per_pass)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "foliadex" / "cli.py").is_file():
        print(f"error: no foliadex sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env()
        stamp = environment(env, run_dir)
        setup_probes(env, run_dir, 1)  # fills the bytecode cache
        # Half the set-up probes run before the loop and half after it, so
        # that their median does not hang on the machine's state at one moment.
        raw, scaled = setup_probes(env, run_dir, SETUP_PROBES // 2)
        passes, scales, attempted, failures = run_loop(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), env, run_dir
        )
        raw_after, scaled_after = setup_probes(env, run_dir, SETUP_PROBES // 2)
        setup_s = statistics.median(scaled + scaled_after)
        raw_setup_s = statistics.median(raw + raw_after)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1
    e2e, notes = end_to_end(passes, scales, setup_s)
    if args.trace:
        metrics, units = per_layer(passes), tracing.PER_LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {notes['passes']}  requests {notes['requests']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {units[name]}")
    print(f"  {'fail_ratio':28s} {len(failures) / attempted:>16.6f} ratio"
          f"  ({len(failures)} of {attempted} invocations)")
    if not args.trace:
        print(f"  raw wall times, not scaled: setup_s {raw_setup_s:.6f} s, "
              f"wall_s {notes['raw_wall_s']:.6f} s; the machine ran at "
              f"{notes['speed']:.3f} of reference speed (median over requests)")
        thin = [f"{q} has {notes['beyond_' + q]} samples beyond it"
                for q in ("p50", "p90") if notes["beyond_" + q] < 10]
        print(f"  latency samples: {notes['requests']}"
              + (f"; thin: {', '.join(thin)}" if thin else ""))
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
