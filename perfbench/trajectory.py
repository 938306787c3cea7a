"""Record a trajectory point over many seeds, or compare two checkouts.

    python3 perfbench/trajectory.py record --label 5ccf8db \
        --out perfbench/trajectory/5ccf8db.json
    python3 perfbench/trajectory.py compare PARENT_CHECKOUT CHANGE_CHECKOUT

`record` runs perfbench/run.py once per workload of BENCHMARK.json and seed
1-10 untraced, and seed 1-3 traced, as separate processes, each for the
run_seconds of BENCHMARK.json.  It stores for every metric its median,
first and third quartile (statistics.quantiles, n=4), the sample count and
the spread (q3 - q1) / median, with the environment stamp of the runs.  A
stored point is a record of where the program stood, not a baseline to
gate on: scaling to reference speed (see run.py) takes most of the
machine's drift out, but not all of it.

`compare` runs each checkout's own perfbench/run.py in alternating pairs,
one pair per workload and seed 1-10, so that both sides of a pair meet the
machine in the same state.  For each end-to-end metric it takes the
pair's change, oriented so that positive is worse, and reports the median
change against the metric's bound in the change's BENCHMARK.json.  A
metric whose runs on either side spread more than its bound is unresolved,
unless every run of the change reads better than every run of the parent.
It refuses
to compare runs whose kernel backends differ, because the compiled kernel
changes what is being measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def _benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=checkout, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    print(f"  {checkout.name} {workload} seed {seed} trace {trace}: "
          f"{result['failed']} of {result['attempted']} failed", file=sys.stderr)
    return env, result


def _summary(values: list[float], unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def _collect(workload, seeds, seconds, trace, envs) -> tuple[dict, int]:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed_runs = 0
    for seed in seeds:
        env, result = _run(ROOT, workload, seed, seconds, trace)
        envs.append(env)
        failed_runs += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: _summary(v, units[name]) for name, v in values.items()}, failed_runs


def _refuse_mixed_backends(envs: list[dict], what: str) -> bool:
    backends = {env["kernel_backend"] for env in envs}
    if len(backends) != 1:
        print(f"refusing to {what}: runs used kernel backends {sorted(backends)}", file=sys.stderr)
    return len(backends) != 1


def record(args) -> int:
    bench = _benchmark(ROOT)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    envs: list[dict] = []
    point = {"label": args.label, "run_seconds": seconds, "seeds": list(SEEDS),
             "traced_seeds": list(TRACED_SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        e2e, failed = _collect(workload, SEEDS, seconds, 0, envs)
        per_layer, traced_failed = _collect(workload, TRACED_SEEDS, seconds, 1, envs)
        point["workloads"][workload] = {
            "failed_runs": failed + traced_failed, "end_to_end": e2e, "per_layer": per_layer,
        }
        for name, s in e2e.items():
            flag = "  <-- above a third of its bound" if s["spread"] > bounds[name] / 3 else ""
            print(f"{workload:18s} {name:14s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
    if _refuse_mixed_backends(envs, "record"):
        return 1
    point["env"] = envs[0]
    Path(args.out).write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    return 0


def compare(args) -> int:
    old, new = Path(args.old).resolve(), Path(args.new).resolve()
    if old == new:
        raise SystemExit("compare needs two different checkouts")
    bench = _benchmark(new)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    envs: list[dict] = []
    worse_any = False
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[Path, dict[str, list[float]]] = {old: {}, new: {}}
        for seed in SEEDS:
            # Alternate which side runs first, so that a drift within a
            # pair does not always favour the same side.
            order = (old, new) if seed % 2 else (new, old)
            for checkout in order:
                env, result = _run(checkout, workload, seed, bench["run_seconds"], 0)
                envs.append(env)
                if not result["correct"]:
                    print(f"  {checkout.name} {workload} seed {seed}: "
                          f"{result['failed']} failed invocations", file=sys.stderr)
                for name in metrics:
                    values[checkout].setdefault(name, []).append(result["metrics"][name]["value"])
            if _refuse_mixed_backends(envs, "compare"):
                return 2
        for name, metric in metrics.items():
            bound, sign = metric["bound"], 1 if metric["better"] == "lower" else -1
            before, after = (_summary(values[side][name], "") for side in (old, new))
            changes = [sign * (a - b) / b for b, a in zip(before["values"], after["values"])]
            change = statistics.median(changes)
            wins = sum(c < 0 for c in changes)
            all_better = max(sign * v for v in after["values"]) < min(
                sign * v for v in before["values"])
            if max(before["spread"], after["spread"]) > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict, worse_any = "WORSE", True
            else:
                verdict = "ok"
            print(f"{workload:18s} {name:14s} {before['median']:.6g} -> {after['median']:.6g} "
                  f"{metric['unit']:5s} (spreads {before['spread']:.3f}, {after['spread']:.3f}) "
                  f"pairs {change:+.2%} worse, change better in {wins} of {len(changes)} "
                  f"(bound {bound:.0%}) {verdict}")
    return 1 if worse_any else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--label", required=True, help="the program commit measured")
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=record)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("old", help="checkout of the parent commit")
    cmp_.add_argument("new", help="checkout of the change")
    cmp_.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
