"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads corpus-n8,lift-n8 --seeds 1-10 \
        [--trace 0] [--out FILE [--key KEY]] [--against FILE]

Each (workload, seed) runs perfbench/run.py in its own process, one after
another, with run_seconds from BENCHMARK.json.  For every metric the report
gives the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the spread (Q3 - Q1) / median; an end-to-end metric is marked when
its spread is not below a third of its bound.  --out stores every value plus
the summary under KEY (default "trace0" or "trace1") of a JSON file,
keeping the other keys; perfbench/baseline.json is recorded that way.  --against FILE compares
each end-to-end median with the one stored in FILE and marks a metric whose
median is worse by more than its bound.  Exit code 1 when a metric is
marked either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import environment  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out")
    p.add_argument("--key")
    p.add_argument("--against")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    against = {}
    if args.against:
        against = json.loads(Path(args.against).read_text())[f"trace{args.trace}"]["workloads"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = seed_range(args.seeds)
    report: dict = {"env": environment(), "seeds": seeds, "trace": args.trace,
                    "run_seconds": bench["run_seconds"], "workloads": {}}
    passed = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: checks failed")
            runs.append(result)
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) | {
                   "unit": units.get(name)} for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": summary,
        }
        for name, s in summary.items():
            flag = ""
            if name in bounds and s["spread"] is not None:
                ok = s["spread"] < bounds[name] / 3
                passed &= ok
                flag = f"bound={bounds[name]} {'ok' if ok else 'WIDE'}"
            before = against.get(workload, {}).get("metrics", {}).get(name)
            if name in bounds and before:
                change = s["median"] / before["median"] - 1
                worse = -change if better[name] == "higher" else change
                passed &= worse <= bounds[name]
                flag += f" vs={change:+.4f} {'ok' if worse <= bounds[name] else 'WORSE'}"
            spread = f"{s['spread']:.4f}" if s["spread"] is not None else "-"
            print(f"  {workload:<12} {name:<36} median={s['median']:<14.6g} "
                  f"spread={spread:<8} {flag}", flush=True)
    if args.out:
        path = Path(args.out)
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored[args.key or f"trace{args.trace}"] = report
        path.write_text(json.dumps(stored, indent=1) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
