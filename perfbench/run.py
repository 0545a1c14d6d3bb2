"""Run one domdist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-n8 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: domdist is imported from ./src and
the n=8 fixture is read from ./tests/data.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and prints the per-layer metrics.  Every run checks its outputs after the
timed passes.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
Spans and a result record with the machine, Python version and git SHA go to
./.perfbench_out/.  Exit code 0 when every check passes, 1 when one fails,
2 on a bad checkout or bad arguments.
"""

from __future__ import annotations

import time

PROCESS_START = time.clock_gettime(time.CLOCK_MONOTONIC)  # before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import hostspeed, stats, tracer as tracing  # noqa: E402
from perfbench.prepare import prepare  # noqa: E402
from perfbench.workloads import N8_FIXTURE, WORKLOADS  # noqa: E402

# setup_s is timed in fresh processes, this many before the first pass and
# after each pass: the host's slow spells last seconds, so set-ups spread
# over the run are not all caught by one of them.
SETUP_PROCESSES = 6
BEST_OF = 3  # an item's time is its shortest over this many passes
OUT_DIR = ".perfbench_out"

# Gated: these are the end-to-end metrics in BENCHMARK.json.
END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed and recorded, not gated: it is 0 on every correct run, and a gated
# metric must never be 0.
UNGATED = (
    ("failed_share", "ratio"),
)
# Per pass of the workload.  "_s" is the total time inside the layer's
# spans, "_self_s" excludes the time of traced calls made from inside them.
PER_LAYER = (
    ("graphs.parse_s", "s"),
    ("graphs.parse_calls", "count"),
    ("graphs.encode_s", "s"),
    ("graphs.long_form_rejected", "count"),
    ("distance.apsp_s", "s"),
    ("distance.apsp_calls", "count"),
    ("distance.boundary_s", "s"),
    ("distance.wiener_s", "s"),
    ("domination.gamma_exact_s", "s"),
    ("domination.gamma_exact_calls", "count"),
    ("domination.gamma_exact_max_ms", "ms"),
    ("domination.oracle_s", "s"),
    ("domination.oracle_calls", "count"),
    ("domination.enumerate_s", "s"),
    ("domination.min_sets", "count"),
    ("domination.masks_calls", "count"),
    ("domination.is_dominating_s", "s"),
    ("bounds.diameter_s", "s"),
    ("bounds.triple_s", "s"),
    ("bounds.r_subset.r3_s", "s"),
    ("bounds.r_subset.r4_s", "s"),
    ("bounds.r_subset.r5_s", "s"),
    ("bounds.triple_equality_s", "s"),
    ("bounds.average_distance_s", "s"),
    ("bounds.boundary_ecc_s", "s"),
    ("bounds.assemble_self_s", "s"),
    ("bounds.triples_scanned", "count_computed"),
    ("bounds.r_subset_subsets", "count_computed"),
    ("bounds.r_subset_checks", "count"),
    ("bounds.r_subset_exhaustive_ratio", "ratio"),
    ("bounds.jsonl_s", "s"),
    ("bounds.jsonl_bytes", "bytes"),
    ("harness.verify_self_s", "s"),
    ("harness.skipped", "count"),
    ("treelift.lift_self_s", "s"),
    ("treelift.verify_self_s", "s"),
    ("treelift.verify_calls", "count"),
    ("treelift.verify_ok_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():  # not a clone; do not report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    uname = platform.uname()
    return {
        "machine": f"{uname.node} {uname.machine}",
        "system": f"{uname.system} {uname.release}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
    }


def run_passes(workload, seconds=0.0, minimum=1, on_item=lambda index: None,
               after_pass=lambda: None):
    """Closed-loop passes, at least `minimum`, until `seconds` have gone by."""
    start = time.perf_counter()
    done = []
    while len(done) < minimum or time.perf_counter() - start < seconds:
        done.append(workload.timed_pass(on_item))
        after_pass()
    return done


def setup_times(workload: str, seed: int, work: Path, processes: int) -> list[tuple[float, float]]:
    """Set-up times of fresh processes, each from its start until its inputs are ready.

    Each is returned as measured and at the reference host speed, read from
    kernel calls just before and just after the process.
    """
    times = []
    for k in range(processes):
        target = work / f"setup-{k}"
        before = hostspeed.speed_scale()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--work", str(target)],
            capture_output=True, text=True, timeout=120, check=False)
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
        took = float(proc.stdout.split()[-1]) - start
        times.append((took, took * (before + hostspeed.speed_scale()) / 2))
    return times


def timings(item_passes: list[list[float]], setups: list[float]) -> dict:
    # Every pass does the same deterministic work on the same items in the
    # same order, so an item's times differ between passes only by what the
    # machine adds (other tenants stall the process for seconds at a time).
    # Its shortest time over BEST_OF passes estimates what the program costs,
    # averaged over every choice of BEST_OF of the run's passes: a minimum
    # over all of them would read lower the more passes fit in the run.
    item_s = stats.expected_best(item_passes, BEST_OF)
    tail_p = stats.tail_percentile(len(item_s))
    return {
        "items_per_s": len(item_s) / sum(item_s),
        "item_p50_ms": statistics.median(item_s) * 1e3,
        "item_tail_ms": stats.percentile(item_s, tail_p) * 1e3,
        "setup_s": statistics.median(setups),
    }


def end_to_end(passes, setups) -> tuple[dict, dict]:
    # Gated times are at the reference host speed; the times as measured
    # are kept in the notes.
    values = timings([p.ref_s for p in passes], [ref for _, ref in setups])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(passes[0].item_s)
    tail_p = stats.tail_percentile(n)
    notes = {
        "tail_percentile": tail_p,
        "tail_samples": n,
        "tail_samples_above": stats.samples_above(tail_p, n),
        "as_measured": timings([p.item_s for p in passes], [raw for raw, _ in setups]),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_kernel_samples": [p.kernel_samples for p in passes],
        "setup_runs_s": setups,
    }
    return values, notes


def per_layer(tr, workload, traced, untraced) -> tuple[dict, dict]:
    layers = tr.layer_stats()
    empty = tracing.LayerStats()
    k = len(traced)

    def total(name):
        return layers.get(name, empty).total_s / k

    def own(name):
        return layers.get(name, empty).self_s / k

    def calls(name):
        return layers.get(name, empty).calls / k

    def counter(name):
        return tr.counters.get(name, 0) / k

    def ratio(part, whole):
        return tr.counters.get(part, 0) / whole if whole else 0.0

    slowest_s, slowest_graph = tr.slowest.get("domination.gamma_exact", (0.0, None))
    verify_calls = layers.get("treelift.verify", empty).calls
    values = {
        "graphs.parse_s": total("graphs.parse"),
        "graphs.parse_calls": calls("graphs.parse"),
        "graphs.encode_s": total("graphs.encode"),
        "graphs.long_form_rejected": workload.probes.get("graphs.long_form_rejected", 0),
        "distance.apsp_s": total("distance.apsp"),
        "distance.apsp_calls": calls("distance.apsp"),
        "distance.boundary_s": total("distance.boundary"),
        "distance.wiener_s": total("distance.wiener"),
        "domination.gamma_exact_s": total("domination.gamma_exact"),
        "domination.gamma_exact_calls": calls("domination.gamma_exact"),
        "domination.gamma_exact_max_ms": slowest_s * 1e3,
        "domination.oracle_s": total("domination.oracle"),
        "domination.oracle_calls": calls("domination.oracle"),
        "domination.enumerate_s": total("domination.enumerate"),
        "domination.min_sets": counter("domination.min_sets"),
        "domination.masks_calls": calls("domination.masks"),
        "domination.is_dominating_s": total("domination.is_dominating"),
        "bounds.diameter_s": total("bounds.diameter"),
        "bounds.triple_s": total("bounds.triple"),
        "bounds.r_subset.r3_s": total("bounds.r_subset.r3"),
        "bounds.r_subset.r4_s": total("bounds.r_subset.r4"),
        "bounds.r_subset.r5_s": total("bounds.r_subset.r5"),
        "bounds.triple_equality_s": total("bounds.triple_equality"),
        "bounds.average_distance_s": total("bounds.average_distance"),
        "bounds.boundary_ecc_s": total("bounds.boundary_ecc"),
        "bounds.assemble_self_s": own("bounds.assemble"),
        "bounds.triples_scanned": counter("bounds.triples_scanned"),
        "bounds.r_subset_subsets": counter("bounds.r_subset_subsets"),
        "bounds.r_subset_checks": counter("bounds.r_subset_checks"),
        "bounds.r_subset_exhaustive_ratio": ratio(
            "bounds.r_subset_exhaustive", tr.counters.get("bounds.r_subset_checks", 0)),
        "bounds.jsonl_s": total("bounds.jsonl"),
        "bounds.jsonl_bytes": counter("bounds.jsonl_bytes"),
        "harness.verify_self_s": own("harness.verify"),
        "harness.skipped": sum(p.skipped for p in traced) / k,
        "treelift.lift_self_s": own("treelift.lift"),
        "treelift.verify_self_s": own("treelift.verify"),
        "treelift.verify_calls": verify_calls / k,
        "treelift.verify_ok_ratio": ratio("treelift.verify_ok", verify_calls),
        "trace.overhead_s": (sum(stats.item_best([p.ref_s for p in traced]))
                             - sum(stats.item_best([p.ref_s for p in untraced]))),
        "trace.spans": len(tr.starts) / k,
    }
    notes = {
        "traced_passes": k,
        "slowest_gamma_graph": (workload.dd.encode_graph6(slowest_graph)
                                if slowest_graph is not None else None),
        "layers": {name: vars(s) for name, s in sorted(layers.items())},
    }
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (Path("src") / "domdist" / "__init__.py", N8_FIXTURE)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a domdist checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    out = ROOT / OUT_DIR
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, out, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, out: Path, work: Path) -> int:
    workload = prepare(args.workload, args.seed, work)
    process_setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - PROCESS_START

    if args.trace:
        # Untraced and traced passes alternate, so that both sample the same
        # spells of the host and trace.overhead_s compares like with like.
        tr = tracing.Tracer()
        untraced, traced = [], []
        base = 0

        def on_item(index):
            tr.item = base + index

        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(workload.timed_pass(lambda index: None))
            with tracing.traced_domdist(tr):
                traced.append(workload.timed_pass(on_item))
            base += traced[-1].attempted
        errors = workload.check()
        values, notes = per_layer(tr, workload, traced, untraced)
        units = PER_LAYER
        tr.write(out / f"{args.workload}.spans")
        passes = untraced + traced
    else:
        setups = []

        def set_up_elsewhere():
            setups.extend(setup_times(args.workload, args.seed, work, SETUP_PROCESSES))

        set_up_elsewhere()
        passes = run_passes(workload, seconds=args.seconds, minimum=BEST_OF,
                            after_pass=set_up_elsewhere)
        values, notes = end_to_end(passes, setups)
        errors = workload.check()
        units = END_TO_END
    notes["process_setup_s"] = process_setup_s

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not errors and failed == 0
    values["failed_share"] = failed / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    ungated = {name: {"value": values[name], "unit": unit}
               for name, unit in UNGATED if name in values}
    env = environment()
    notes.update(workload.notes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "passes": len(passes),
        "attempted": attempted, "failed": failed, "errors": errors, "notes": notes,
        "metrics": metrics, "ungated": ungated,
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes={len(passes)} attempted={attempted} failed={failed}")
    for key in ("tail_percentile", "tail_samples", "tail_samples_above", "jsonl_sha256",
                "slowest_gamma_graph"):
        if key in notes:
            print(f"{key}={notes[key]}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6f} {m['unit']}")
    for name, m in ungated.items():
        print(f"  {name:<36} {m['value']:>16.6f} {m['unit']} (not gated)")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    print("checks: " + ("ok" if correct else "FAILED"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
