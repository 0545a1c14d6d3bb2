"""Set up one workload in a fresh process, as a user's run would.

    python3 perfbench/prepare.py --workload corpus-n8 --seed 1 --work DIR

Imports domdist and its CLI from ./src, writes the workload's seeded inputs
into DIR, and prints the CLOCK_MONOTONIC time at which they are ready.
run.py starts this several times and reports as setup_s the median time from
starting the process until that moment.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def import_domdist():
    """Import domdist and domdist.cli from this checkout's ./src."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    dd = importlib.import_module("domdist")
    importlib.import_module("domdist.cli")
    if Path(dd.__file__).resolve().parent != (ROOT / "src" / "domdist").resolve():
        raise ImportError(f"domdist came from {dd.__file__}, not from this checkout")
    return dd


def prepare(name: str, seed: int, work: Path):
    """The named workload with its inputs written into `work`."""
    workload = WORKLOADS[name](root=ROOT, work=work, seed=seed)
    workload.prepare(import_domdist())
    return workload


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--work", required=True, type=Path)
    args = p.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    prepare(args.workload, args.seed, args.work)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
