"""The three workloads: input preparation, one closed-loop pass, output checks.

Each workload runs in one process with one client: the next graph or lift
starts when the previous one has finished.  A pass processes every item of
the workload once; the runner repeats passes until its time is up.  Checks
run after the timed passes and read only what the passes wrote.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import hostspeed, inputs

N8_FIXTURE = Path("tests") / "data" / "connected_n8.g6"
LIFT_SET_CAP = 50  # minimum dominating sets lifted per graph, as the acceptance suite does


@dataclass
class PassResult:
    """What one pass did: per-item closed-loop times and outcome counts.

    item_s are the times as measured; ref_s are the same times at the
    reference host speed (see hostspeed.py).
    """

    wall_s: float
    item_s: list[float]
    attempted: int
    failed: int
    output_sha256: str = ""
    processed: int = 0
    skipped: int = 0
    ref_s: list[float] = field(default_factory=list)
    kernel_samples: int = 0


@dataclass
class Workload:
    """Base for a workload; subclasses fill in the three phases."""

    root: Path
    work: Path
    seed: int
    dd: object = None  # the imported domdist package
    passes: list[PassResult] = field(default_factory=list)
    probes: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    sample_every = hostspeed.EVERY  # items between host-speed samples

    def prepare(self, dd) -> None:
        raise NotImplementedError

    def run_pass(self, on_item: Callable[[int], None],
                 between: Callable[[int], None]) -> PassResult:
        """One pass; `between(done)` runs between items, outside their times."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def timed_pass(self, on_item: Callable[[int], None]) -> PassResult:
        sampler = hostspeed.Sampler(self.sample_every)
        # Each pass starts from the same collector state, so the collector's
        # pauses fall on the same items in every pass and stay in the
        # per-item minimum instead of landing in it by chance.
        gc.collect()
        result = self.run_pass(on_item, sampler)
        result.ref_s = [t * k for t, k in zip(result.item_s, sampler.scale(len(result.item_s)))]
        result.kernel_samples = len(sampler.kernel_s)
        self.passes.append(result)
        return result


def _dominates(adj: list[set[int]], chosen) -> bool:
    covered = set(chosen)
    for v in chosen:
        covered |= adj[v]
    return len(covered) == len(adj)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_SUMMARY = re.compile(r"^(processed|skipped|violations):\s+(\d+)$", re.M)


class _CliCorpus(Workload):
    """A corpus run through ``domdist verify --jsonl`` in-process."""

    corpus: Path
    argv_extra: tuple[str, ...] = ()

    def run_pass(self, on_item, between):
        harness = self.dd.harness
        cli = self.dd.cli
        jsonl = self.work / "out.jsonl"
        original = harness.iter_corpus
        item_s: list[float] = []
        clock = time.perf_counter

        # An item runs from reading its entry until the loop asks for the
        # next one, which it does only when it has finished this one.
        def clocked(path, fmt="graph6"):
            entries = original(path, fmt)
            index = 0
            while True:
                on_item(index)
                start = clock()
                entry = next(entries, None)
                if entry is None:
                    return
                yield entry
                item_s.append(clock() - start)
                index += 1
                between(index)

        out = io.StringIO()
        harness.iter_corpus = clocked
        try:
            start = clock()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", str(self.corpus), *self.argv_extra,
                                 "--jsonl", str(jsonl)])
            wall = clock() - start
        finally:
            harness.iter_corpus = original
        summary = {k: int(v) for k, v in _SUMMARY.findall(out.getvalue())}
        attempted = len(item_s)
        if code in (0, 1):
            failed = summary.get("skipped", 0) + summary.get("violations", 0)
        else:
            failed = max(attempted, 1)
        self.notes["exit_codes"] = sorted(set(self.notes.get("exit_codes", [])) | {code})
        return PassResult(
            wall_s=wall,
            item_s=item_s,
            attempted=max(attempted, 1),
            failed=failed,
            output_sha256=_sha256(jsonl) if jsonl.exists() else "",
            processed=summary.get("processed", 0),
            skipped=summary.get("skipped", 0),
        )

    def expected_items(self) -> int:
        raise NotImplementedError

    def check_lines(self, records: list[dict]) -> list[str]:
        raise NotImplementedError

    def check(self) -> list[str]:
        errors = []
        if self.notes["exit_codes"] != [0]:
            errors.append(f"exit codes {self.notes['exit_codes']}, expected [0]")
        want = self.expected_items()
        for k, p in enumerate(self.passes):
            if p.attempted != want or p.processed != want:
                errors.append(f"pass {k}: processed {p.processed} of {want}")
            if p.failed:
                errors.append(f"pass {k}: {p.failed} skipped or violating entries")
        shas = {p.output_sha256 for p in self.passes}
        if len(shas) != 1:
            errors.append(f"JSONL differs between passes: {sorted(shas)}")
        self.notes["jsonl_sha256"] = self.passes[-1].output_sha256
        jsonl = self.work / "out.jsonl"
        records = [json.loads(line) for line in jsonl.read_text(encoding="ascii").splitlines()]
        if len(records) != want:
            return errors + [f"JSONL has {len(records)} lines, expected {want}"]
        return errors + self.check_lines(records)


class CorpusN8(_CliCorpus):
    """All 11117 connected 8-vertex graphs; the seed sets the line order."""

    def prepare(self, dd) -> None:
        self.dd = dd
        self.lines = inputs.seeded_order(inputs.read_n8_corpus(self.root / N8_FIXTURE), self.seed)
        self.corpus = self.work / "corpus-n8.g6"
        self.corpus.write_text(inputs.graph6_text(self.lines), encoding="ascii")

    def expected_items(self) -> int:
        return inputs.N8_COUNT

    def check_lines(self, records):
        errors = []
        oracle, parse = self.dd.gamma_bruteforce_oracle, self.dd.parse_graph6
        for line, rec in zip(self.lines, records):
            if rec["graph"] != line:
                errors.append(f"{line}: JSONL is out of input order ({rec['graph']})")
            g = parse(line)
            if rec["gamma"] != oracle(g).gamma:
                errors.append(f"{line}: gamma {rec['gamma']} != brute-force oracle")
            witness = rec["gamma_witness"]
            if len(witness) != rec["gamma"] or not _dominates([set(a) for a in g.adj], witness):
                errors.append(f"{line}: witness {witness} is not a gamma-set")
            if len(errors) > 20:
                break
        return errors


def _parse_block(block: str) -> list[set[int]]:
    """Adjacency of one generated edge-list block, read without domdist."""
    adj: list[set[int]] = []
    for line in block.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "#":
            continue
        if tokens[0] == "n":
            adj = [set() for _ in range(int(tokens[1]))]
        else:
            u, v = int(tokens[0]), int(tokens[1])
            adj[u].add(v)
            adj[v].add(u)
    return adj


def ilp_gamma(adj: list[set[int]]) -> int:
    """Domination number as a set-cover ILP, solved by scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    n = len(adj)
    cover = lil_matrix((n, n))
    for v in range(n):
        for u in adj[v] | {v}:
            cover[v, u] = 1
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(cover.tocsr(), lb=np.ones(n), ub=np.full(n, np.inf)),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"ILP failed: {res.message}")
    return round(res.fun)


class LargeMixed(_CliCorpus):
    """40 trees, sparse random graphs, grids and spiders, all with n <= 62."""

    argv_extra = ("--format", "edgelist")
    sample_every = 1  # a pass is only 40 items, about 0.15 s each

    def prepare(self, dd) -> None:
        self.dd = dd
        self.blocks, self.probe_blocks = inputs.large_mixed_blocks(self.seed)
        self.corpus = self.work / "large-mixed.el"
        self.corpus.write_text(inputs.edgelist_text(self.blocks), encoding="ascii")
        self.probe = self.work / "long-form.el"
        self.probe.write_text(inputs.edgelist_text(self.probe_blocks), encoding="ascii")

    def expected_items(self) -> int:
        return len(self.blocks)

    def probe_long_form(self) -> None:
        """Count the n > 62 graphs that graph6 encoding rejects (untimed)."""
        dd = self.dd
        text = self.probe.read_text(encoding="ascii")
        rejected = 0
        for block in text.split("\n\n"):
            try:
                dd.encode_graph6(dd.parse_edgelist(block))
            except dd.InvalidGraph6:
                rejected += 1
        self.probes["graphs.long_form_rejected"] = rejected

    def check_lines(self, records):
        errors = []
        self.probe_long_form()
        for block, rec in zip(self.blocks, records):
            adj = _parse_block(block)
            name = block.splitlines()[0]
            if rec["n"] != len(adj):
                errors.append(f"{name}: JSONL n={rec['n']}, input n={len(adj)}")
                continue
            want = ilp_gamma(adj)
            if rec["gamma"] != want:
                errors.append(f"{name}: gamma {rec['gamma']} != ILP {want}")
            if len(rec["gamma_witness"]) != rec["gamma"] or not _dominates(adj, rec["gamma_witness"]):
                errors.append(f"{name}: witness {rec['gamma_witness']} is not a gamma-set")
        return errors


class LiftN8(Workload):
    """Lift and verify up to 50 minimum dominating sets of every n=8 graph."""

    def prepare(self, dd) -> None:
        self.dd = dd
        lines = inputs.seeded_order(inputs.read_n8_corpus(self.root / N8_FIXTURE), self.seed)
        self.corpus = self.work / "lift-n8.g6"
        self.corpus.write_text(inputs.graph6_text(lines), encoding="ascii")

    def run_pass(self, on_item, between):
        dd = self.dd
        clock = time.perf_counter
        item_s: list[float] = []
        # only the last pass is kept for the checks
        self.graphs, self.lifted = graphs, lifted = [], []
        failed = 0
        index = 0
        start = last = clock()
        with open(self.corpus, encoding="ascii") as fh:
            for line in fh:
                on_item(index)
                g = dd.parse_graph6(line)
                sets = dd.enumerate_min_dominating_sets(g)[:LIFT_SET_CAP]
                graphs.append(g)
                lifted.append(sets)
                for m in sets:
                    on_item(index)
                    try:
                        ok = dd.verify_lift(g, dd.lift_gamma_set_to_spanning_tree(g, m), m).ok
                    except dd.DomdistError:
                        ok = False
                    failed += not ok
                    item_s.append(clock() - last)
                    index += 1
                    between(index)
                    last = clock()
        wall = clock() - start
        return PassResult(wall_s=wall, item_s=item_s, attempted=max(index, 1), failed=failed)

    def check(self) -> list[str]:
        errors = [f"pass {k}: {p.failed} of {p.attempted} lifts not verified"
                  for k, p in enumerate(self.passes) if p.failed]
        counts = {p.attempted for p in self.passes}
        if len(counts) != 1:
            errors.append(f"lift counts differ between passes: {sorted(counts)}")
        oracle = self.dd.gamma_bruteforce_oracle
        for g, sets in zip(self.graphs, self.lifted):
            gamma = oracle(g).gamma
            adj = [set(a) for a in g.adj]
            if not sets or len(set(sets)) != len(sets):
                errors.append(f"{self.dd.encode_graph6(g)}: sets missing or repeated")
            elif any(len(m) != gamma or not _dominates(adj, m) for m in sets):
                errors.append(f"{self.dd.encode_graph6(g)}: a lifted set is not a gamma-set")
            if len(errors) > 20:
                break
        return errors


WORKLOADS: dict[str, type[Workload]] = {
    "corpus-n8": CorpusN8,
    "large-mixed": LargeMixed,
    "lift-n8": LiftN8,
}
