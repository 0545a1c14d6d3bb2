"""Tests of the benchmark's own code: inputs, tracer, statistics, runner."""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import domdist  # noqa: E402
import domdist.cli  # noqa: E402,F401
from perfbench import hostspeed, inputs, run, stats, tracer as tracing  # noqa: E402
from perfbench.workloads import CorpusN8, LargeMixed, _CliCorpus, ilp_gamma  # noqa: E402

SMALL_CORPUS = ROOT / "tests" / "data" / "connected_n6.g6"


# --- generators -------------------------------------------------------------

def test_large_mixed_is_deterministic_per_seed():
    assert inputs.large_mixed_blocks(7) == inputs.large_mixed_blocks(7)
    blocks_a, probe_a = inputs.large_mixed_blocks(7)
    blocks_b, probe_b = inputs.large_mixed_blocks(8)
    assert blocks_a != blocks_b
    assert sorted(blocks_a) == sorted(blocks_b)
    assert probe_a == probe_b


def test_large_mixed_families_and_orders():
    blocks, probe = inputs.large_mixed_blocks(1)
    graphs = [domdist.parse_edgelist(b) for b in blocks]
    assert len(graphs) == 40
    assert all(13 <= g.n <= 62 for g in graphs)
    assert [domdist.parse_edgelist(b).n > 62 for b in probe] == [True] * 4


@pytest.mark.parametrize("workload", [CorpusN8, LargeMixed])
def test_prepared_files_are_byte_identical_for_one_seed(tmp_path, workload):
    files = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        wl = workload(root=ROOT, work=work, seed=3)
        wl.prepare(domdist)
        files.append({p.name: p.read_bytes() for p in work.iterdir()})
    assert files[0] == files[1]
    other = tmp_path / "other"
    other.mkdir()
    workload(root=ROOT, work=other, seed=4).prepare(domdist)
    assert {p.name: p.read_bytes() for p in other.iterdir()} != files[0]


def test_n8_order_is_a_permutation():
    lines = inputs.read_n8_corpus(ROOT / "tests" / "data" / "connected_n8.g6")
    shuffled = inputs.seeded_order(lines, 5)
    assert shuffled != lines and sorted(shuffled) == sorted(lines)


# --- tracer ------------------------------------------------------------------

class _SmallCorpus(_CliCorpus):
    def prepare(self, dd) -> None:
        self.dd = dd
        self.corpus = SMALL_CORPUS


def test_traced_pass_writes_the_same_jsonl_bytes(tmp_path):
    wl = _SmallCorpus(root=ROOT, work=tmp_path, seed=0)
    wl.prepare(domdist)
    plain = wl.timed_pass(lambda index: None)
    original = domdist.gamma_exact
    with tracing.traced_domdist() as tr:
        assert domdist.gamma_exact is not original
        assert domdist.bounds.gamma_exact is domdist.gamma_exact
        traced = wl.timed_pass(lambda index: None)
    assert domdist.gamma_exact is original
    assert domdist.harness.gamma_exact is original
    assert plain.output_sha256 == traced.output_sha256 != ""
    assert plain.attempted == traced.attempted == 112
    layers = tr.layer_stats()
    assert layers["graphs.parse"].calls == 112
    assert layers["bounds.jsonl"].calls == 112
    assert layers["bounds.assemble"].calls == 112
    assert tr.counters["bounds.jsonl_bytes"] == (tmp_path / "out.jsonl").stat().st_size
    assert tr.counters["bounds.triples_scanned"] == 2 * 112 * math.comb(6, 3)
    assert tr.counters["bounds.r_subset_exhaustive"] == tr.counters["bounds.r_subset_checks"]


def test_time_between_items_is_left_out(tmp_path):
    wl = _SmallCorpus(root=ROOT, work=tmp_path, seed=0)
    wl.prepare(domdist)
    calls = []

    def between(done):
        calls.append(done)
        time.sleep(0.002)

    result = wl.run_pass(lambda index: None, between)
    assert calls == list(range(1, 113))
    assert sum(result.item_s) < result.wall_s - 112 * 0.002


def test_spans_nest_and_round_trip(tmp_path):
    tr = tracing.Tracer()
    inner = tr.wrap(lambda x: x + 1, "inner")
    outer = tr.wrap(lambda x: inner(x) * 2, "outer")
    tr.item = 4
    assert outer(1) == 4
    assert [tr.names[i] for i in tr.name_ids] == ["outer", "inner"]
    assert list(tr.parents) == [tracing.NO_PARENT, 0]
    assert list(tr.items) == [4, 4]
    assert tr.starts[0] <= tr.starts[1] <= tr.ends[1] <= tr.ends[0]
    tr.write(tmp_path / "t.spans")
    names, arrays = tracing.read_spans(tmp_path / "t.spans")
    assert names == tr.names
    assert list(arrays["ends"]) == list(tr.ends)
    assert list(arrays["parents"]) == list(tr.parents)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]; a second
    # root named "a" [10, 12] is aggregated with the first "a".
    names = ["root", "a", "b", "c"]
    name_ids = [0, 1, 2, 3, 1]
    starts = [0.0, 1.0, 5.0, 6.0, 10.0]
    ends = [10.0, 4.0, 9.0, 7.0, 12.0]
    parents = [tracing.NO_PARENT, 0, 0, 2, tracing.NO_PARENT]
    got = tracing.aggregate(names, name_ids, starts, ends, parents)
    assert (got["root"].total_s, got["root"].self_s) == (10.0, 3.0)
    assert (got["a"].calls, got["a"].total_s, got["a"].self_s) == (2, 5.0, 5.0)
    assert (got["b"].total_s, got["b"].self_s) == (4.0, 3.0)
    assert (got["c"].total_s, got["c"].self_s) == (1.0, 1.0)
    assert sum(s.self_s for s in got.values()) == 12.0


# --- statistics --------------------------------------------------------------

@pytest.mark.parametrize("n, p, above", [
    (20, 50.0, 10), (40, 75.0, 10), (100, 90.0, 10), (11117, 99.9, 11), (66922, 99.95, 33),
])
def test_tail_percentile_rule(n, p, above):
    assert stats.tail_percentile(n) == p
    assert stats.samples_above(p, n) == above


def test_tail_percentile_is_the_highest_with_ten_above():
    ladder = stats.PERCENTILE_LADDER
    for n in range(20, 3000):
        p = stats.tail_percentile(n)
        assert stats.samples_above(p, n) >= stats.MIN_ABOVE
        higher = ladder[ladder.index(p) + 1:]
        assert all(stats.samples_above(q, n) < stats.MIN_ABOVE for q in higher)


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(samples, 50.0) == 50.0
    assert stats.percentile(samples, 99.0) == 99.0
    assert stats.percentile(samples, 99.5) == 100.0


def test_item_best_is_per_item_across_passes():
    passes = [[1.0, 10.0, 5.0], [3.0, 20.0, 5.0], [2.0, 90.0, 4.0]]
    assert stats.item_best(passes) == [1.0, 10.0, 4.0]


def test_expected_best_averages_the_minimum_over_every_choice_of_k():
    passes = [[5.0, 1.0], [4.0, 2.0], [9.0, 9.0], [3.0, 8.0]]
    choices = list(itertools.combinations(passes, 2))
    want = [sum(min(c[0][j], c[1][j]) for c in choices) / len(choices) for j in range(2)]
    assert stats.expected_best(passes, 2) == pytest.approx(want)
    assert stats.expected_best(passes, 4) == stats.item_best(passes)
    assert stats.expected_best(passes, 1) == pytest.approx([5.25, 5.0])
    with pytest.raises(ValueError):
        stats.expected_best(passes, 5)


# --- host speed -------------------------------------------------------------

def test_scale_is_the_reference_over_the_median_of_nearby_samples():
    sampler = hostspeed.Sampler()
    sampler.positions = [0, 2, 4, 6]
    sampler.kernel_s = [1.0, 2.0, 4.0, 8.0]
    ref = hostspeed.REFERENCE_S
    # an item sees the samples taken before it (position <= item) and after it
    assert sampler.scale(8, half_window=1) == pytest.approx(
        [ref / x for x in (1.5, 1.5, 3.0, 3.0, 6.0, 6.0, 8.0, 8.0)])
    assert sampler.scale(3, half_window=10) == pytest.approx([ref / 3.0] * 3)
    with pytest.raises(ValueError):
        hostspeed.Sampler().scale(1)


def test_timed_pass_scales_item_times_by_host_speed(tmp_path):
    wl = _SmallCorpus(root=ROOT, work=tmp_path, seed=0)
    wl.prepare(domdist)
    result = wl.timed_pass(lambda index: None)
    assert result.kernel_samples == 112 // hostspeed.EVERY
    assert len(result.ref_s) == len(result.item_s) == 112
    ratios = {round(r / t, 9) for r, t in zip(result.ref_s, result.item_s)}
    assert 1 <= len(ratios) <= result.kernel_samples + 1


def test_kernel_is_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel() == 394056


# --- checks and runner ---------------------------------------------------------

@pytest.mark.parametrize("edges, n", [
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], 7),
    ([(0, i) for i in range(1, 6)], 6),
    ([(i, (i + 1) % 9) for i in range(9)], 9),
])
def test_ilp_matches_the_brute_force_oracle(edges, n):
    g = domdist.Graph.from_edges(n, edges)
    assert ilp_gamma([set(a) for a in g.adj]) == domdist.gamma_bruteforce_oracle(g).gamma


def test_benchmark_json_lists_the_runner_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)


def test_setup_times_are_from_process_start(tmp_path):
    times = run.setup_times("corpus-n8", 1, tmp_path, processes=2)
    assert len(times) == 2
    assert all(0 < t < 60 and 0 < ref < 600 for t, ref in times)
    assert list(tmp_path.iterdir()) == []


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
