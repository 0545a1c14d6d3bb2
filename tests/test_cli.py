import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import domdist
from domdist import bounds, cli, treelift
from domdist.cli import build_parser, main

import corpusgen


@pytest.fixture
def n4_corpus():
    return str(corpusgen.corpus_path(4))


class TestAnalyze:
    def test_edgelist_file(self, tmp_path, capsys):
        path = tmp_path / "p4.el"
        path.write_text("n 4\n0 1\n1 2\n2 3\n")
        assert main(["analyze", str(path), "--format", "edgelist"]) == 0
        out = capsys.readouterr().out
        assert "gamma: 2" in out
        assert "diameter" in out and "EQUALITY" in out
        assert "fatal: False" in out

    def test_literal_graph6(self, capsys):
        assert main(["analyze", "Cs"]) == 0
        out = capsys.readouterr().out
        assert "gamma: 1" in out

    def test_jsonl_sidecar(self, tmp_path, capsys):
        out_path = tmp_path / "report.jsonl"
        assert main(["analyze", "Ch", "--jsonl", str(out_path)]) == 0
        record = json.loads(out_path.read_text())
        assert record["graph"] == "Ch"
        assert record["gamma"] == 2

    def test_jsonl_naming_the_graph_file_exits_2_and_keeps_it(self, tmp_path, capsys):
        graph = tmp_path / "g.g6"
        graph.write_bytes(b"Ch\n")
        sidecar = os.path.join(tmp_path, ".", "g.g6")  # another spelling of the same file
        assert main(["analyze", str(graph), "--jsonl", sidecar]) == 2
        assert "is the graph file itself" in capsys.readouterr().err
        assert graph.read_bytes() == b"Ch\n"
        assert main(["analyze", str(graph)]) == 0

    def test_bad_graph_exits_2(self, capsys):
        assert main(["analyze", "A?"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_edgelist_file_exits_2(self, capsys):
        assert main(["analyze", "nosuchfile.el", "--format", "edgelist"]) == 2

    def test_r5_over_budget_prints_skipped(self, tmp_path, capsys):
        path = tmp_path / "p32.el"
        path.write_text("n 32\n" + "".join(f"{i} {i + 1}\n" for i in range(31)))
        assert main(["analyze", str(path), "--format", "edgelist"]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "r-subset:5" in line)
        assert row.split() == ["r-subset:5", "skipped", "(budget)"]
        assert "fatal: False" in out

    def test_huge_r_is_skipped_without_enumerating(self, monkeypatch, capsys):
        def no_scan(*args, **kwargs):
            raise AssertionError("r-subset scan started")

        monkeypatch.setattr(bounds, "r_subset_lb", no_scan)
        assert main(["analyze", "Cl", "--r", "3,1000000"]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "r-subset:1000000" in line)
        assert row.split() == ["r-subset:1000000", "skipped", "(r=1000000", "exceeds", "n=4)"]

    @pytest.mark.parametrize("command", ["analyze", "lift"])
    def test_order_graph6_cannot_name_exits_2_before_gamma(self, tmp_path, monkeypatch, capsys,
                                                            command):
        def no_gamma(*args, **kwargs):
            raise AssertionError("gamma solved")

        for module in (bounds, cli, treelift):
            monkeypatch.setattr(module, "gamma_exact", no_gamma)
        rng = random.Random(5)
        path = tmp_path / "tree70.el"
        path.write_text("n 70\n" + "".join(f"{v} {rng.randrange(v)}\n" for v in range(1, 70)))
        assert main([command, str(path), "--format", "edgelist"]) == 2
        assert "short-form graph6 supports n <= 62" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "lift"])
    @pytest.mark.parametrize("fmt, data", [
        ("graph6", b"\xe9\xff\n"),
        ("edgelist", b"n 3\n0 1\n1 \xe9\n"),
    ])
    def test_undecodable_file_exits_2(self, tmp_path, capsys, command, fmt, data):
        path = tmp_path / "bad"
        path.write_bytes(data)
        assert main([command, str(path), "--format", fmt]) == 2
        assert "error:" in capsys.readouterr().err

    def test_graph6_header_line_accepted(self, tmp_path, capsys):
        path = tmp_path / "c4.g6"
        path.write_text(">>graph6<<\nCl\n")
        assert main(["analyze", str(path)]) == 0
        assert "graph: Cl  n=4" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "lift"])
    def test_graph6_control_character_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "ctl.g6"
        path.write_bytes(b"Bw\x1f\n")
        assert main([command, str(path)]) == 2
        assert "outside graph6 alphabet" in capsys.readouterr().err

    def test_huge_header_order_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.el"
        path.write_text("n 200000\n0 1\n")
        assert main(["analyze", str(path), "--format", "edgelist"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, text", [
        ("graph6", ">>graph6<<\n"),
        ("edgelist", "\n\n"),
    ])
    def test_file_without_a_graph_exits_2(self, tmp_path, capsys, fmt, text):
        path = tmp_path / "empty"
        path.write_text(text)
        assert main(["analyze", str(path), "--format", fmt]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, expected", [
        ("analyze", "graph: Bg  n=3"),
        ("lift", "gamma set: [1]"),
    ])
    def test_first_edgelist_block_is_read(self, tmp_path, capsys, command, expected):
        # the same two blocks that verify --format edgelist reads as two graphs
        path = tmp_path / "two.el"
        path.write_text("n 3\n0 1\n1 2\n\nn 4\n0 1\n1 2\n2 3\n")
        assert main([command, str(path), "--format", "edgelist"]) == 0
        assert expected in capsys.readouterr().out.splitlines()

    def test_comment_only_block_is_passed_over(self, tmp_path, capsys):
        path = tmp_path / "c.el"
        path.write_text("# a comment\n\nn 2\n0 1\n")
        assert main(["analyze", str(path), "--format", "edgelist"]) == 0
        assert "graph: A_  n=2" in capsys.readouterr().out.splitlines()


class TestVerify:
    def test_bundled_corpus_passes(self, n4_corpus, capsys):
        assert main(["verify", n4_corpus]) == 0
        out = capsys.readouterr().out
        assert "processed: 6" in out
        assert "violations: 0" in out

    def test_jsonl_written(self, n4_corpus, tmp_path, capsys):
        out_path = tmp_path / "out.jsonl"
        assert main(["verify", n4_corpus, "--jsonl", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 6
        assert all(json.loads(line)["fatal"] is False for line in lines)

    def test_jsonl_byte_identical_across_runs(self, n4_corpus, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["verify", n4_corpus, "--jsonl", str(a)]) == 0
        assert main(["verify", n4_corpus, "--jsonl", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_naming_the_corpus_exits_2_and_keeps_it(self, n4_corpus, tmp_path, capsys):
        corpus = tmp_path / "c.g6"
        data = Path(n4_corpus).read_bytes()
        corpus.write_bytes(data)
        sidecar = os.path.join(tmp_path, ".", "c.g6")  # another spelling of the same file
        assert main(["verify", str(corpus), "--jsonl", sidecar]) == 2
        assert "is the corpus itself" in capsys.readouterr().err
        assert corpus.read_bytes() == data

    def test_jsonl_matches_golden_capture(self, tmp_path, capsys):
        # the JSONL contract is byte-identical output: this pins the sha256
        # and size of the whole n=7 report stream
        corpus = Path(__file__).resolve().parent / "data" / "connected_n7.g6"
        out_path = tmp_path / "n7.jsonl"
        assert main(["verify", str(corpus), "--jsonl", str(out_path)]) == 0
        data = out_path.read_bytes()
        assert len(data) == 1_282_456
        assert hashlib.sha256(data).hexdigest() == (
            "1f79fee0d398878eaf52ed37a8f5741bfab0bdd92fc973654e24b8b76a4d9704")

    def test_bad_line_tolerated_by_default(self, tmp_path, capsys):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bw\nA?\n")
        assert main(["verify", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "skipped:   1" in out

    def test_bad_line_strict_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bw\nA?\n")
        assert main(["verify", str(corpus), "--strict"]) == 2

    def test_strict_jsonl_keeps_the_reports_before_the_bad_line(self, tmp_path, capsys):
        good = tmp_path / "good.g6"
        good.write_text("Bw\n")
        expected = tmp_path / "expected.jsonl"
        assert main(["verify", str(good), "--jsonl", str(expected)]) == 0
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bw\n!!!notgraph6\nCs\n")
        out_path = tmp_path / "out.jsonl"
        assert main(["verify", str(corpus), "--strict", "--jsonl", str(out_path)]) == 2
        assert out_path.read_bytes() == expected.read_bytes()
        assert len(expected.read_bytes().splitlines()) == 1

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                             ids=["missing", "directory"])
    def test_unreadable_corpus_exits_2_without_a_sidecar(self, make, tmp_path, capsys):
        corpus = tmp_path / "corpus.g6"
        make(corpus)
        out_path = tmp_path / "out.jsonl"
        assert main(["verify", str(corpus), "--jsonl", str(out_path)]) == 2
        assert not out_path.exists()

    def test_undecodable_line_is_skipped(self, tmp_path, capsys):
        corpus = tmp_path / "c.g6"
        corpus.write_bytes(b"Bw\n\xe9\xff\n")
        assert main(["verify", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "processed: 1" in out
        assert "skipped:   1" in out
        assert "line 2: InvalidGraph6" in out

    def test_undecodable_line_strict_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.g6"
        corpus.write_bytes(b"Bw\n\xe9\xff\n")
        assert main(["verify", str(corpus), "--strict"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_undecodable_edgelist_block_is_skipped(self, tmp_path, capsys):
        corpus = tmp_path / "c.el"
        corpus.write_bytes(b"n 3\n0 1\n1 2\n\nn 3\n0 \xe9\n1 2\n")
        assert main(["verify", str(corpus), "--format", "edgelist"]) == 0
        out = capsys.readouterr().out
        assert "processed: 1" in out
        assert "skipped:   1" in out

    def test_comment_only_block_is_no_entry(self, tmp_path, capsys):
        corpus = tmp_path / "c.el"
        corpus.write_text("# a comment\n\nn 2\n0 1\n")
        assert main(["verify", str(corpus), "--format", "edgelist", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "processed: 1" in out
        assert "skipped:   0" in out

    def test_budget_skips_counted_on_stderr(self, tmp_path, capsys):
        # C(32, 5) = 201,376 exceeds the subset budget; stdout is as before
        path = tmp_path / "p32.el"
        path.write_text("n 32\n" + "".join(f"{i} {i + 1}\n" for i in range(31)))
        assert main(["verify", str(path), "--format", "edgelist"]) == 0
        captured = capsys.readouterr()
        assert "processed: 1" in captured.out
        assert "r-subset:5" not in captured.out
        assert captured.err == "budget-skipped: 1\n"

    def test_clean_corpus_prints_nothing_on_stderr(self, n4_corpus, capsys):
        assert main(["verify", n4_corpus]) == 0
        assert capsys.readouterr().err == ""

    def test_failing_spade_diagnostic_is_named(self, monkeypatch, capsys):
        # plant a failed triple-distance diagnostic on every graph that has one
        real = bounds.boundary_ecc_lb

        def failing_spade(gamma, dm):
            c = real(gamma, dm)
            spade = c.detail["spade"]
            if spade is None:
                return c
            return c._replace(detail=c.detail | {"spade": spade | {"ok": False}})

        monkeypatch.setattr(bounds, "boundary_ecc_lb", failing_spade)
        assert main(["verify", str(corpusgen.corpus_path(5))]) == 1
        out = capsys.readouterr().out
        named = [line for line in out.splitlines() if line.endswith(": boundary-ecc-spade")]
        assert "violations: 16" in out
        assert len(named) == 16

    def test_failing_mod3_corollary_is_named(self, monkeypatch, capsys):
        # plant an equality triple with distances not 2 (mod 3) on every graph
        bad = bounds.TripleEquality(triple=(0, 1, 2), dists=(1, 1, 1), mod3_ok=False)
        monkeypatch.setattr(bounds, "triple_equality_analysis", lambda gamma, dm: (bad,))
        assert main(["verify", str(corpusgen.corpus_path(4))]) == 1
        out = capsys.readouterr().out
        named = [line for line in out.splitlines() if line.endswith(": triple-mod3")]
        assert "violations: 6" in out
        assert len(named) == 6

    def test_missing_corpus_exits_2(self, capsys):
        assert main(["verify", "nosuchcorpus.g6"]) == 2


class TestTight:
    def test_triple_lists_star(self, n4_corpus, capsys):
        assert main(["tight", n4_corpus, "--bound", "triple"]) == 0
        # K_{1,3} appears in the corpus as "CF" (center at vertex 3)
        assert "CF" in capsys.readouterr().out.splitlines()

    def test_undecodable_line_is_skipped_like_any_malformed_line(self, tmp_path, capsys):
        # tight has no --strict: a line that does not decode is dropped like "A?"
        corpus = tmp_path / "c.g6"
        corpus.write_bytes(b"Bw\n\xe9\xff\nA?\n")
        assert main(["tight", str(corpus), "--bound", "diameter"]) == 0
        assert capsys.readouterr().out.splitlines() == ["Bw"]

    def test_malformed_entries_counted_on_stderr(self, tmp_path, capsys):
        corpus = tmp_path / "c.g6"
        corpus.write_text("Bw\nA?\n")
        assert main(["tight", str(corpus), "--bound", "diameter"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["Bw"]
        assert captured.err == "skipped: 1\n"

    def test_clean_corpus_prints_nothing_on_stderr(self, n4_corpus, capsys):
        assert main(["tight", n4_corpus, "--bound", "diameter"]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_bound_exits_2(self, n4_corpus, capsys):
        assert main(["tight", n4_corpus, "--bound", "nope"]) == 2

    def test_budget_skips_counted_on_stderr(self, tmp_path, capsys):
        # C(32, 5) = 201,376 exceeds the subset budget
        path = tmp_path / "p32.el"
        path.write_text("n 32\n" + "".join(f"{i} {i + 1}\n" for i in range(31)))
        assert main(["tight", str(path), "--format", "edgelist", "--bound", "r-subset:5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget-skipped: 1\n"

    @pytest.mark.parametrize("bound, scanned", [
        ("diameter", []),
        ("r-subset:3", []),
        ("r-subset:4", [4]),
        ("r-subset(5)", [5]),
    ])
    def test_scans_only_the_listed_r(self, monkeypatch, capsys, bound, scanned):
        calls = []
        real = bounds.r_subset_lb

        def recording(gamma, dm, r):
            calls.append(r)
            return real(gamma, dm, r)

        monkeypatch.setattr(bounds, "r_subset_lb", recording)
        assert main(["tight", str(corpusgen.corpus_path(5)), "--bound", bound]) == 0
        assert sorted(set(calls)) == scanned

    def test_r_is_not_an_option(self, n4_corpus, capsys):
        # tight works out its subset size from --bound
        with pytest.raises(SystemExit) as exc:
            main(["tight", n4_corpus, "--bound", "r-subset:4", "--r", "3"])
        assert exc.value.code == 2


class TestLift:
    def test_default_witness_set(self, capsys):
        # C4 as a literal graph6 string
        assert main(["lift", "Cl"]) == 0
        out = capsys.readouterr().out
        assert "tree edges:" in out
        assert "verified: True" in out

    def test_explicit_set(self, capsys):
        assert main(["lift", "Cl", "--set", "0,2"]) == 0
        out = capsys.readouterr().out
        assert "gamma set: [0, 2]" in out
        assert "verified: True" in out

    def test_graph6_header_line_accepted(self, tmp_path, capsys):
        path = tmp_path / "c4.g6"
        path.write_text(">>graph6<<\nCl\n")
        assert main(["lift", str(path), "--set", "0,2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "gamma set: [0, 2]",
            "tree edges: [(0, 1), (0, 3), (1, 2)]",
            "dominators: {1: 0, 3: 0}",
            "connector edges: [(1, 2)]",
            "verified: True",
        ]

    def test_non_gamma_set_exits_2(self, capsys):
        assert main(["lift", "Cl", "--set", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_max_enum_is_no_longer_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lift", "Cl", "--max-enum", "20"])
        assert exc.value.code == 2


class TestCounterexample:
    def test_runs_clean(self, capsys):
        assert main(["counterexample"]) == 0
        out = capsys.readouterr().out
        assert "gamma = 2" in out
        assert "claim refuted" in out


class TestUsage:
    def test_python_dash_m(self):
        src = str(Path(domdist.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-m", "domdist", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage: domdist" in done.stdout

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_r_list(self, n4_corpus, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", n4_corpus, "--r", "1,2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "corpus.g6", "--r", "3,x"],
        ["lift", "Cl", "--set", "0,x"],
    ])
    def test_non_integer_list_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "bad" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "Bw", "--r", "1_0"],
        ["analyze", "Bw", "--r", "\uff14"],
        ["lift", "Ch", "--set", "1,\u0662"],
        ["tight", "{corpus}", "--bound", "r-subset:1_0"],
        ["tight", "{corpus}", "--bound", "r-subset(\uff14)"],
    ], ids=["r-underscore", "r-fullwidth", "set-arabic-indic", "bound-underscore",
            "bound-fullwidth"])
    def test_integers_are_ascii_decimal(self, argv, tmp_path, capsys):
        # int() alone reads "1_0" as 10 and a full-width or Arabic-Indic digit
        # as its value
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("Bw\nCh\n")
        try:
            code = main([arg.format(corpus=corpus) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "bad" in capsys.readouterr().err

    def test_list_items_may_be_padded(self, capsys):
        assert main(["analyze", "Ch", "--r", " 3, 4 "]) == 0
        assert main(["lift", "Ch", "--set", "1, 2"]) == 0

    def test_option_strings_per_subcommand(self):
        # adding, renaming or dropping a flag means editing this table
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {
            name: sorted(s for a in p._actions for s in a.option_strings
                         if s not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        assert options == {
            "analyze": ["--format", "--jsonl", "--r"],
            "verify": ["--format", "--jsonl", "--r", "--strict"],
            "tight": ["--bound", "--format"],
            "lift": ["--format", "--set"],
            "counterexample": [],
        }
