import hashlib
import json
from pathlib import Path

import pytest

from domdist.cli import main
from domdist.corpora import bundled_corpus_path


@pytest.fixture
def n4_corpus():
    return str(bundled_corpus_path(4))


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

    def test_huge_header_order_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.el"
        path.write_text("n 200000\n0 1\n")
        assert main(["analyze", str(path), "--format", "edgelist"]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_missing_corpus_exits_2(self, capsys):
        assert main(["verify", "nosuchcorpus.g6"]) == 2


class TestTight:
    def test_triple_lists_star(self, n4_corpus, capsys):
        assert main(["tight", n4_corpus, "--bound", "triple"]) == 0
        # K_{1,3} appears in the corpus as "CF" (center at vertex 3)
        assert "CF" in capsys.readouterr().out.splitlines()

    def test_unknown_bound_exits_2(self, n4_corpus, capsys):
        assert main(["tight", n4_corpus, "--bound", "nope"]) == 2


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

    def test_non_gamma_set_exits_2(self, capsys):
        assert main(["lift", "Cl", "--set", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCounterexample:
    def test_runs_clean(self, capsys):
        assert main(["counterexample"]) == 0
        out = capsys.readouterr().out
        assert "gamma = 2" in out
        assert "claim refuted" in out


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_r_list(self, n4_corpus, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", n4_corpus, "--r", "1,2"])
        assert exc.value.code == 2
