"""Evaluation pipeline tests: pair scoring, grouping, record files."""

import json

import pytest

from tabmark import evaluate, synth
from tabmark.evaluate import (
    evaluate_pairs,
    pair_records,
    read_records,
    score_pair,
    summarize,
    summary_table,
    worker_count,
)

SIMPLE = "<table><tr><td>a</td><td>b</td></tr></table>"
COMPLEX = '<table><tr><td colspan="2">a</td></tr><tr><td>b</td><td>c</td></tr></table>'


class TestScorePair:
    def test_identity_scores_one(self):
        row = score_pair(SIMPLE, SIMPLE)
        assert row == {"kind": "simple", "structural": 1.0, "total": 1.0}

    def test_kind_comes_from_the_truth(self):
        assert score_pair(COMPLEX, SIMPLE)["kind"] == "complex"
        assert score_pair(SIMPLE, COMPLEX)["kind"] == "simple"

    def test_content_difference_only_hits_total(self):
        other = SIMPLE.replace(">a<", ">zzz<")
        row = score_pair(SIMPLE, other)
        assert row["structural"] == 1.0
        assert row["total"] < 1.0

    def test_unparseable_prediction_scores_zero(self):
        row = score_pair(SIMPLE, "<div>not a table</div>")
        assert row["structural"] == 0.0 and row["total"] == 0.0

    def test_unparseable_truth_raises(self):
        with pytest.raises(ValueError):
            score_pair("<div></div>", SIMPLE)

    def test_duplicate_span_attribute_does_not_parse(self):
        twice = '<table><tr><td colspan="2" colspan="3">a</td></tr></table>'
        row = score_pair(COMPLEX, twice)
        assert row["structural"] == 0.0 and row["total"] == 0.0
        with pytest.raises(ValueError, match="sample 'd': line 1, column 11: duplicate attribute"):
            evaluate_pairs([("d", twice, SIMPLE)])


class TestEvaluatePairs:
    def pairs(self):
        return [
            ("t1", SIMPLE, SIMPLE),
            ("t2", COMPLEX, COMPLEX),
            ("t3", SIMPLE, "<garbage"),
        ]

    def test_rows_in_input_order(self):
        rows = evaluate_pairs(self.pairs())
        assert [r["id"] for r in rows] == ["t1", "t2", "t3"]
        assert rows[0]["total"] == 1.0
        assert rows[2]["total"] == 0.0

    def test_worker_count_does_not_change_results(self):
        single = evaluate_pairs(self.pairs(), workers=1)
        multi = evaluate_pairs(self.pairs(), workers=3)
        assert single == multi

    def test_worker_env_resolution(self, monkeypatch):
        monkeypatch.setenv("TABMARK_WORKERS", "4")
        assert worker_count() == 4
        assert worker_count(2) == 2
        monkeypatch.delenv("TABMARK_WORKERS")
        assert worker_count() == 1
        with pytest.raises(ValueError):
            worker_count(0)

    def test_at_most_one_worker_per_pair(self, monkeypatch):
        # a fake pool records its size and maps in this process: no process starts
        sizes = []

        class FakePool:
            def __init__(self, n):
                sizes.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(it) for it in items]

        monkeypatch.setattr(evaluate.multiprocessing, "Pool", FakePool)
        want = evaluate_pairs(self.pairs(), workers=1)
        assert evaluate_pairs(self.pairs(), workers=10**6) == want
        monkeypatch.setenv("TABMARK_WORKERS", "64")
        assert evaluate_pairs(self.pairs()[:2]) == want[:2]
        assert evaluate_pairs(self.pairs(), workers=2) == want
        assert sizes == [3, 2, 2]

    def test_bad_truth_error_names_the_sample(self):
        with pytest.raises(ValueError, match="bad-one"):
            evaluate_pairs([("bad-one", "<div></div>", SIMPLE), ("x", SIMPLE, SIMPLE)])


class TestSummarize:
    def test_groups_and_means(self):
        rows = [
            {"id": "a", "kind": "simple", "structural": 1.0, "total": 0.8},
            {"id": "b", "kind": "simple", "structural": 0.5, "total": 0.6},
            {"id": "c", "kind": "complex", "structural": 1.0, "total": 1.0},
        ]
        g = summarize(rows)
        assert g["simple"] == {"count": 2, "structural": 0.75, "total": pytest.approx(0.7)}
        assert g["complex"]["count"] == 1
        assert g["all"]["count"] == 3
        assert g["all"]["total"] == pytest.approx((0.8 + 0.6 + 1.0) / 3)

    def test_empty_group_renders_dash(self):
        rows = [{"id": "a", "kind": "simple", "structural": 1.0, "total": 1.0}]
        text = summary_table(summarize(rows))
        assert "100.00" in text and "-" in text

    def test_perfect_corpus_prints_hundreds_everywhere(self):
        spec = synth.PRESETS["wide"]
        pairs = []
        for seed in range(6):
            rec = synth.generate(spec, seed=seed)
            pairs.append((f"s{seed}", rec.html(), rec.html()))
        text = summary_table(summarize(evaluate_pairs(pairs)))
        assert text.count("100.00") == 6  # both scores, all three groups
        assert "-" not in text


class TestRecordFiles:
    def write(self, tmp_path, name, records):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        return path

    def test_roundtrip_and_pairing(self, tmp_path):
        truth = self.write(
            tmp_path, "truth.jsonl", [{"id": "a", "html": SIMPLE}, {"id": "b", "html": COMPLEX}]
        )
        pred = self.write(
            tmp_path, "pred.jsonl", [{"id": "b", "html": SIMPLE}, {"id": "a", "html": SIMPLE}]
        )
        pairs = pair_records(read_records(truth), read_records(pred))
        assert [p[0] for p in pairs] == ["a", "b"]  # truth order wins
        assert pairs[1][1] == COMPLEX and pairs[1][2] == SIMPLE

    def test_duplicate_id_rejected(self, tmp_path):
        path = self.write(
            tmp_path, "dup.jsonl", [{"id": "a", "html": SIMPLE}, {"id": "a", "html": SIMPLE}]
        )
        with pytest.raises(ValueError, match="duplicate"):
            read_records(path)

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "html": "x"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_records(path)

    def test_mismatched_ids_rejected(self, tmp_path):
        truth = self.write(tmp_path, "t.jsonl", [{"id": "a", "html": SIMPLE}])
        pred = self.write(tmp_path, "p.jsonl", [{"id": "b", "html": SIMPLE}])
        with pytest.raises(ValueError, match="without"):
            pair_records(read_records(truth), read_records(pred))
