"""CLI tests: exit codes, config precedence, idempotence, subcommand wiring."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import tabmark
from tabmark import cli
from tabmark.bench import BenchMismatch

TINY_CONFIG = {
    "model": {
        "image_side": 32,
        "d": 16,
        "heads": 2,
        "html_blocks": 1,
        "cell_blocks": 1,
        "refiner_blocks": 1,
        "ffn_mult": 2,
        "enc_channels": [4, 8, 16],
        "struct_cap": 60,
        "content_cap": 80,
    },
    "train": {"epochs": 1, "batch_size": 4},
    "gen": {
        "count": 4,
        "spec": {
            "rows": [1, 2],
            "cols": [2, 2],
            "content_len": [1, 3],
            "glyph_scale": 2,
            "image_side": 32,
            "margin": 2,
        },
    },
}

SIMPLE = "<table><tr><td>a</td><td>b</td></tr></table>"
COMPLEX = '<table><tr><td colspan="2">x</td></tr><tr><td>y</td><td>z</td></tr></table>'


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared corpus, checkpoint and record files for the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    corpus = root / "corpus"
    run = root / "run"
    assert cli.main(["gen", "--config", str(cfg), "--seed", "1", "--out", str(corpus)]) == 0
    assert (
        cli.main(
            ["train", "--config", str(cfg), "--corpus", str(corpus), "--out", str(run)]
        )
        == 0
    )
    truth = root / "truth.jsonl"
    with open(truth, "w") as fh:
        fh.write(json.dumps({"id": "s", "html": SIMPLE}) + "\n")
        fh.write(json.dumps({"id": "c", "html": COMPLEX}) + "\n")
    return {
        "root": root,
        "cfg": str(cfg),
        "corpus": str(corpus),
        "ckpt": str(run / "model.ckpt"),
        "truth": str(truth),
    }


class TestExitCodes:
    def test_usage_errors_exit_one(self, tmp_path):
        assert cli.main([]) == 1
        assert cli.main(["bogus"]) == 1
        assert cli.main(["gen"]) == 1  # --out is required
        assert cli.main(["gen", "--preset", "nope", "--out", str(tmp_path)]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "tabmark" in capsys.readouterr().out

    def test_data_errors_exit_two(self, tmp_path, work):
        out = str(tmp_path / "o")
        assert cli.main(["train", "--corpus", str(tmp_path / "nope"), "--out", out]) == 2
        assert (
            cli.main(
                ["infer", "--corpus", work["corpus"], "--model", "/nonexistent", "--out", out]
            )
            == 2
        )
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert cli.main(["gen", "--config", str(bad), "--out", out]) == 2

    def test_unknown_preset_in_file_is_a_data_error(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"gen": {"preset": "sideways"}}))
        assert cli.main(["gen", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2

    def test_invariant_violations_exit_three(self, tmp_path, work, monkeypatch):
        def boom(*a, **k):
            raise BenchMismatch("decoders disagree")

        monkeypatch.setattr(cli, "run_bench", boom)
        rc = cli.main(
            [
                "bench",
                "--corpus",
                work["corpus"],
                "--model",
                work["ckpt"],
                "--out",
                str(tmp_path / "b"),
            ]
        )
        assert rc == 3


class TestConfigPrecedence:
    def test_flags_beat_file_beats_defaults(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"seed": 5, "gen": TINY_CONFIG["gen"] | {"count": 3}}))
        out = tmp_path / "corpus"
        assert (
            cli.main(["gen", "--config", str(cfgfile), "--seed", "9", "--out", str(out)]) == 0
        )
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["seed"] == 9  # flag beat the file
        assert resolved["gen"]["count"] == 3  # file beat the default (100)
        lines = (out / "annotations.jsonl").read_text().splitlines()
        assert len(lines) == 3

    def test_resolved_dump_written_everywhere(self, tmp_path, work):
        pred = tmp_path / "pred"
        assert (
            cli.main(
                [
                    "infer",
                    "--corpus",
                    work["corpus"],
                    "--model",
                    work["ckpt"],
                    "--parallel",
                    "off",
                    "--out",
                    str(pred),
                ]
            )
            == 0
        )
        resolved = json.loads((pred / "config.json").read_text())
        assert resolved["parallel"] is False
        ev = tmp_path / "ev"
        assert (
            cli.main(
                ["eval", "--truth", work["truth"], "--pred", work["truth"], "--out", str(ev)]
            )
            == 0
        )
        assert (ev / "config.json").exists()


class TestGen:
    def test_count_zero_emits_empty_corpus(self, tmp_path, work):
        out = tmp_path / "empty"
        assert (
            cli.main(
                ["gen", "--config", work["cfg"], "--count", "0", "--out", str(out)]
            )
            == 0
        )
        assert (out / "annotations.jsonl").read_text() == ""
        assert not list(out.glob("*.pgm"))

    def test_same_seed_same_bytes(self, tmp_path, work):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                cli.main(
                    ["gen", "--config", work["cfg"], "--seed", "4", "--out", str(out)]
                )
                == 0
            )
        for name in ("annotations.jsonl", "manifest.json", "config.json", "table_00000.pgm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestInfer:
    def test_empty_corpus_empty_output(self, tmp_path, work):
        empty = tmp_path / "empty"
        cli.main(["gen", "--config", work["cfg"], "--count", "0", "--out", str(empty)])
        out = tmp_path / "pred"
        assert (
            cli.main(
                ["infer", "--corpus", str(empty), "--model", work["ckpt"], "--out", str(out)]
            )
            == 0
        )
        assert (out / "predictions.jsonl").read_text() == ""

    def test_empty_image_exits_data_error(self, tmp_path, work, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(work["corpus"], corpus)
        (corpus / "table_00000.pgm").write_bytes(b"P5\n0 4\n255\n")
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", str(corpus), "--model", work["ckpt"], "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        assert "shape (4, 0)" in capsys.readouterr().err

    def test_idempotent_and_parallel_flag_recorded(self, tmp_path, work):
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert (
                cli.main(
                    [
                        "infer",
                        "--corpus",
                        work["corpus"],
                        "--model",
                        work["ckpt"],
                        "--parallel",
                        "off",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append((out / "predictions.jsonl").read_bytes())
        assert outs[0] == outs[1]
        first = json.loads(outs[0].decode().splitlines()[0])
        assert first["parallel"] is False
        assert "timings" not in first


class TestEval:
    def test_truth_vs_truth_prints_hundreds(self, tmp_path, work, capsys):
        out = tmp_path / "ev"
        assert (
            cli.main(
                ["eval", "--truth", work["truth"], "--pred", work["truth"], "--out", str(out)]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert printed.count("100.00") == 6  # 2 scores x 3 groups
        report = (out / "report.txt").read_text()
        assert report.count("100.00") == 6
        rows = [json.loads(l) for l in (out / "scores.jsonl").read_text().splitlines()]
        assert {r["kind"] for r in rows} == {"simple", "complex"}

    def test_mismatched_ids_exit_two(self, tmp_path, work):
        other = tmp_path / "other.jsonl"
        other.write_text(json.dumps({"id": "zzz", "html": SIMPLE}) + "\n")
        assert (
            cli.main(
                [
                    "eval",
                    "--truth",
                    work["truth"],
                    "--pred",
                    str(other),
                    "--out",
                    str(tmp_path / "ev"),
                ]
            )
            == 2
        )

    def test_worker_count_does_not_change_output(self, tmp_path, work, monkeypatch):
        blobs = {}
        for workers in ("1", "3"):
            monkeypatch.setenv("TABMARK_WORKERS", workers)
            out = tmp_path / f"ev{workers}"
            assert (
                cli.main(
                    [
                        "eval",
                        "--truth",
                        work["truth"],
                        "--pred",
                        work["truth"],
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            blobs[workers] = (out / "scores.jsonl").read_bytes()
        assert blobs["1"] == blobs["3"]


class TestBench:
    def test_report_and_idempotence(self, tmp_path, work):
        corpus = tmp_path / "bc"
        assert (
            cli.main(
                ["gen", "--config", work["cfg"], "--seed", "2", "--count", "20", "--out", str(corpus)]
            )
            == 0
        )
        blobs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            assert (
                cli.main(
                    [
                        "bench",
                        "--corpus",
                        str(corpus),
                        "--model",
                        work["ckpt"],
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            assert "pass ratio" in (out / "bench.txt").read_text()
            blobs.append((out / "bench.json").read_bytes())
        assert blobs[0] == blobs[1]  # timing fields are excluded from the json

    def test_too_small_corpus_is_a_data_error(self, tmp_path, work):
        assert (
            cli.main(
                [
                    "bench",
                    "--corpus",
                    work["corpus"],  # only 4 records
                    "--model",
                    work["ckpt"],
                    "--out",
                    str(tmp_path / "b"),
                ]
            )
            == 2
        )


class TestAblate:
    def test_grid_shape_and_determinism(self, tmp_path, work):
        blobs = []
        for name in ("a1", "a2"):
            out = tmp_path / name
            rc = cli.main(
                [
                    "ablate",
                    "--config",
                    work["cfg"],
                    "--seed",
                    "3",
                    "--count",
                    "2",
                    "--epochs",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            blobs.append((out / "ablation.json").read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0].decode())
        cells = {(r["preset"], r["variant"]) for r in payload["rows"]}
        assert cells == {
            (p, v) for p in ("wide", "dense") for v in ("bbox", "through", "full")
        }
        assert isinstance(payload["full_ge_bbox_on_wide"], bool)
        # both presets trained against the same per-preset corpus
        a1 = tmp_path / "a1"
        assert (a1 / "corpus_wide" / "annotations.jsonl").exists()
        assert (a1 / "wide_full" / "model.ckpt").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        # Run from tests/, away from the repository root. A relative
        # PYTHONPATH (such as PYTHONPATH=src) would then point nowhere, so
        # put the directory holding the package this process imported first.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(tabmark.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tabmark", "--help"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(__file__),
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "gen" in proc.stdout and "ablate" in proc.stdout
