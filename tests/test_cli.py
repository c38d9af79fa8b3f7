"""CLI tests: exit codes, config precedence, idempotence, subcommand wiring."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import tabmark
from tabmark import checkpoint, cli, synth
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

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"seed": True}, "seed must be an integer >= 0, got True"),
            ({"seed": "x"}, "seed must be an integer >= 0, got 'x'"),
            ({"gen": []}, "config section gen needs a JSON object, got []"),
            ({"gen": {"spec": []}}, "gen.spec needs a JSON object, got []"),
            ({"bench": []}, "config section bench needs a JSON object, got []"),
            (
                {"gen": {"preset": ["wide"]}},
                "unknown preset ['wide'], expected one of ('wide', 'dense')",
            ),
        ],
    )
    def test_bad_run_setting_is_named(self, tmp_path, capsys, config, message):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.main(["gen", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (out / "annotations.jsonl").exists()

    def test_parallel_must_be_a_json_bool(self, tmp_path, work, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"parallel": "no"}))
        out = tmp_path / "pred"
        argv = ["infer", "--config", str(cfgfile), "--corpus", work["corpus"], "--model",
                work["ckpt"], "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "parallel must be true or false, got 'no'" in capsys.readouterr().err
        assert not (out / "predictions.jsonl").exists()

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


    @pytest.mark.parametrize(
        "model, message",
        [
            ({"d": "abc"}, "config key d needs an integer, got 'abc'"),
            (
                {"enc_channels": 5},
                "config key enc_channels needs a list, each item an integer, got 5",
            ),
            ({"window": None}, "config key window needs an integer, got None"),
        ],
    )
    def test_bad_model_value_in_file_is_named(self, tmp_path, work, capsys, model, message):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"model": TINY_CONFIG["model"] | model}))
        out = tmp_path / "run"
        argv = ["train", "--config", str(cfgfile), "--corpus", work["corpus"], "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize(
        "train, message",
        [
            (
                {"lrs": [], "stage_proportions": []},
                "train config key lrs needs one or more finite learning rates >= 0, got ()",
            ),
            ({"epochs": "abc"}, "train config key epochs needs an integer, got 'abc'"),
            ({"lrs": 5}, "train config key lrs needs a list, each item a number, got 5"),
            (
                {"stage_proportions": [0, 0, 0]},
                "train config key stage_proportions needs integers >= 0 with a positive sum, "
                "one per learning rate, got (0, 0, 0)",
            ),
            (
                {"stage_proportions": [1, -1, 1]},
                "train config key stage_proportions needs integers >= 0 with a positive sum, "
                "one per learning rate, got (1, -1, 1)",
            ),
            (
                {"lrs": [float("nan"), 1, 1]},
                "train config key lrs needs one or more finite learning rates >= 0, "
                "got (nan, 1.0, 1.0)",
            ),
        ],
    )
    def test_bad_train_value_in_file_is_named(self, tmp_path, work, capsys, train, message):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"model": TINY_CONFIG["model"], "train": train}))
        out = tmp_path / "run"
        argv = ["train", "--config", str(cfgfile), "--corpus", work["corpus"], "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()


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

    @pytest.mark.parametrize("count", [-1, True, 2.7, "abc", None])
    def test_bad_count_is_named(self, tmp_path, work, capsys, count):
        cfgfile = tmp_path / "gen.json"
        cfgfile.write_text(json.dumps({"gen": TINY_CONFIG["gen"] | {"count": count}}))
        out = tmp_path / "corpus"
        assert cli.main(["gen", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_DATA
        assert f"gen.count must be an integer >= 0, got {count!r}" in capsys.readouterr().err
        assert not (out / "annotations.jsonl").exists()

    def test_count_text_reads_as_its_number(self, tmp_path):
        cfgfile = tmp_path / "gen.json"
        cfgfile.write_text(json.dumps({"gen": TINY_CONFIG["gen"] | {"count": "3"}}))
        out = tmp_path / "corpus"
        assert cli.main(["gen", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_OK
        assert json.loads((out / "config.json").read_text())["gen"]["count"] == 3
        assert len((out / "annotations.jsonl").read_text().splitlines()) == 3

    def test_key_given_twice_is_named(self, tmp_path, capsys):
        cfgfile = tmp_path / "gen.json"
        cfgfile.write_text('{"gen": {"count": 1, "count": 2}}')
        out = tmp_path / "corpus"
        assert cli.main(["gen", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_DATA
        assert f"{cfgfile}: config key 'count' given twice" in capsys.readouterr().err
        assert not (out / "annotations.jsonl").exists()

    def test_config_that_is_not_json_is_named(self, tmp_path, capsys):
        cfgfile = tmp_path / "gen.json"
        cfgfile.write_text('{"seed": 1, }')
        argv = ["gen", "--config", str(cfgfile), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{cfgfile}: Expecting property name enclosed in double quotes: line 1" in err

    def test_config_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfgfile = tmp_path / "gen.json"
        cfgfile.write_bytes(b'{"seed": "\xff"}')
        argv = ["gen", "--config", str(cfgfile), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{cfgfile}: 'utf-8' codec can't decode byte 0xff in position 10" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"rows": [2]}, "gen.spec key rows needs a pair 1 <= lo <= hi, got (2,)"),
            (
                {"image_side": 4},
                "gen.spec keys image_side and margin need image_side - 2 * margin >= 3, "
                "got 4 and 4",
            ),
            ({"glyph_scale": 0}, "gen.spec key glyph_scale needs an integer >= 1, got 0"),
            ({"merge_prob": "abc"}, "gen.spec key merge_prob needs a number, got 'abc'"),
            (
                {"margin": 100},
                "gen.spec keys image_side and margin need image_side - 2 * margin >= 3, "
                "got 128 and 100",
            ),
        ],
    )
    def test_bad_spec_value_is_named(self, tmp_path, capsys, spec, message):
        cfgfile = tmp_path / "gen.json"
        cfgfile.write_text(json.dumps({"gen": {"count": 1, "spec": spec}}))
        out = tmp_path / "corpus"
        assert cli.main(["gen", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (out / "annotations.jsonl").exists()

    def test_spec_numbers_are_read_by_type(self, tmp_path):
        for name, prob in (("text", "0.5"), ("number", 0.5)):
            cfgfile = tmp_path / f"{name}.json"
            cfgfile.write_text(json.dumps({"gen": {"count": 2, "spec": {"merge_prob": prob}}}))
            assert cli.main(["gen", "--config", str(cfgfile), "--out", str(tmp_path / name)]) == 0
        resolved = json.loads((tmp_path / "text" / "config.json").read_text())
        assert resolved["gen"]["spec"]["merge_prob"] == 0.5
        text, number = tmp_path / "text", tmp_path / "number"
        for name in ("annotations.jsonl", "config.json", "table_00001.pgm"):
            assert (text / name).read_bytes() == (number / name).read_bytes()

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

    def test_truncated_image_exits_data_error(self, tmp_path, work, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(work["corpus"], corpus)
        image = corpus / "table_00000.pgm"
        image.write_bytes(image.read_bytes()[:-10])
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", str(corpus), "--model", work["ckpt"], "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        assert f"{image}: truncated" in capsys.readouterr().err

    def test_header_ended_by_crlf_exits_data_error(self, tmp_path, work, capsys):
        # the CR ends the header, so the LF would be read as the first pixel
        corpus = tmp_path / "corpus"
        shutil.copytree(work["corpus"], corpus)
        image = corpus / "table_00001.pgm"
        image.write_bytes(image.read_bytes().replace(b"\n255\n", b"\n255\r\n", 1))
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", str(corpus), "--model", work["ckpt"], "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        ann = corpus / "annotations.jsonl"
        err = capsys.readouterr().err
        assert f"{ann}:2: {image}: 1025 pixel bytes for a 32x32 image, 1 too many" in err

    def test_out_of_range_pixels_exit_data_error(self, work, tmp_path, capsys, monkeypatch):
        # an image handed on as floats, unscaled, with 0..255 pixel values
        read = synth.read_pgm
        monkeypatch.setattr(synth, "read_pgm", lambda path: read(path).astype(float))
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", work["corpus"], "--model", work["ckpt"], "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        assert "is 255.0, outside [0, 1]" in capsys.readouterr().err

    def test_bad_annotation_exits_data_error(self, tmp_path, work, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(work["corpus"], corpus)
        ann = corpus / "annotations.jsonl"
        lines = ann.read_text().splitlines()
        lines[0] = lines[0].replace('"structure_tokens": [', '"structure_tokens": ["<blink>", ', 1)
        ann.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", str(corpus), "--model", work["ckpt"], "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        assert f"{ann}:1: unknown structure token '<blink>'" in capsys.readouterr().err

    def test_annotation_that_is_not_utf8_is_located(self, tmp_path, work, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(work["corpus"], corpus)
        ann = corpus / "annotations.jsonl"
        lines = ann.read_bytes().splitlines()
        lines[1] = lines[1].replace(b'"id": "', b'"id": "\xff', 1)
        ann.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", str(corpus), "--model", work["ckpt"], "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{ann}:2: bad JSON: 'utf-8' codec can't decode byte 0xff in position" in err

    def test_image_outside_the_corpus_exits_data_error(self, tmp_path, work, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(work["corpus"], corpus)
        shutil.copy(corpus / "table_00000.pgm", tmp_path / "outside.pgm")
        ann = corpus / "annotations.jsonl"
        lines = ann.read_text().splitlines()
        first = json.loads(lines[0])
        first["filename"] = "../outside.pgm"
        lines[0] = json.dumps(first)
        ann.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", str(corpus), "--model", work["ckpt"], "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{ann}:1: filename '../outside.pgm' is not a file name in the corpus" in err

    def test_cell_count_disagreeing_with_structure_exits_data_error(self, tmp_path, work, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(work["corpus"], corpus)
        ann = corpus / "annotations.jsonl"
        lines = ann.read_text().splitlines()
        first = json.loads(lines[0])
        first["cells"].append(first["cells"][0])
        lines[0] = json.dumps(first)
        ann.write_text("\n".join(lines) + "\n")
        n = len(first["cells"])
        code = cli.main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_DATA
        assert f"{ann}:1: {n} cells for a structure of {n - 1}" in capsys.readouterr().err

    def test_non_integer_checkpoint_config_exits_data_error(self, tmp_path, work, capsys):
        ckpt = tmp_path / "bad.ckpt"
        raw = open(work["ckpt"], "rb").read()
        assert raw.count(b"\nd=16\n") == 1
        ckpt.write_bytes(raw.replace(b"\nd=16\n", b"\nd=1x\n"))  # same length
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", work["corpus"], "--model", str(ckpt), "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        assert "config key d needs an integer, got '1x'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["html.out.b", "bbox.out.b"])
    def test_non_finite_weight_exits_data_error(self, tmp_path, work, capsys, name):
        model = checkpoint.load(work["ckpt"])
        model.params[name].data[0] = float("nan")
        ckpt = tmp_path / "nan.ckpt"
        checkpoint.save(str(ckpt), model)
        out = tmp_path / "pred"
        code = cli.main(
            ["infer", "--corpus", work["corpus"], "--model", str(ckpt), "--out", str(out)]
        )
        assert code == cli.EXIT_DATA
        assert f"{ckpt}: tensor '{name}' holds a non-finite value" in capsys.readouterr().err
        assert not (out / "predictions.jsonl").exists()

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

    def test_bad_worker_variable_is_named(self, tmp_path, work, capsys, monkeypatch):
        argv = ["eval", "--truth", work["truth"], "--pred", work["truth"], "--out",
                str(tmp_path / "ev")]
        for raw in ("abc", "2_0", " 2", "+3", "\u0663"):  # int() reads all but the first
            monkeypatch.setenv("TABMARK_WORKERS", raw)
            assert cli.main(argv) == cli.EXIT_DATA, raw
            assert f"TABMARK_WORKERS must be an integer, got {raw!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["truth", "pred"])
    def test_record_file_that_is_not_utf8_is_located(self, tmp_path, work, capsys, side):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps({"id": "s", "html": SIMPLE}).encode() + b'\n{"id": "\xff"}\n')
        files = {"truth": work["truth"], "pred": work["truth"], side: str(bad)}
        argv = ["eval", "--truth", files["truth"], "--pred", files["pred"], "--out",
                str(tmp_path / "ev")]
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2: bad JSON: 'utf-8' codec can't decode byte 0xff in position 8" in err

    def test_non_string_html_is_located(self, tmp_path, work, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "s", "html": SIMPLE}) + "\n"
                        + json.dumps({"id": "c", "html": 5}) + "\n")
        argv = ["eval", "--truth", work["truth"], "--pred", str(pred), "--out",
                str(tmp_path / "ev")]
        assert cli.main(argv) == cli.EXIT_DATA
        assert f"{pred}:2: html must be a string, got 5" in capsys.readouterr().err


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

    def bench_with_samples(self, tmp_path, work, samples) -> int:
        cfgfile = tmp_path / "bench.json"
        cfgfile.write_text(json.dumps({"bench": {"samples": samples}}))
        args = ["bench", "--config", str(cfgfile), "--corpus", work["corpus"]]
        return cli.main(args + ["--model", work["ckpt"], "--out", str(tmp_path / "b")])

    @pytest.mark.parametrize("samples", [-3, 0, True, "abc", 2.5])
    def test_bad_samples_value_is_named(self, tmp_path, work, capsys, samples):
        assert self.bench_with_samples(tmp_path, work, samples) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"bench.samples must be an integer >= 1, got {samples!r}" in err

    def test_samples_cuts_the_corpus(self, tmp_path, work, capsys):
        assert self.bench_with_samples(tmp_path, work, 3) == cli.EXIT_DATA
        assert "at least 20 samples, got 3" in capsys.readouterr().err

    def test_samples_text_reads_as_its_number(self, tmp_path, work, capsys):
        corpus = tmp_path / "six"
        args = ["gen", "--config", work["cfg"], "--count", "6", "--out", str(corpus)]
        assert cli.main(args) == cli.EXIT_OK
        cfgfile = tmp_path / "bench.json"
        cfgfile.write_text(json.dumps({"bench": {"samples": "5"}}))
        args = ["bench", "--config", str(cfgfile), "--corpus", str(corpus), "--model", work["ckpt"]]
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == cli.EXIT_DATA
        assert "at least 20 samples, got 5" in capsys.readouterr().err


class TestAblate:
    @pytest.mark.parametrize("count", [0, True, 2.7, "abc"])
    def test_bad_count_is_named(self, tmp_path, work, capsys, count):
        cfgfile = tmp_path / "ablate.json"
        cfgfile.write_text(json.dumps({"model": TINY_CONFIG["model"], "gen": {"count": count}}))
        out = tmp_path / "grid"
        assert cli.main(["ablate", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_DATA
        assert f"gen.count must be an integer >= 1, got {count!r}" in capsys.readouterr().err
        assert not (out / "ablation.json").exists()

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
