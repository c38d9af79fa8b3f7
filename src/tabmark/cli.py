"""Command line entry point wiring the whole stack together.

Subcommands: gen (synthetic corpus), train, infer, eval (tree-edit scores),
bench (parallel vs sequential decoding), ablate (variant x preset grid).

Config precedence is defaults < --config file < explicit flags, and every run
writes the resolved configuration next to its outputs so it can be replayed.
Exit codes: 0 ok, 1 usage, 2 data error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys

from . import checkpoint, synth
from .bench import BenchMismatch, run_bench
from .decoding import recognize
from .evaluate import evaluate_pairs, pair_records, read_records, summarize, summary_table
from .model import VARIANTS, ModelConfig, TableModel, read_fields, read_value
from .training import TrainConfig, TrainingDiverged, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3

PRESET_NAMES = tuple(synth.PRESETS)


# -- configuration plumbing ----------------------------------------------------


def default_config() -> dict:
    return {
        "seed": 0,
        "parallel": True,
        "model": {},
        "train": {},
        "gen": {"preset": "wide", "count": 100, "spec": {}},
        "bench": {"samples": None},
    }


def deep_update(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            deep_update(base[k], v)
        else:
            base[k] = v
    return base


def load_config_file(path: str) -> dict:
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"config key {key!r} given twice")
            obj[key] = value
        return obj

    try:  # not UTF-8, not JSON, a key given twice or not an object: named with the file
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return data


def resolve(ns: argparse.Namespace) -> dict:
    """defaults < config file < flags that were actually given."""
    cfg = default_config()
    if getattr(ns, "config", None):
        deep_update(cfg, load_config_file(ns.config))
    for name in ("model", "train", "gen", "bench"):  # before the flags write into them
        _section(cfg, name)
    if getattr(ns, "seed", None) is not None:
        cfg["seed"] = ns.seed
        cfg["model"].pop("seed", None)  # the flag beats per-section file seeds
        cfg["train"].pop("seed", None)
    if getattr(ns, "variant", None):
        cfg["model"]["variant"] = ns.variant
    if getattr(ns, "parallel", None):
        cfg["parallel"] = ns.parallel == "on"
    if getattr(ns, "preset", None):
        cfg["gen"]["preset"] = ns.preset
    if getattr(ns, "count", None) is not None:
        cfg["gen"]["count"] = ns.count
    if getattr(ns, "epochs", None) is not None:
        cfg["train"]["epochs"] = ns.epochs
    cfg["seed"] = config_int(cfg["seed"], "seed", 0)
    if not isinstance(cfg["parallel"], bool):
        raise ValueError(f"parallel must be true or false, got {cfg['parallel']!r}")
    return cfg


def model_config(cfg: dict) -> ModelConfig:
    kw = _section(cfg, "model")
    kw.setdefault("seed", cfg["seed"])
    return ModelConfig.from_fields(kw)


def train_config(cfg: dict) -> TrainConfig:
    kw = _section(cfg, "train")
    kw.setdefault("seed", cfg["seed"])
    return TrainConfig.from_fields(kw)


def config_int(value, key: str, low: int) -> int:
    """A JSON config integer >= low, read as read_value reads an integer field."""
    try:
        n = read_value(0, value)
    except ValueError:
        n = None
    if n is None or n < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    return n


def _section(cfg: dict, name: str) -> dict:
    if not isinstance(cfg[name], dict):
        raise ValueError(f"config section {name} needs a JSON object, got {cfg[name]!r}")
    return dict(cfg[name])


def gen_spec(cfg: dict) -> synth.GenSpec:
    preset = cfg["gen"]["preset"]
    if preset not in PRESET_NAMES:
        raise ValueError(f"unknown preset {preset!r}, expected one of {PRESET_NAMES}")
    over = read_fields(synth.GenSpec, cfg["gen"]["spec"], "gen.spec")
    spec = dataclasses.replace(synth.PRESETS[preset], **over)
    spec.validate()
    return spec


def dump_config(out_dir: str, resolved: dict) -> None:
    """The reproducibility record written alongside every run."""
    os.makedirs(out_dir, exist_ok=True)
    write_json(out_dir, "config.json", resolved)


def write_text(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def write_json(out_dir: str, name: str, payload) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommands -----------------------------------------------------------------


def cmd_gen(ns) -> int:
    cfg = resolve(ns)
    spec = gen_spec(cfg)
    count = config_int(cfg["gen"]["count"], "gen.count", 0)
    dump_config(
        ns.out,
        {
            "subcommand": "gen",
            "seed": cfg["seed"],
            "gen": {
                "preset": cfg["gen"]["preset"],
                "count": count,
                "spec": dataclasses.asdict(spec),
            },
        },
    )
    ids = synth.emit_corpus(count, spec, ns.out, master_seed=cfg["seed"])
    print(f"wrote {len(ids)} records to {ns.out}")
    return EXIT_OK


def cmd_train(ns) -> int:
    cfg = resolve(ns)
    corpus = synth.load_corpus(ns.corpus)
    mc = model_config(cfg)
    tc = train_config(cfg)
    dump_config(
        ns.out,
        {
            "subcommand": "train",
            "seed": cfg["seed"],
            "corpus": ns.corpus,
            "model": dataclasses.asdict(mc),
            "train": dataclasses.asdict(tc),
        },
    )
    model = TableModel(mc)
    metrics = train(model, corpus, tc, ns.out)
    print(
        f"trained on {len(corpus)} samples for {tc.epochs} epochs; "
        f"final total loss {metrics[-1]['total']:.4f}"
    )
    return EXIT_OK


def cmd_infer(ns) -> int:
    cfg = resolve(ns)
    corpus = synth.load_corpus(ns.corpus)
    model = checkpoint.load(ns.model)
    dump_config(
        ns.out,
        {
            "subcommand": "infer",
            "corpus": ns.corpus,
            "checkpoint": ns.model,
            "parallel": cfg["parallel"],
            "model": dataclasses.asdict(model.cfg),
        },
    )
    path = os.path.join(ns.out, "predictions.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for rec_id, rec in corpus:
            res = recognize(model, rec.image, parallel=cfg["parallel"])
            fh.write(json.dumps({"id": rec_id, **res.as_dict(timings=False)}, sort_keys=True))
            fh.write("\n")
    print(f"wrote {len(corpus)} predictions to {path}")
    return EXIT_OK


def cmd_eval(ns) -> int:
    cfg = resolve(ns)
    pairs = pair_records(read_records(ns.truth), read_records(ns.pred))
    rows = evaluate_pairs(pairs)
    table = summary_table(summarize(rows))
    dump_config(
        ns.out,
        {"subcommand": "eval", "seed": cfg["seed"], "truth": ns.truth, "pred": ns.pred},
    )
    with open(os.path.join(ns.out, "scores.jsonl"), "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    write_text(ns.out, "report.txt", table)
    print(table)
    return EXIT_OK


def cmd_bench(ns) -> int:
    cfg = resolve(ns)
    corpus = synth.load_corpus(ns.corpus)
    model = checkpoint.load(ns.model)
    samples = cfg["bench"]["samples"]
    images = [rec.image for _, rec in corpus]
    if samples is not None:
        images = images[: config_int(samples, "bench.samples", 1)]
    dump_config(
        ns.out,
        {
            "subcommand": "bench",
            "corpus": ns.corpus,
            "checkpoint": ns.model,
            "samples": len(images),
        },
    )
    report = run_bench(model, images)
    write_text(ns.out, "bench.txt", report.to_text())
    write_json(ns.out, "bench.json", report.as_dict(timings=False))
    print(report.to_text())
    return EXIT_OK


def ablation_table(rows: list[dict], directional: bool) -> str:
    lines = [
        "ablation grid (scores x100)",
        f"{'preset':<8}{'variant':<10}{'structural':>12}{'total':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['preset']:<8}{r['variant']:<10}"
            f"{100.0 * r['structural']:>12.2f}{100.0 * r['total']:>8.2f}"
        )
    verdict = "yes" if directional else "no"
    lines.append(
        f"full >= bbox on wide (total): {verdict} (directional expectation, not asserted)"
    )
    return "\n".join(lines)


def cmd_ablate(ns) -> int:
    cfg = resolve(ns)
    count = config_int(cfg["gen"]["count"], "gen.count", 1)  # a corpus per preset
    dump_config(
        ns.out,
        {
            "subcommand": "ablate",
            "seed": cfg["seed"],
            "count": count,
            "model": dataclasses.asdict(model_config(cfg)),
            "train": dataclasses.asdict(train_config(cfg)),
        },
    )
    rows = []
    for preset in PRESET_NAMES:
        pcfg = copy.deepcopy(cfg)
        pcfg["gen"]["preset"] = preset
        corpus_dir = os.path.join(ns.out, f"corpus_{preset}")
        synth.emit_corpus(count, gen_spec(pcfg), corpus_dir, master_seed=cfg["seed"])
        corpus = synth.load_corpus(corpus_dir)
        for variant in VARIANTS:
            # same corpus and same init seed across variants: only the
            # conditioning pathway differs
            model = TableModel(model_config(cfg).with_variant(variant))
            run_dir = os.path.join(ns.out, f"{preset}_{variant}")
            train(model, corpus, train_config(cfg), run_dir)
            pairs = []
            for rec_id, rec in corpus:
                res = recognize(model, rec.image, parallel=cfg["parallel"])
                pairs.append((rec_id, rec.html(), res.html))
            groups = summarize(evaluate_pairs(pairs))
            rows.append(
                {
                    "preset": preset,
                    "variant": variant,
                    "structural": groups["all"]["structural"],
                    "total": groups["all"]["total"],
                }
            )
    wide = {r["variant"]: r for r in rows if r["preset"] == "wide"}
    directional = wide["full"]["total"] >= wide["bbox"]["total"]
    text = ablation_table(rows, directional)
    write_text(ns.out, "ablation.txt", text)
    write_json(ns.out, "ablation.json", {"rows": rows, "full_ge_bbox_on_wide": directional})
    print(text)
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


class Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this stack reserves 2
    for data errors, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = Parser(prog="tabmark", description="table image recognition toolkit")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=Parser)

    def common(sp):
        sp.add_argument("--config", help="JSON config file (defaults < file < flags)")
        sp.add_argument("--seed", type=int, help="master seed for the whole run")
        sp.add_argument("--out", required=True, help="output directory")

    g = sub.add_parser("gen", help="emit a synthetic table corpus")
    common(g)
    g.add_argument("--preset", choices=PRESET_NAMES)
    g.add_argument("--count", type=int, help="number of tables")

    t = sub.add_parser("train", help="train a model on an emitted corpus")
    common(t)
    t.add_argument("--corpus", required=True)
    t.add_argument("--variant", choices=VARIANTS)
    t.add_argument("--epochs", type=int)

    i = sub.add_parser("infer", help="recognize every corpus image")
    common(i)
    i.add_argument("--corpus", required=True)
    i.add_argument("--model", required=True, help="checkpoint path")
    i.add_argument("--parallel", choices=("on", "off"))

    e = sub.add_parser("eval", help="tree-edit similarity of predictions vs truth")
    common(e)
    e.add_argument("--truth", required=True, help="line-delimited (id, html) records")
    e.add_argument("--pred", required=True, help="line-delimited (id, html) records")

    b = sub.add_parser("bench", help="parallel vs sequential decoding benchmark")
    common(b)
    b.add_argument("--corpus", required=True)
    b.add_argument("--model", required=True, help="checkpoint path")

    a = sub.add_parser("ablate", help="train/evaluate the variant x preset grid")
    common(a)
    a.add_argument("--count", type=int, help="tables per preset corpus")
    a.add_argument("--epochs", type=int)
    a.add_argument("--parallel", choices=("on", "off"))

    return p


HANDLERS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return HANDLERS[ns.cmd](ns)
    except (BenchMismatch, TrainingDiverged) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
