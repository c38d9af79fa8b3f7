"""Seeded fuzz tests over untrusted inputs: damaged checkpoints, random JSON
configs and random corpus annotations.  Each input must load or raise a
ValueError, never another error, so the CLI exits 2 with a located message.
A table over every number and list key of a JSON config holds them to one
reading rule, and a TABMARK1 file written by an earlier version must keep
loading bitwise, while any damaged byte of a TABMARK2 file fails its load.
Last, a fuzz over random small model configs holds the decode cache to the
uncached reference."""

import argparse
import hashlib
import json
import math
import struct
import zlib
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from tabmark import autodiff as ad
from tabmark import checkpoint, cli, synth
from tabmark import vocab as V
from tabmark.model import DecodeCache, ModelConfig, TableModel
from tabmark.synth import GenSpec
from tabmark.training import LossWeights, TrainConfig
from test_decoding import assert_cache_exact, content_ids, steer_to

TINY = ModelConfig(
    image_side=32, d=16, heads=2, html_blocks=1, cell_blocks=1, refiner_blocks=1,
    ffn_mult=2, enc_channels=(4, 8, 16), struct_cap=60, content_cap=80, seed=5,
)


def header_offsets(raw: bytes) -> list[int]:
    """The offsets of every byte outside the tensors' float data: magic,
    config, count, each tensor's name and shape, and a TABMARK2 checksum."""
    out = list(range(8))
    pos = 8

    def u32():
        nonlocal pos
        out.extend(range(pos, pos + 4))
        pos += 4
        return struct.unpack_from("<I", raw, pos - 4)[0]

    def text():
        nonlocal pos
        n = u32()
        out.extend(range(pos, pos + n))
        pos += n

    text()
    for _ in range(u32()):
        text()
        shape = [u32() for _ in range(u32())]
        pos += 8 * math.prod(shape)
    if raw[:8] == checkpoint.MAGIC:
        u32()
    assert pos == len(raw)
    return out


def assert_loads_or_names_path(path):
    try:
        model = checkpoint.load(str(path))
    except ValueError as e:
        assert str(path) in str(e), str(e)
    else:
        assert isinstance(model, TableModel)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    checkpoint.save(str(path), TableModel(TINY))
    return path.read_bytes()


def test_truncated_checkpoints_fail_naming_the_path(saved, tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "cut.ckpt"
    for cut in rng.integers(0, len(saved), size=50):
        path.write_bytes(saved[:cut])
        with pytest.raises(ValueError, match="truncated") as err:
            checkpoint.load(str(path))
        assert str(path) in str(err.value)


def flipped(raw: bytes):
    """50 seeded copies of raw, one byte changed in each: half of the flips
    hit the headers, where a byte steers the parse; the other half land
    anywhere, mostly in the float data."""
    rng = np.random.default_rng(2)
    heads = header_offsets(raw)
    offsets = list(rng.choice(heads, size=25)) + list(rng.integers(0, len(raw), size=25))
    for at in offsets:
        out = bytearray(raw)
        out[at] ^= int(rng.integers(1, 256))
        yield bytes(out)


def test_saved_file_is_the_tabmark1_layout_plus_its_crc(saved):
    assert saved[:8] == b"TABMARK2"
    assert struct.unpack("<I", saved[-4:])[0] == zlib.crc32(saved[8:-4])


def test_flipped_bytes_load_or_fail_naming_the_path(saved, tmp_path):
    # a TABMARK1 file has no checksum, so a flip in its float data that
    # leaves the value finite loads
    path = tmp_path / "flip.ckpt"
    for raw in flipped(checkpoint.MAGIC_V1 + saved[8:-4]):
        path.write_bytes(raw)
        assert_loads_or_names_path(path)


def test_every_flipped_byte_of_a_tabmark2_file_fails_naming_the_path(saved, tmp_path):
    path = tmp_path / "flip.ckpt"
    for raw in flipped(saved):
        path.write_bytes(raw)
        with pytest.raises(ValueError) as err:
            checkpoint.load(str(path))
        assert str(path) in str(err.value)


KEYS = [f.name for cls in (ModelConfig, TrainConfig, LossWeights) for f in fields(cls)]
KEYS += ["bogus", ""]


def random_json(rng, depth=0):
    """A random JSON value: scalars of every kind, or a list or object whose
    keys are mostly config keys."""
    kind = int(rng.integers(0, 9 if depth < 2 else 6))
    if kind == 0:
        return None
    if kind == 1:
        return bool(rng.integers(0, 2))
    if kind == 2:
        return int(rng.choice([-1, 0, 1, 2, 3, 4, 8, 16, 300, 10**12, 10**20]))
    if kind == 3:
        return float(rng.choice([0.0, 0.5, 1e-3, -1.0, 3.0, np.nan, np.inf, -np.inf, 1e308]))
    if kind == 4:
        return str(rng.choice(["", "5", "abc", "1,2,3", "4,8,16", "nan", "full", "bbox", " 7 "]))
    if kind == 5:
        return [random_json(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
    return {
        str(rng.choice(KEYS)): random_json(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))
    }


def test_random_json_configs_give_a_config_or_a_value_error():
    rng = np.random.default_rng(3)
    made = {ModelConfig: 0, TrainConfig: 0}
    for _ in range(200):
        section = random_json(rng, depth=1)
        seed = random_json(rng, depth=2) if rng.integers(0, 4) == 0 else 0
        for read, name, cls in ((cli.model_config, "model", ModelConfig),
                                (cli.train_config, "train", TrainConfig)):
            try:
                cfg = read({"seed": seed, name: section})
            except ValueError:
                continue
            assert isinstance(cfg, cls)
            made[cls] += 1
    # the ones that parse are valid: they made it through validate()
    assert made[ModelConfig] > 0 and made[TrainConfig] > 0


def number_keys(cls, section: str) -> list:
    """(section, key, default) for every number and tuple field of dataclass
    cls, and for those of a dataclass field, under section.field."""
    out = []
    for f in fields(cls):
        like = getattr(cls(), f.name)
        if is_dataclass(like):
            out += number_keys(type(like), f"{section}.{f.name}")
        elif isinstance(like, (int, float, tuple)):
            out.append((section, f.name, like))
    return out


# every number and tuple key of a JSON config, and the three run settings
CONFIG_KEYS = (
    number_keys(ModelConfig, "model") + number_keys(TrainConfig, "train")
    + number_keys(GenSpec, "gen.spec")
    + [("", "seed", 0), ("gen", "count", 0), ("bench", "samples", 0)]
)
BASE = {  # a valid config, every key of which the tests set in turn
    "seed": 3,
    "model": {f.name: getattr(TINY, f.name) for f in fields(ModelConfig)},
    "train": {"epochs": 1, "batch_size": 1, "weights": {}},
    "gen": {"preset": "wide", "count": 1, "spec": {"image_side": 32, "margin": 2}},
    "bench": {"samples": 3},
}
# how a bad value of each section's keys is named, and the subcommand that reads it
NAMED = {
    "model": ("config key {key} needs", "train"),
    "train": ("train config key {key} needs", "train"),
    "train.weights": ("train config weights key {key} needs", "train"),
    "gen.spec": ("gen.spec key {key} needs", "gen"),
    "": ("{key} must be an integer", "gen"),
    "gen": ("gen.{key} must be an integer", "gen"),
    "bench": ("bench.{key} must be an integer", "bench"),
}


def key_id(entry) -> str:
    section, key, _ = entry
    return f"{section}.{key}" if section else key


def with_value(section: str, key: str, value) -> dict:
    """BASE as JSON, with section.key set to value."""
    cfg = json.loads(json.dumps(BASE))
    node = cfg
    for part in filter(None, section.split(".")):
        node = node[part]
    node[key] = value
    return cfg


def read_config(tmp_path, cfg: dict):
    """What a run reads from a config file, read as the subcommands read it,
    or the message of the ValueError that stops it."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    try:
        run = cli.resolve(argparse.Namespace(config=str(path)))
        train = cli.train_config(run)
        return {
            "": {"seed": run["seed"]},
            "model": cli.model_config(run),
            "train": train,
            "train.weights": train.weights,
            "gen.spec": cli.gen_spec(run),
            "gen": {"count": cli.config_int(run["gen"]["count"], "gen.count", 0)},
            "bench": {"samples": cli.config_int(run["bench"]["samples"], "bench.samples", 1)},
        }
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("entry", CONFIG_KEYS, ids=key_id)
def test_a_number_and_its_text_read_alike(tmp_path, entry):
    # 3 and "3", 0.5 and "0.5", [1, 2] and "1,2" give the same config or the
    # same error; so do the key's value in BASE and its text
    section, key, like = entry
    base = read_config(tmp_path, BASE)
    read = base[section]
    valid = read[key] if isinstance(read, dict) else getattr(read, key)
    many = isinstance(like, tuple)
    literal = [1, 2] if many else 0.5 if isinstance(like, float) else 3
    for value in (literal, list(valid) if many else valid):
        text = ",".join(str(x) for x in value) if many else str(value)
        number = read_config(tmp_path, with_value(section, key, value))
        assert read_config(tmp_path, with_value(section, key, text)) == number, (value, text)
    assert number == base


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("keys")
    synth.emit_corpus(1, synth.PRESETS["wide"], str(root / "corpus"), master_seed=0)
    checkpoint.save(str(root / "model.ckpt"), TableModel(TINY))
    return root


@pytest.mark.parametrize("entry", CONFIG_KEYS, ids=key_id)
def test_a_non_number_exits_2_naming_key_and_value(tmp_path, capsys, run_inputs, entry):
    section, key, like = entry
    named, command = NAMED[section]
    argv = [command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")]
    if command != "gen":
        argv += ["--corpus", str(run_inputs / "corpus")]
    if command == "bench":
        argv += ["--model", str(run_inputs / "model.ckpt")]
    for value in (True, None, 2.7, "abc", "1_0", " 7 ", "\u0663"):
        if value == 2.7 and isinstance(like, float) or value is None and key == "samples":
            continue  # a number; bench.samples null, its default, benches every record
        (tmp_path / "c.json").write_text(json.dumps(with_value(section, key, value)))
        assert cli.main(argv) == cli.EXIT_DATA, value
        err = capsys.readouterr().err
        assert named.format(key=key) in err and f"got {value!r}" in err, err
    assert not (tmp_path / "out" / "model.ckpt").exists()


def test_header_text_round_trips():
    rng = np.random.default_rng(12)
    for _ in range(100):
        cfg = replace(random_small_config(rng), image_side=int(rng.choice([8, 16, 64, 128])),
                      enc_channels=tuple(int(c) for c in rng.integers(1, 65, size=3)))
        assert ModelConfig.from_text(cfg.to_text()) == cfg


def test_an_earlier_tabmark1_file_loads_bitwise(tmp_path):
    # kept as an earlier version of checkpoint.save wrote it, before the header
    # was read through read_fields: it loads to the same config, and saving it
    # again gives the same bytes after the magic, then their checksum, so
    # every weight loaded bitwise
    path = Path(__file__).parent / "data" / "tabmark1_tiny.ckpt"
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == (
        "1af102295a2520dfec7aec82821dcf91c47178f81abcd52d35d6b28386949d6a"
    )
    model = checkpoint.load(str(path))
    assert model.cfg == ModelConfig(
        image_side=8, d=4, heads=1, ffn_mult=1, enc_channels=(1, 1, 1), window=5,
        struct_cap=20, content_cap=30, variant="bbox", seed=7,
    )
    checkpoint.save(str(tmp_path / "again.ckpt"), model)
    body = raw[8:]
    assert (tmp_path / "again.ckpt").read_bytes() == (
        b"TABMARK2" + body + struct.pack("<I", zlib.crc32(body))
    )


@pytest.mark.parametrize("section", [{"d": 10**20, "heads": 4}, {"struct_cap": 10**12}])
def test_huge_json_sizes_are_named(section):
    key = next(iter(section))
    with pytest.raises(ValueError, match=f"^{key} must be at most [0-9]+, got {section[key]}$"):
        cli.model_config({"seed": 0, "model": section})


def test_random_annotations_load_valid_or_fail_located(tmp_path):
    # structures are generated ones after up to 2 random token edits; the
    # cell count and the complex flag are right or off by a little
    rng = np.random.default_rng(4)
    synth.emit_corpus(3, synth.PRESETS["wide"], str(tmp_path), master_seed=4)
    ann_path = tmp_path / "annotations.jsonl"
    lines = ann_path.read_text().splitlines()
    loaded = 0
    for _ in range(200):
        line = int(rng.integers(0, len(lines)))
        ann = json.loads(lines[line])
        tokens = ann["structure_tokens"]
        for _ in range(int(rng.integers(0, 3))):
            at = int(rng.integers(0, len(tokens) + 1))
            width, new = int(rng.integers(0, 2)), int(rng.integers(-1, len(V.STRUCTURE)))
            tokens[at : at + width] = [V.STRUCTURE.decode(new)] if new >= 0 else []
        n_cells = sum(t in (V.TD_MERGED, V.TD_CLOSE) for t in tokens)
        n_cells = max(0, n_cells + int(rng.choice([-1, 0, 0, 0, 1])))
        ann["cells"] = [{"text": "a", "box": [0.5, 0.5, 0.1, 0.1]}] * n_cells
        ann["complex"] = (V.TD_OPEN in tokens) != (rng.random() < 0.1)
        edited = lines[:line] + [json.dumps(ann)] + lines[line + 1 :]
        ann_path.write_text("\n".join(edited) + "\n")
        try:
            records = synth.load_corpus(str(tmp_path))
        except ValueError as e:
            assert str(e).startswith(f"{ann_path}:{line + 1}: "), str(e)
            continue
        rec = records[line][1]
        V._validate_structure(rec.structure_ids)
        assert len(V.iter_cells(rec.structure_ids)) == len(rec.cells)
        assert rec.is_complex == (V.STRUCTURE[V.TD_OPEN] in rec.structure_ids)
        loaded += 1
    assert 20 < loaded < 180


def random_small_config(rng) -> ModelConfig:
    """A random small model: d 8-24, 1-8 heads, 1-3 blocks of each kind, a
    window of 0-5 or 300, small caps and any variant."""
    d = int(rng.choice([8, 12, 16, 20, 24]))
    heads = int(rng.choice([h for h in range(1, 9) if d % h == 0]))
    return ModelConfig(
        image_side=32, d=d, heads=heads, enc_channels=(4, 8, 16),
        html_blocks=int(rng.integers(1, 4)), cell_blocks=int(rng.integers(1, 4)),
        refiner_blocks=int(rng.integers(1, 4)), ffn_mult=int(rng.integers(1, 3)),
        window=int(rng.choice([0, 1, 2, 3, 4, 5, 300])), struct_cap=int(rng.integers(4, 25)),
        content_cap=int(rng.integers(4, 41)), variant=str(rng.choice(["bbox", "through", "full"])),
        seed=int(rng.integers(0, 1000)),
    )


def test_random_configs_decode_cached_as_uncached():
    # assert_cache_exact runs both schedules, cached against the plain
    # reference: same tokens, pass counts and truncation, logits within 1e-12.
    # Half the decodes are steered to a wide table with its cells scripted,
    # cut to 0-8 tokens; the rest are the untrained model's own greedy output.
    # Then the table's structure prefix goes to a cached html_step in chunks
    # of 1-5 rows, so that structure rows also attend through gathered keys,
    # windows shorter than the prefix among them.
    rng = np.random.default_rng(11)
    for i in range(32):
        model = TableModel(random_small_config(rng))
        rec = synth.generate(synth.PRESETS["wide"], seed=i)
        if i % 2:
            scripts = [content_ids(c)[: int(rng.integers(0, 9))] for c in rec.cells]
            assert_cache_exact(model, rec.image, steer_to(list(rec.structure_ids)), scripts)
        else:
            assert_cache_exact(model, rec.image)
        assert_structure_chunks_exact(model, rec, np.random.default_rng((11, i)))


def assert_structure_chunks_exact(model, rec, rng):
    ids = [V.STRUCTURE.sos] + list(rec.structure_ids)[: model.cfg.struct_cap - 1]
    with ad.no_grad():
        feats = model.encode_image(synth.prepare_image(rec.image, model.cfg.image_side))
        want = [t.data for t in model.html_step(ids, "ltor", feats)]
        cache, got, end = DecodeCache(feats), [], 0
        while end < len(ids):
            end = min(len(ids), end + int(rng.integers(1, 6)))
            got.append([t.data for t in model.html_step(ids[:end], "ltor", cache)])
    for rows, full in zip(zip(*got), want):
        rows = np.concatenate(rows)
        assert rows.shape == full.shape and np.abs(rows - full).max() <= 1e-12
