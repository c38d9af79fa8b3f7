"""In-memory spans around calls into tabmark's layers, for the traced run.

The tracer changes no file of the program.  ``Tracer.installed()`` replaces
attributes with timing wrappers for the duration of one operation and puts
the originals back afterwards:

- module functions (``synth.prepare_image``, ``decoding.decode_html``, ...),
  which the callers look up on their module at call time;
- methods of one model instance and of its decoder blocks' sub-layers;
- two methods of classes whose instances are created inside the code under
  test (``Tensor.backward``, ``AdamW.step``), where no instance is reachable.

Every span records its name, start, end, parent span and operation id.
Spans nest; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from tabmark import autodiff, bench, checkpoint, decoding, layers, synth, training

_NO_PARENT = -1


def _rows(args, kwargs) -> int:
    return len(args[0])


def _elements(args, kwargs) -> int:
    return int(autodiff.as_tensor(args[0]).data.size)


def count_tape_nodes(root: autodiff.Tensor) -> int:
    """Nodes reachable from root through the tape, the root included.

    Walks the parent links only; nothing in the graph is modified.
    """
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, parent index, op id, start, end]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op = -1

    # -- recording -------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def _open(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        row = [nid, self._stack[-1] if self._stack else _NO_PARENT, self.op, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[3] = time.perf_counter()
        return row

    def _close(self, row: list) -> None:
        row[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        row = self._open(name)
        try:
            yield
        finally:
            self._close(row)

    def wrap(self, name: str, fn, counter=None):
        """fn inside a span named name.

        counter, when given, is a (suffix, measure) pair: measure(args, kwargs)
        is added to the counter ``name.suffix`` on every call.
        """
        open_, close, add = self._open, self._close, self.count
        suffix, measure = counter if counter is not None else (None, None)
        key = f"{name}.{suffix}"

        def traced(*args, **kwargs):
            if measure is not None:
                add(key, measure(args, kwargs))
            row = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(row)

        return traced

    # -- installation ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, model=None, structure_standin=None):
        """Wrap every traced call site for the body of the with-block.

        Without a model only the module-level call sites are wrapped (set-up
        runs before any model exists).
        """
        saved: list[tuple[object, str, object, bool]] = []

        def replace(obj, attr, new):
            # restored in reverse order: an instance attribute that shadowed
            # nothing is deleted, anything else is set back
            saved.append((obj, attr, vars(obj).get(attr), attr in vars(obj)))
            setattr(obj, attr, new)

        def patch(obj, attr, name, counter=None):
            replace(obj, attr, self.wrap(name, getattr(obj, attr), counter))

        try:
            for fn in ("matmul", "layer_norm", "conv2d"):
                patch(autodiff, fn, f"autodiff.{fn}")
            patch(autodiff, "masked_softmax", "autodiff.masked_softmax", ("elements", _elements))
            patch(autodiff.Tensor, "backward", "autodiff.backward")
            patch(layers, "build_local_mask", "layers.build_local_mask")
            patch(layers, "build_cellwise_mask", "layers.build_cellwise_mask")
            patch(synth, "prepare_image", "synth.prepare_image")
            patch(decoding, "decode_html", "decoding.decode_html")
            patch(decoding, "decode_cells_parallel", "decoding.decode_cells_parallel")
            patch(training.AdamW, "step", "training.AdamW.step")
            patch(checkpoint, "save", "checkpoint.save")
            patch(checkpoint, "load", "checkpoint.load")
            replace(decoding, "DecodeState", _counting_state(self))

            # the scripted steps and the tape walk are harness work: they get spans
            # of their own so that their time is never credited to the program
            make_step = bench.make_scripted_step
            replace(bench, "make_scripted_step", lambda m, scripts: self.wrap(
                "bench.script", make_step(m, scripts)
            ))
            sample_loss = self.wrap("training.sample_loss", training.sample_loss)

            def sample_loss_and_walk(*args, **kwargs):
                out = sample_loss(*args, **kwargs)
                with self.span("bench.tape_walk"):
                    self.count("autodiff.tape_nodes", count_tape_nodes(out.total))
                return out

            replace(training, "sample_loss", sample_loss_and_walk)

            if model is not None:
                for meth in ("encode_image", "refine", "bbox_head"):
                    patch(model, meth, f"model.{meth}")
                patch(model, "cell_step", "model.cell_step", ("rows", _rows))
                if structure_standin is not None:
                    patch(structure_standin, "real", "model.html_step", ("rows", _rows))
                    patch(model, "html_step", "bench.script")
                else:
                    patch(model, "html_step", "model.html_step", ("rows", _rows))
                for stage, blocks in (
                    ("html", model.html_blocks),
                    ("cell", model.cell_blocks),
                    ("refiner", model.refiner_blocks),
                ):
                    for blk in blocks:
                        for sub in ("self_attn", "cross_attn", "ffn"):
                            if getattr(blk, sub) is not None:
                                patch(blk, sub, f"layers.{stage}.{sub}")
            yield self
        finally:
            for obj, attr, old, own in reversed(saved):
                if own:
                    setattr(obj, attr, old)
                else:
                    delattr(obj, attr)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, span count) per span name."""
        child = [0.0] * len(self.spans)
        for nid, parent, _op, start, end in self.spans:
            if parent != _NO_PARENT:
                child[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (nid, _parent, _op, start, end) in enumerate(self.spans):
            seconds[self.names[nid]] += end - start - child[i]
            calls[self.names[nid]] += 1
        return dict(seconds), dict(calls)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "parent", "op", "start_s", "end_s"],
                    "names": self.names,
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )


def _counting_state(tracer: Tracer):
    """A DecodeState whose unfrozen() counts the cells whose logits are read."""

    class CountingDecodeState(decoding.DecodeState):
        def unfrozen(self):
            active = super().unfrozen()
            tracer.count("decoding.read_rows", len(active))
            return active

    return CountingDecodeState
