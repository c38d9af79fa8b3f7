"""A scripted stand-in for the structure decoder of one model instance.

An untrained model emits no useful structure: greedy decoding runs to the
structure cap and yields no cells.  The stand-in makes an untrained model
decode the true structure of a table, so decode lengths match real tables
while every forward pass stays real: it calls the real ``html_step`` and
overwrites only the last row of its logits, the row greedy decoding reads,
with a one-hot on the true next token (EOS once the body is exhausted).
"""

from __future__ import annotations

from tabmark import vocab as V
from tabmark.model import TableModel


class ScriptedStructure:
    """Installed as ``model.html_step``; ``remove()`` restores the real method.

    ``real`` is the callable the stand-in forwards to.  It is looked up on
    every call, so a tracer may wrap it while the stand-in is installed.
    """

    def __init__(self, model: TableModel):
        if "html_step" in vars(model):
            raise ValueError("model.html_step is already replaced")
        self.model = model
        self.real = model.html_step
        self.body: tuple[int, ...] = ()
        self.calls = 0
        model.html_step = self

    def script(self, body) -> None:
        """Set the structure body (SOS/EOS excluded) the next decode must emit."""
        self.body = tuple(body)
        self.calls = 0

    def __call__(self, input_ids, direction, img_feats):
        logits, hidden = self.real(input_ids, direction, img_feats)
        self.calls += 1
        pos = len(input_ids) - 1  # body index of the token this pass predicts
        token = self.body[pos] if pos < len(self.body) else V.STRUCTURE.eos
        last = logits.data[-1]
        last[:] = 0.0
        last[token] = 1.0
        return logits, hidden

    def remove(self) -> None:
        del self.model.html_step
