"""Token vocabularies for table markup and cell text.

Structure tokens are literal HTML fragments: plain cells collapse to a single
``<td></td>`` token, while cells carrying a span attribute split into the
opening fragment, one token per attribute, ``>``, and ``</td>``, as
``cell_tokens`` spells them; HTML is parsed by ``teds.html_to_tree``.  Cell
text is tokenized per character over a small fixed alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .teds import html_to_tree

PAD = "<pad>"
SOS = "<sos>"
EOS = "<eos>"
SEP = "<sep>"
UNK = "<unk>"

MAX_SPAN = 10
ALPHABET = " abcdefghijklmnopqrstuvwxyz0123456789.,-%"
UNK_CHAR = "?"

TD_OPEN = "<td"
TD_MERGED = "<td></td>"
TD_CLOSE = "</td>"
TR_OPEN = "<tr>"
TR_CLOSE = "</tr>"
GT = ">"


@dataclass(frozen=True)
class Vocab:
    """Immutable token table; ids are dense and reserved tokens come first."""

    kind: str
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, token: str) -> int:
        return self._index()[token]

    def _index(self) -> dict[str, int]:
        # frozen dataclass: cache on the instance via object.__setattr__
        idx = self.__dict__.get("_idx")
        if idx is None:
            idx = {t: i for i, t in enumerate(self.tokens)}
            object.__setattr__(self, "_idx", idx)
        return idx

    def get(self, token: str, default: int | None = None) -> int | None:
        return self._index().get(token, default)

    def decode(self, token_id: int) -> str:
        return self.tokens[token_id]

    @property
    def pad(self) -> int:
        return self._index()[PAD]

    @property
    def sos(self) -> int:
        return self._index()[SOS]

    @property
    def eos(self) -> int:
        return self._index()[EOS]


def _structure_tokens() -> tuple[str, ...]:
    spans = [f' colspan="{k}"' for k in range(2, MAX_SPAN + 1)]
    spans += [f' rowspan="{k}"' for k in range(2, MAX_SPAN + 1)]
    return tuple(
        [PAD, SOS, EOS, TR_OPEN, TR_CLOSE, TD_MERGED, TD_OPEN] + spans + [GT, TD_CLOSE]
    )


def _content_tokens() -> tuple[str, ...]:
    return tuple([PAD, SOS, EOS, SEP, UNK] + list(ALPHABET))


STRUCTURE = Vocab(kind="structure", tokens=_structure_tokens())
CONTENT = Vocab(kind="content", tokens=_content_tokens())

SEP_ID = CONTENT[SEP]
UNK_ID = CONTENT[UNK]


@dataclass(frozen=True)
class TokenSeq:
    """A token id sequence tagged with its vocabulary."""

    kind: str  # "structure" | "content"
    ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("structure", "content"):
            raise ValueError(f"unknown vocabulary kind: {self.kind!r}")
        vocab = STRUCTURE if self.kind == "structure" else CONTENT
        n = len(vocab)
        for i in self.ids:
            if not 0 <= i < n:
                raise ValueError(f"token id {i} out of range for {self.kind} vocab")

    def __len__(self) -> int:
        return len(self.ids)


def cell_tokens(colspan: int, rowspan: int) -> list[int]:
    """One cell's tokens: <td></td> when it spans nothing, else the opening
    fragment, one token per span above 1 in canonical order (colspan, then
    rowspan), '>' and </td>."""
    if colspan == rowspan == 1:
        return [STRUCTURE[TD_MERGED]]
    ids = [STRUCTURE[TD_OPEN]]
    if colspan > 1:
        ids.append(STRUCTURE[f' colspan="{colspan}"'])
    if rowspan > 1:
        ids.append(STRUCTURE[f' rowspan="{rowspan}"'])
    return ids + [STRUCTURE[GT], STRUCTURE[TD_CLOSE]]


def tokenize_structure(html: str) -> TokenSeq:
    """Structure tokens of a table; cell text is ignored here.

    Parses with teds.html_to_tree, whose ValueError locates any construct
    outside the table subset by line and column.  On top of that it rejects
    what the vocabulary cannot spell: a <table> child other than <tr> and a
    span above MAX_SPAN.
    """
    ids: list[int] = []
    for r, row in enumerate(html_to_tree(html, "structural").children):
        if row.label != "tr":
            raise ValueError(f"unsupported <{row.label}> in <table>")
        ids.append(STRUCTURE[TR_OPEN])
        for c, cell in enumerate(row.children):
            spans = {"colspan": 1, "rowspan": 1}
            for part in cell.label.split(" ")[1:]:  # the spans above 1, as name="k"
                name, value = part.split("=")
                spans[name] = int(value.strip('"'))
                if spans[name] > MAX_SPAN:
                    raise ValueError(f"row {r}, cell {c}: {part} outside 1..{MAX_SPAN}")
            ids += cell_tokens(spans["colspan"], spans["rowspan"])
        ids.append(STRUCTURE[TR_CLOSE])
    return TokenSeq("structure", tuple(ids))


def iter_cells(ids) -> list[int]:
    """Positions of cell-final tokens (<td></td> or </td>), one per cell, in order."""
    merged, close = STRUCTURE[TD_MERGED], STRUCTURE[TD_CLOSE]
    return [i for i, t in enumerate(ids) if t in (merged, close)]


def _validate_structure(ids) -> None:
    """Accept exactly what tokenize_structure produces: the markup the ids
    spell must tokenize back to the same ids."""
    ids = tuple(ids)
    try:
        again = tokenize_structure(render_html(ids, [])).ids
    except ValueError as e:
        raise ValueError(f"tokens spell no supported table: {e}") from None
    if again != ids:
        k = next(k for k, (a, b) in enumerate(zip(ids + (None,), again + (None,))) if a != b)
        got, want = (STRUCTURE.decode(s[k]) if k < len(s) else "the end" for s in (ids, again))
        raise ValueError(f"position {k}: expected {want!r}, got {got!r}")


def render_html(structure_ids, cell_texts) -> str:
    """Lenient rendering of (possibly malformed) predicted tokens with cell text.

    Cell text is inserted at each cell-final token in order; left-over texts
    are dropped and missing ones render empty.  No validation: garbage tokens
    are concatenated as-is so downstream metrics can penalize them.
    """
    merged, close = STRUCTURE[TD_MERGED], STRUCTURE[TD_CLOSE]
    out: list[str] = ["<table>"]
    cell = 0
    for t in structure_ids:
        frag = STRUCTURE.decode(t)
        text = ""
        if t in (merged, close):
            text = cell_texts[cell] if cell < len(cell_texts) else ""
            cell += 1
        if t == merged and text:
            out.append(f"<td>{_escape(text)}</td>")
        elif t == close:
            out.append(_escape(text) + frag)
        else:
            out.append(frag)
    out.append("</table>")
    return "".join(out)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def tokenize_content(text: str) -> TokenSeq:
    """One id per character; characters outside the alphabet map to <unk>."""
    idx = CONTENT._index()
    ids = tuple(idx.get(ch, UNK_ID) for ch in text)
    return TokenSeq("content", ids)


def detokenize_content(ids) -> str:
    """Characters back from ids; <unk> renders as '?', other specials as ''."""
    out = []
    for i in ids:
        tok = CONTENT.decode(i)
        if len(tok) == 1:
            out.append(tok)
        elif i == UNK_ID:
            out.append(UNK_CHAR)
    return "".join(out)
