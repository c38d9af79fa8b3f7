import itertools
import re
from html.parser import HTMLParser

import numpy as np
import pytest

from tabmark import vocab as V
from tabmark.model import content_buffer


def tok(s: str) -> int:
    return V.STRUCTURE[s]


class TestVocabTables:
    def test_reserved_ids_first_and_distinct(self):
        for voc, reserved in [
            (V.STRUCTURE, (V.PAD, V.SOS, V.EOS)),
            (V.CONTENT, (V.PAD, V.SOS, V.EOS, V.SEP, V.UNK)),
        ]:
            ids = [voc[t] for t in reserved]
            assert ids == list(range(len(reserved)))
            assert len(set(ids)) == len(ids)

    def test_dense_ids_roundtrip(self):
        for voc in (V.STRUCTURE, V.CONTENT):
            for i, t in enumerate(voc.tokens):
                assert voc[t] == i
                assert voc.decode(i) == t

    def test_sep_only_in_content(self):
        assert V.SEP in V.CONTENT.tokens
        assert V.SEP not in V.STRUCTURE.tokens


class TestTokenizeStructure:
    def test_plain_cell_merges(self):
        seq = V.tokenize_structure("<table><tr><td></td></tr></table>")
        assert list(seq.ids) == [tok(V.TR_OPEN), tok(V.TD_MERGED), tok(V.TR_CLOSE)]

    def test_spanned_cell_token_group(self):
        seq = V.tokenize_structure('<table><tr><td rowspan="2"></td></tr></table>')
        assert list(seq.ids) == [
            tok(V.TR_OPEN),
            tok(V.TD_OPEN),
            tok(' rowspan="2"'),
            tok(V.GT),
            tok(V.TD_CLOSE),
            tok(V.TR_CLOSE),
        ]

    def test_attribute_order_normalized(self):
        a = V.tokenize_structure('<table><tr><td rowspan="3" colspan="2"></td></tr></table>')
        b = V.tokenize_structure('<table><tr><td colspan="2" rowspan="3"></td></tr></table>')
        assert a.ids == b.ids
        names = [V.STRUCTURE.decode(i) for i in a.ids]
        assert names.index(' colspan="2"') < names.index(' rowspan="3"')

    def test_span_value_one_collapses_to_merged(self):
        seq = V.tokenize_structure('<table><tr><td colspan="1"></td></tr></table>')
        assert list(seq.ids) == [tok(V.TR_OPEN), tok(V.TD_MERGED), tok(V.TR_CLOSE)]

    @pytest.mark.parametrize(
        "html",
        [
            "<table><tr><th></th></tr></table>",
            '<table><tr><td align="left"></td></tr></table>',
            '<table><tr><td colspan="11"></td></tr></table>',
            '<table><tr><td colspan="0"></td></tr></table>',
            "<table><td></td></table>",
            "<table><tr>stray</tr></table>",
            "<table><tr><td></td>",
            "<tr><td></td></tr>",
        ],
    )
    def test_rejections(self, html):
        with pytest.raises(ValueError):
            V.tokenize_structure(html)

    def test_rejection_reports_position(self):
        with pytest.raises(ValueError, match=r"line 1, column"):
            V.tokenize_structure("<table><tr><th></th></tr></table>")

    def test_detokenize_rejects_malformed(self):
        with pytest.raises(ValueError):
            V._validate_structure([tok(V.TD_MERGED)])  # cell outside a row
        with pytest.raises(ValueError):
            V._validate_structure([tok(V.TR_OPEN)])  # unterminated row
        with pytest.raises(ValueError):
            # td_open immediately followed by '>' violates the merged-token rule
            V._validate_structure(
                [tok(V.TR_OPEN), tok(V.TD_OPEN), tok(V.GT), tok(V.TD_CLOSE), tok(V.TR_CLOSE)]
            )

    def test_roundtrip_on_generated_tables(self):
        from tabmark import synth

        rng = np.random.default_rng(7)
        for _ in range(200):
            rec = synth.generate(synth.PRESETS["wide"], int(rng.integers(1 << 30)))
            V._validate_structure(rec.structure_ids)
            again = V.tokenize_structure(V.render_html(rec.structure_ids, []))
            assert tuple(again.ids) == tuple(rec.structure_ids)

    def test_merged_token_rule_never_open_then_bracket(self):
        from tabmark import synth

        open_id, gt_id = tok(V.TD_OPEN), tok(V.GT)
        for seed in range(50):
            ids = synth.generate(synth.PRESETS["dense"], seed).structure_ids
            for a, b in zip(ids, ids[1:]):
                assert not (a == open_id and b == gt_id)


class TestContent:
    def test_empty(self):
        assert V.tokenize_content("").ids == ()

    def test_per_character(self):
        seq = V.tokenize_content("ab")
        assert [V.CONTENT.decode(i) for i in seq.ids] == ["a", "b"]

    def test_roundtrip_with_space(self):
        assert V.detokenize_content(V.tokenize_content("a b").ids) == "a b"

    def test_unknown_maps_to_unk(self):
        seq = V.tokenize_content("aZb")
        assert seq.ids[1] == V.UNK_ID
        assert V.detokenize_content(seq.ids) == "a?b"


class TestConcatCells:
    """Joining per-cell content ids into the content buffer (model.content_buffer)."""

    def test_empty_list(self):
        assert content_buffer([])[0] == [V.CONTENT.sos]

    def test_layout_and_split(self):
        cells = [list(V.tokenize_content(s).ids) for s in ("ab", "", "c")]
        joined, _ = content_buffer(cells)
        a, b, c = (V.CONTENT[ch] for ch in "abc")
        assert joined == [V.CONTENT.sos, a, b, V.SEP_ID, V.SEP_ID, c, V.SEP_ID]

    def test_cell_index_by_sep_count(self):
        joined, _ = content_buffer([list(V.tokenize_content(s).ids) for s in ("ab", "", "c")])
        pos_c = joined.index(V.CONTENT["c"])
        assert sum(1 for i in joined[:pos_c] if i == V.SEP_ID) == 2

    def test_sep_count_bijection(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(0, 8))
            texts = ["".join(rng.choice(list("abc"), size=rng.integers(0, 5))) for _ in range(n)]
            cells = [list(V.tokenize_content(t).ids) for t in texts]
            joined, _ = content_buffer(cells)
            assert sum(1 for i in joined if i == V.SEP_ID) == n
            assert joined == [V.CONTENT.sos] + [i for c in cells for i in c + [V.SEP_ID]]


class TestTokenSeq:
    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError):
            V.TokenSeq("content", (len(V.CONTENT),))
        with pytest.raises(ValueError):
            V.TokenSeq("structure", (-1,))


class TestRenderHtml:
    def test_render_with_contents(self):
        ids = [tok(V.TR_OPEN), tok(V.TD_MERGED), tok(V.TD_MERGED), tok(V.TR_CLOSE)]
        html = V.render_html(ids, ["ab", "c"])
        assert html == "<table><tr><td>ab</td><td>c</td></tr></table>"

    def test_render_spanned_and_missing_text(self):
        ids = [
            tok(V.TR_OPEN),
            tok(V.TD_OPEN),
            tok(' colspan="2"'),
            tok(V.GT),
            tok(V.TD_CLOSE),
            tok(V.TR_CLOSE),
        ]
        html = V.render_html(ids, ["xy"])
        assert html == '<table><tr><td colspan="2">xy</td></tr></table>'
        assert V.render_html(ids, []) == '<table><tr><td colspan="2"></td></tr></table>'

    def test_render_tolerates_garbage(self):
        html = V.render_html([tok(V.GT), tok(V.TD_MERGED)], ["a"])
        assert html.startswith("<table>") and html.endswith("</table>")


# -- references: a parser of its own for the table subset and a hand-written
# token automaton; tokenize_structure and _validate_structure, which derive
# both from teds.html_to_tree, must accept and reject exactly what these do ----


class RefTableParser(HTMLParser):
    """Strict parser for the supported table subset; anything else is an error."""

    ALLOWED_ATTRS = ("colspan", "rowspan")

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.ids: list[int] = []
        self.stack: list[str] = []  # open tags: table / tr / td
        self.cell_texts: list[str] = []
        self._text: list[str] | None = None
        self._pending: list[int] = []
        self.saw_table = False

    def _fail(self, msg: str) -> None:
        line, col = self.getpos()
        raise ValueError(f"line {line}, column {col}: {msg}")

    def handle_starttag(self, tag, attrs) -> None:
        if tag == "table":
            if self.stack or self.saw_table:
                self._fail("unexpected <table>")
            self.stack.append("table")
            self.saw_table = True
        elif tag == "tr":
            if self.stack != ["table"]:
                self._fail("<tr> outside <table>")
            self.stack.append("tr")
            self.ids.append(tok(V.TR_OPEN))
        elif tag == "td":
            if self.stack != ["table", "tr"]:
                self._fail("<td> outside <tr>")
            self.stack.append("td")
            self._text = []
            self._emit_td(attrs)
        else:
            self._fail(f"unsupported tag <{tag}>")

    def _emit_td(self, attrs) -> None:
        spans: dict[str, int] = {}
        for name, value in attrs:
            if name not in self.ALLOWED_ATTRS:
                self._fail(f"unsupported attribute {name!r} on <td>")
            if name in spans:
                self._fail(f"duplicate attribute {name!r}")
            if value is not None and not (value.isascii() and value.isdigit()):
                self._fail(f"non-integer {name}={value!r}")
                return
            k = int(value) if value is not None else 1
            if not 1 <= k <= V.MAX_SPAN:
                self._fail(f"{name}={k} outside 1..{V.MAX_SPAN}")
            spans[name] = k
        spans = {n: k for n, k in spans.items() if k > 1}
        if not spans:
            self._pending = [tok(V.TD_MERGED)]
            return
        ids = [tok(V.TD_OPEN)]
        for name in self.ALLOWED_ATTRS:  # canonical order: colspan then rowspan
            if name in spans:
                ids.append(tok(f' {name}="{spans[name]}"'))
        ids.append(tok(V.GT))
        self._pending = ids

    def handle_endtag(self, tag: str) -> None:
        if not self.stack or self.stack[-1] != tag:
            self._fail(f"mismatched </{tag}>")
        self.stack.pop()
        if tag == "td":
            self.ids.extend(self._pending)
            if self._pending != [tok(V.TD_MERGED)]:
                self.ids.append(tok(V.TD_CLOSE))
            self._pending = []
            self.cell_texts.append("".join(self._text or []))
            self._text = None
        elif tag == "tr":
            self.ids.append(tok(V.TR_CLOSE))

    def handle_startendtag(self, tag: str, attrs) -> None:
        self.handle_starttag(tag, attrs)
        self.handle_endtag(tag)

    def handle_data(self, data: str) -> None:
        if self._text is not None:
            self._text.append(data)
        elif data.strip():
            self._fail(f"text outside <td>: {data.strip()[:20]!r}")


def ref_parse_table(html: str) -> tuple[list[int], list[str]]:
    """(structure token ids, per-cell text); ValueError outside the subset."""
    parser = RefTableParser()
    parser.feed(html)
    parser.close()
    if parser.stack:
        raise ValueError(f"unclosed tag <{parser.stack[-1]}>")
    if not parser.saw_table:
        raise ValueError("no <table> element found")
    return parser.ids, parser.cell_texts


COLSPAN_IDS = frozenset(tok(f' colspan="{k}"') for k in range(2, V.MAX_SPAN + 1))
ROWSPAN_IDS = frozenset(tok(f' rowspan="{k}"') for k in range(2, V.MAX_SPAN + 1))


def ref_validate_structure(ids) -> None:
    """The token automaton: rows of plain cells and span groups."""
    tr_open, tr_close = tok(V.TR_OPEN), tok(V.TR_CLOSE)
    merged, td_open, gt, td_close = tok(V.TD_MERGED), tok(V.TD_OPEN), tok(V.GT), tok(V.TD_CLOSE)
    i, n = 0, len(ids)
    while i < n:
        if ids[i] != tr_open:
            raise ValueError(f"position {i}: expected {V.TR_OPEN}")
        i += 1
        while i < n and ids[i] != tr_close:
            if ids[i] == merged:
                i += 1
            elif ids[i] == td_open:
                i += 1
                saw_span = False
                if i < n and ids[i] in COLSPAN_IDS:
                    saw_span = True
                    i += 1
                if i < n and ids[i] in ROWSPAN_IDS:
                    saw_span = True
                    i += 1
                if not saw_span:
                    raise ValueError(f"position {i}: {V.TD_OPEN} without span attribute")
                if i >= n or ids[i] != gt:
                    raise ValueError(f"position {i}: expected {V.GT!r} after span attributes")
                i += 1
                if i >= n or ids[i] != td_close:
                    raise ValueError(f"position {i}: expected {V.TD_CLOSE} after {V.GT!r}")
                i += 1
            else:
                raise ValueError(f"position {i}: unexpected token inside row")
        if i >= n:
            raise ValueError("unterminated row")
        i += 1  # consume tr_close


def outcome(fn, arg):
    """("ok", fn(arg)), or ("error", None) when it raises ValueError."""
    try:
        return "ok", fn(arg)
    except ValueError:
        return "error", None


GRAMMAR = [tok(t) for t in (V.TR_OPEN, V.TR_CLOSE, V.TD_MERGED, V.TD_OPEN, V.GT, V.TD_CLOSE)]
GRAMMAR += [tok(' colspan="2"'), tok(' rowspan="2"')]

# markup pieces a mutated table is built from: cell openings the subset takes
# or rejects, the wrappers only eval accepts, and other constructs the subset
# rejects or ignores
TD_FRAGMENTS = [
    "<td>", "<td/>", '<td colspan="2">', '<td rowspan="3">', '<td colspan="0">',
    '<td rowspan="1">', '<td colspan="10">', '<td rowspan="11">', '<td colspan="2" colspan="3">',
    '<td rowspan="2" colspan="2" rowspan="2">', '<td rowspan="4" colspan="5">',
]
FRAGMENTS = TD_FRAGMENTS + [
    "<table>", "</table>", "<tr>", "</tr>", "</td>", "<thead>", "</thead>", "<tbody>",
    "</tbody>", "<th>", "</th>", "x", " ", "stray", "<!-- note -->", "&amp;", "&nbsp;",
]


def random_table(rng) -> list[str]:
    """Rows of random cells, each opened by a TD_FRAGMENTS piece, as a
    fragment list."""
    out = ["<table>"]
    for _ in range(int(rng.integers(0, 4))):
        out.append("<tr>")
        for _ in range(int(rng.integers(0, 4))):
            out += [str(rng.choice(TD_FRAGMENTS)), str(rng.choice(["", "x", "&amp;"])), "</td>"]
        out.append("</tr>")
    return out + ["</table>"]


class TestOneGrammar:
    """The one-parser tokenizer and round-trip validator against the
    references above, on exhaustive short and seeded random inputs."""

    def check_validator(self, ids, counts):
        want = outcome(ref_validate_structure, ids)
        assert outcome(V._validate_structure, ids) == want, [V.STRUCTURE.decode(i) for i in ids]
        counts[want[0]] += 1

    def test_validator_accepts_what_the_automaton_accepts(self):
        counts = {"ok": 0, "error": 0}
        for n in range(6):
            for ids in itertools.product(GRAMMAR, repeat=n):
                self.check_validator(ids, counts)
        # rows of random cells, then up to 2 edits drawing on the whole vocabulary
        rng = np.random.default_rng(10)
        for _ in range(20_000):
            ids = []
            for _ in range(int(rng.integers(0, 3))):
                ids.append(tok(V.TR_OPEN))
                for _ in range(int(rng.integers(0, 3))):
                    ids += V.cell_tokens(*(int(k) for k in rng.integers(1, V.MAX_SPAN + 1, 2)))
                ids.append(tok(V.TR_CLOSE))
            for _ in range(int(rng.integers(0, 3))):
                at = int(rng.integers(0, len(ids) + 1))
                width, new = int(rng.integers(0, 2)), int(rng.integers(-1, len(V.STRUCTURE)))
                ids[at : at + width] = [new] if new >= 0 else []  # -1 deletes
            self.check_validator(tuple(ids), counts)
        assert counts["ok"] > 100 and counts["error"] > 100

    def test_tokenizer_matches_the_reference_parser(self):
        rng = np.random.default_rng(11)
        counts = {"ok": 0, "error": 0}
        for _ in range(5_000):
            frags = random_table(rng)
            for _ in range(int(rng.integers(0, 3))):  # insert, replace or delete
                at, width = int(rng.integers(0, len(frags) + 1)), int(rng.integers(0, 2))
                frags[at : at + width] = [str(rng.choice(FRAGMENTS))] if rng.random() < 0.7 else []
            html = "".join(frags)
            want = outcome(lambda h: ref_parse_table(h)[0], html)
            assert outcome(lambda h: list(V.tokenize_structure(h).ids), html) == want, html
            counts[want[0]] += 1
        assert counts["ok"] > 500 and counts["error"] > 500

    def test_validator_names_the_first_position_that_differs(self):
        ids = [tok(V.TR_OPEN), tok(V.TD_OPEN), tok(V.GT), tok(V.TD_CLOSE), tok(V.TR_CLOSE)]
        with pytest.raises(ValueError, match=r"position 1: expected '<td></td>', got '<td'"):
            V._validate_structure(ids)
        with pytest.raises(ValueError, match=r"line 1, column \d+: unsupported tag <eos>"):
            V._validate_structure([tok(V.TR_OPEN), V.STRUCTURE.eos, tok(V.TR_CLOSE)])

    @pytest.mark.parametrize(
        "html, fault",
        [
            ("<table><tbody><tr><td></td></tr></tbody></table>", "unsupported <tbody>"),
            ('<table><tr><td rowspan="11"></td></tr></table>', 'row 0, cell 0: rowspan="11"'),
            ('<table><tr><td colspan="2" colspan="3"></td></tr></table>', "line 1, column 11"),
        ],
    )
    def test_tokenizer_rejects_what_eval_accepts_or_the_vocabulary_cannot_spell(
        self, html, fault
    ):
        with pytest.raises(ValueError, match=re.escape(fault)):
            V.tokenize_structure(html)

    @pytest.mark.parametrize("colspan, rowspan", [(1, 1), (3, 1), (1, 10), (2, 4)])
    def test_cell_tokens_tokenize_back(self, colspan, rowspan):
        html = f'<table><tr><td colspan="{colspan}" rowspan="{rowspan}"></td></tr></table>'
        ids = V.tokenize_structure(html).ids
        assert list(ids[1:-1]) == V.cell_tokens(colspan, rowspan)
