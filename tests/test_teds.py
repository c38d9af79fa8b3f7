import re

import numpy as np
import pytest

from tabmark import teds as T


def tree(label, *children, text=None):
    return T.Node(label, text=text, children=list(children))


def random_tree(rng, max_nodes: int, with_text: bool) -> T.Node:
    """Random ordered labeled tree with 1..max_nodes nodes."""
    n = int(rng.integers(1, max_nodes + 1))
    labels = ["table", "tr", "td", 'td colspan="2"']
    texts = ["", "a", "ab", "xy", "abc"]

    def make() -> T.Node:
        label = labels[int(rng.integers(0, len(labels)))]
        text = None
        if with_text and label.startswith("td"):
            text = texts[int(rng.integers(0, len(texts)))]
        return T.Node(label, text=text)

    nodes = [make() for _ in range(n)]
    root = nodes[0]
    for i in range(1, n):
        parent = nodes[int(rng.integers(0, i))]
        parent.children.append(nodes[i])
    return root


class TestHtmlToTree:
    def test_three_node_count(self):
        t = T.html_to_tree("<table><tr><td>a</td></tr></table>")
        assert t.size() == 3

    def test_structural_drops_contents(self):
        a = T.html_to_tree("<table><tr><td>a</td></tr></table>", mode="structural")
        b = T.html_to_tree("<table><tr><td>zzz</td></tr></table>", mode="structural")
        assert T.ted(a, b) == 0.0

    def test_attribute_order_normalized(self):
        a = T.html_to_tree('<table><tr><td rowspan="2" colspan="3">x</td></tr></table>')
        b = T.html_to_tree('<table><tr><td colspan="3" rowspan="2">x</td></tr></table>')
        assert T.ted(a, b) == 0.0
        assert a.children[0].children[0].label == 'td colspan="3" rowspan="2"'

    def test_tbody_kept_as_node(self):
        t = T.html_to_tree("<table><tbody><tr><td></td></tr></tbody></table>")
        assert t.children[0].label == "tbody"
        assert t.size() == 4

    def test_whitespace_trimmed(self):
        t = T.html_to_tree("<table><tr><td>  a b  </td></tr></table>")
        assert t.children[0].children[0].text == "a b"

    def test_parse_failure_reports_position(self):
        with pytest.raises(ValueError, match="line 1, column"):
            T.html_to_tree("<table><tr><div>x</div></tr></table>")
        with pytest.raises(ValueError, match="line 1, column 11: duplicate attribute 'colspan'"):
            T.html_to_tree('<table><tr><td colspan="2" colspan="3"></td></tr></table>')
        with pytest.raises(ValueError):
            T.html_to_tree("<table><tr><td>x</td>")
        with pytest.raises(ValueError):
            T.html_to_tree("no table here")

    @pytest.mark.parametrize("value", ["1_0", "\u0663", " 2", "+2"])
    def test_span_value_is_ascii_digits_only(self, value):
        # int() reads these as 10, 3, 2 and 2
        html = f'<table><tr><td colspan="{value}">x</td></tr></table>'
        where = re.escape(f"line 1, column 11: non-integer colspan={value!r}")
        with pytest.raises(ValueError, match=where):
            T.html_to_tree(html)
        with pytest.raises(ValueError, match="non-integer rowspan"):
            T.html_to_tree(html.replace("colspan", "rowspan"))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            T.html_to_tree("<table></table>", mode="both")


class TestClassify:
    def test_plain_grid_simple(self):
        t = T.html_to_tree("<table><tr><td></td><td></td></tr><tr><td></td><td></td></tr></table>")
        assert T.classify(t) == "simple"

    def test_rowspan_complex(self):
        t = T.html_to_tree('<table><tr><td rowspan="2"></td></tr><tr></tr></table>')
        assert T.classify(t) == "complex"

    def test_explicit_colspan_one_is_simple(self):
        t = T.html_to_tree('<table><tr><td colspan="1"></td></tr></table>')
        assert T.classify(t) == "simple"


class TestTed:
    def test_identity(self):
        t = T.html_to_tree("<table><tr><td>ab</td><td>c</td></tr></table>")
        assert T.ted(t, t) == 0.0

    def test_single_insert(self):
        t1 = T.html_to_tree("<table><tr><td></td></tr></table>", mode="structural")
        t2 = T.html_to_tree("<table><tr><td></td><td></td></tr></table>", mode="structural")
        assert T.ted(t1, t2) == 1.0

    def test_rename_uses_normalized_levenshtein(self):
        t1 = T.html_to_tree("<table><tr><td>ab</td></tr></table>")
        t2 = T.html_to_tree("<table><tr><td>ax</td></tr></table>")
        assert T.ted(t1, t2) == pytest.approx(0.5)

    def test_label_mismatch_costs_one(self):
        t1 = tree("td", text="same")
        t2 = tree('td colspan="2"', text="same")
        assert T.ted(t1, t2) == 1.0

    def test_empty_vs_empty_content_free(self):
        t1 = T.html_to_tree("<table><tr><td></td></tr></table>")
        assert T.ted(t1, t1) == 0.0

    def test_oracle_equivalence_500_pairs(self):
        rng = np.random.default_rng(2024)
        for k in range(500):
            t1 = random_tree(rng, 6, with_text=k % 2 == 0)
            t2 = random_tree(rng, 6, with_text=k % 2 == 0)
            dp = T.ted(t1, t2)
            brute = T.ted_bruteforce(t1, t2)
            assert dp == pytest.approx(brute, abs=1e-12), f"pair {k}"

    def test_metric_axioms_200_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_tree(rng, 5, with_text=True)
            b = random_tree(rng, 5, with_text=True)
            c = random_tree(rng, 5, with_text=True)
            dab, dba = T.ted(a, b), T.ted(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)  # symmetry
            assert T.ted(a, a) == 0.0  # identity
            assert T.ted(a, c) <= T.ted(a, b) + T.ted(b, c) + 1e-12  # triangle

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_tree(rng, 6, with_text=True)
            b = random_tree(rng, 6, with_text=True)
            d = T.ted(a, b)
            assert 0.0 <= d <= a.size() + b.size()


class TestTeds:
    def test_identical_is_one(self):
        t = T.html_to_tree("<table><tr><td>a</td></tr></table>")
        assert T.teds(t, t) == 1.0

    def test_worked_three_vs_four_nodes(self):
        t1 = T.html_to_tree("<table><tr><td></td></tr></table>", mode="structural")
        t2 = T.html_to_tree("<table><tr><td></td><td></td></tr></table>", mode="structural")
        assert T.teds(t1, t2) == pytest.approx(0.75)

    def test_range_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = random_tree(rng, 6, with_text=True)
            b = random_tree(rng, 6, with_text=True)
            assert 0.0 <= T.teds(a, b) <= 1.0

    def test_structural_equal_when_only_content_differs(self):
        h1 = "<table><tr><td>aa</td><td>bb</td></tr></table>"
        h2 = "<table><tr><td>xx</td><td>yy</td></tr></table>"
        s1 = T.html_to_tree(h1, mode="structural")
        s2 = T.html_to_tree(h2, mode="structural")
        assert T.teds(s1, s2) == 1.0
        f1 = T.html_to_tree(h1, mode="total")
        f2 = T.html_to_tree(h2, mode="total")
        assert T.teds(f1, f2) < 1.0

    def test_corpus_trees_self_similarity(self):
        from tabmark import synth

        for seed in range(20):
            rec = synth.generate(synth.PRESETS["dense" if seed % 2 else "wide"], seed)
            for mode in ("structural", "total"):
                t = T.html_to_tree(rec.html(), mode=mode)
                assert T.teds(t, t) == 1.0
