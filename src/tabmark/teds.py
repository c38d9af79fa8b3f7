"""Tree-edit-distance similarity for table HTML, and the one table HTML parser.

html_to_tree() is the one parser for table HTML: vocab tokenizes and eval
scores through it.  Markup outside the subset is a located ValueError.

ted() is an exact ordered-tree edit distance (keyroot/forest-distance dynamic
program) with unit insert/delete cost.  Rename costs 1 when labels differ;
between two td nodes carrying contents it is the normalized character-level
edit distance, so similarity stays in [0,1].  teds = 1 - ted/max(|T1|,|T2|).

ted_bruteforce() enumerates every valid Tai mapping and exists purely as an
oracle for small trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser


@dataclass
class Node:
    label: str
    text: str | None = None  # td contents in total mode
    children: list["Node"] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


_CONTAINERS = ("table", "thead", "tbody", "tr")


class _TreeParser(HTMLParser):
    """Accepts the table subset plus thead/tbody wrappers as plain nodes; a td
    label is 'td' plus its spans above 1 as name="k", colspan first."""

    def __init__(self, mode: str):
        super().__init__(convert_charrefs=True)
        self.mode = mode
        self.root: Node | None = None
        self.stack: list[Node] = []
        self._text: list[str] | None = None

    def _fail(self, msg: str) -> None:
        line, col = self.getpos()
        raise ValueError(f"line {line}, column {col}: {msg}")

    def handle_starttag(self, tag, attrs):
        if tag == "table":
            if self.root is not None:
                self._fail("unexpected <table>")
            self.root = Node("table")
            self.stack.append(self.root)
            return
        if not self.stack:
            self._fail(f"<{tag}> outside <table>")
        if tag in ("thead", "tbody", "tr"):
            if self.stack[-1].label not in _CONTAINERS or self.stack[-1].label == "tr":
                self._fail(f"<{tag}> in <{self.stack[-1].label}>")
            node = Node(tag)
        elif tag == "td":
            if self.stack[-1].label != "tr":
                self._fail("<td> outside <tr>")
            node = Node(self._td_label(attrs), text="" if self.mode == "total" else None)
            self._text = []
        else:
            self._fail(f"unsupported tag <{tag}>")
            return
        self.stack[-1].children.append(node)
        self.stack.append(node)

    def _td_label(self, attrs) -> str:
        spans = {}
        for name, value in attrs:
            if name not in ("colspan", "rowspan"):
                self._fail(f"unsupported attribute {name!r}")
            if name in spans:
                self._fail(f"duplicate attribute {name!r}")
            if value is not None and not (value.isascii() and value.isdigit()):
                self._fail(f"non-integer {name}={value!r}")  # int() takes "1_0", " 2", "+2", "٣"
            k = int(value) if value is not None else 1
            if k < 1:
                self._fail(f"{name}={k} must be positive")
            spans[name] = k
        parts = ["td"]
        for name in ("colspan", "rowspan"):  # canonical attribute order
            if spans.get(name, 1) > 1:
                parts.append(f'{name}="{spans[name]}"')
        return " ".join(parts)

    def handle_endtag(self, tag):
        if not self.stack:
            self._fail(f"stray </{tag}>")
        top = self.stack[-1].label.split(" ")[0]
        if top != tag:
            self._fail(f"mismatched </{tag}> (open: <{top}>)")
        node = self.stack.pop()
        if tag == "td":
            if self.mode == "total":
                node.text = "".join(self._text or []).strip()
            self._text = None

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        self.handle_endtag(tag)

    def handle_data(self, data):
        if self._text is not None:
            self._text.append(data)
        elif data.strip():
            self._fail(f"text outside <td>: {data.strip()[:20]!r}")


def html_to_tree(html: str, mode: str = "total") -> Node:
    """Parse table HTML to a Node tree; structural mode drops cell contents."""
    if mode not in ("structural", "total"):
        raise ValueError(f"mode must be structural or total, got {mode!r}")
    parser = _TreeParser(mode)
    parser.feed(html)
    parser.close()
    if parser.root is None:
        raise ValueError("no <table> element found")
    if parser.stack:
        raise ValueError(f"unclosed tag <{parser.stack[-1].label}>")
    return parser.root


def classify(tree: Node) -> str:
    """complex iff any td carries a span attribute with value > 1."""
    def has_span(node: Node) -> bool:
        if "colspan" in node.label or "rowspan" in node.label:
            return True
        return any(has_span(c) for c in node.children)

    return "complex" if has_span(tree) else "simple"


def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def rename_cost(n1: Node, n2: Node) -> float:
    if n1.label != n2.label:
        return 1.0
    if n1.text is None and n2.text is None:
        return 0.0
    a, b = n1.text or "", n2.text or ""
    if not a and not b:
        return 0.0
    return levenshtein(a, b) / max(len(a), len(b))


class _Annotated:
    """Postorder node list with leftmost-leaf-descendant indices and keyroots."""

    def __init__(self, root: Node):
        self.nodes: list[Node] = []
        self.lmld: list[int] = []  # 1-based postorder index of leftmost leaf
        self._walk(root)
        n = len(self.nodes)
        seen: set[int] = set()
        keyroots = []
        for i in range(n, 0, -1):  # highest postorder wins per leftmost leaf
            if self.lmld[i - 1] not in seen:
                seen.add(self.lmld[i - 1])
                keyroots.append(i)
        self.keyroots = sorted(keyroots)

    def _walk(self, node: Node) -> int:
        first_leaf = None
        for child in node.children:
            leaf = self._walk(child)
            if first_leaf is None:
                first_leaf = leaf
        self.nodes.append(node)
        idx = len(self.nodes)
        self.lmld.append(first_leaf if first_leaf is not None else idx)
        return self.lmld[idx - 1]


def ted(t1: Node, t2: Node) -> float:
    """Exact ordered tree edit distance with the cost model above."""
    a, b = _Annotated(t1), _Annotated(t2)
    n, m = len(a.nodes), len(b.nodes)
    dist = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in a.keyroots:
        for j in b.keyroots:
            _forest_dist(a, b, i, j, dist)
    return dist[n][m]


def _forest_dist(a: _Annotated, b: _Annotated, i: int, j: int, dist) -> None:
    li, lj = a.lmld[i - 1], b.lmld[j - 1]
    rows, cols = i - li + 2, j - lj + 2
    fd = [[0.0] * cols for _ in range(rows)]
    for x in range(1, rows):
        fd[x][0] = fd[x - 1][0] + 1.0  # delete
    for y in range(1, cols):
        fd[0][y] = fd[0][y - 1] + 1.0  # insert
    for x in range(1, rows):
        ni = li + x - 1  # postorder index in a
        for y in range(1, cols):
            nj = lj + y - 1
            if a.lmld[ni - 1] == li and b.lmld[nj - 1] == lj:
                cost = rename_cost(a.nodes[ni - 1], b.nodes[nj - 1])
                fd[x][y] = min(
                    fd[x - 1][y] + 1.0,
                    fd[x][y - 1] + 1.0,
                    fd[x - 1][y - 1] + cost,
                )
                dist[ni][nj] = fd[x][y]
            else:
                x0 = a.lmld[ni - 1] - li
                y0 = b.lmld[nj - 1] - lj
                fd[x][y] = min(
                    fd[x - 1][y] + 1.0,
                    fd[x][y - 1] + 1.0,
                    fd[x0][y0] + dist[ni][nj],
                )


def teds(t1: Node, t2: Node) -> float:
    """1 - ted / max(|T1|, |T2|), clipped into [0,1] against rounding."""
    score = 1.0 - ted(t1, t2) / max(t1.size(), t2.size())
    return min(1.0, max(0.0, score))


# -- brute-force oracle --------------------------------------------------------


def _order_index(root: Node) -> list[tuple[Node, int, int]]:
    """(node, preorder, postorder) triples."""
    out: list[tuple[Node, int, int]] = []
    counter = {"pre": 0, "post": 0}

    def walk(node: Node):
        pre = counter["pre"]
        counter["pre"] += 1
        slot = len(out)
        out.append((node, pre, -1))
        for c in node.children:
            walk(c)
        out[slot] = (node, pre, counter["post"])
        counter["post"] += 1

    walk(root)
    return out


def ted_bruteforce(t1: Node, t2: Node) -> float:
    """Minimum cost over all valid Tai mappings; exponential, small trees only.

    A mapping is valid iff it preserves both preorder and postorder between
    the mapped pairs (equivalent to preserving ancestorship and left-right
    order).  Cost: renames on mapped pairs plus deletes/inserts on the rest.
    """
    a_nodes = _order_index(t1)
    b_nodes = _order_index(t2)
    best = [float(len(a_nodes) + len(b_nodes))]  # map nothing

    def extend(ai: int, mapping: list[tuple[int, int]], cost: float) -> None:
        # admissible bound: renames so far + deletions already decided +
        # inserts that no future match can avoid
        deletes = ai - len(mapping)
        future_matches = min(len(a_nodes) - ai, len(b_nodes) - len(mapping))
        inserts = (len(b_nodes) - len(mapping)) - future_matches
        if cost + deletes + inserts >= best[0]:
            return
        if ai == len(a_nodes):
            total = cost + (len(a_nodes) - len(mapping)) + (len(b_nodes) - len(mapping))
            best[0] = min(best[0], total)
            return
        extend(ai + 1, mapping, cost)  # delete a_nodes[ai]
        _, pre_a, post_a = a_nodes[ai]
        used = {bi for _, bi in mapping}
        for bi in range(len(b_nodes)):
            if bi in used:
                continue
            _, pre_b, post_b = b_nodes[bi]
            ok = True
            for aj, bj in mapping:
                _, pa, qa = a_nodes[aj]
                _, pb, qb = b_nodes[bj]
                if (pre_a < pa) != (pre_b < pb) or (post_a < qa) != (post_b < qb):
                    ok = False
                    break
            if ok:
                mapping.append((ai, bi))
                extend(ai + 1, mapping, cost + rename_cost(a_nodes[ai][0], b_nodes[bi][0]))
                mapping.pop()

    extend(0, [], 0.0)
    return best[0]
