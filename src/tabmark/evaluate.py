"""Corpus scoring: tree-edit similarity per pair, split by table complexity.

Report layout follows the usual convention: one column per group (simple,
complex, all) and one row per score (structural ignores cell text, total
includes it), values scaled to 0..100.
"""

from __future__ import annotations

import json
import multiprocessing
import os

from .teds import classify, html_to_tree, teds

WORKERS_ENV = "TABMARK_WORKERS"


def score_pair(truth_html: str, pred_html: str) -> dict:
    """Both similarity scores for one (ground truth, prediction) pair.

    The ground truth must parse.  A prediction that does not parse scores
    0.0 on both axes; an unusable output is a score, not a crash.
    """
    truth_total = html_to_tree(truth_html, "total")
    truth_struct = html_to_tree(truth_html, "structural")
    kind = classify(truth_total)
    try:
        pred_total = html_to_tree(pred_html, "total")
        pred_struct = html_to_tree(pred_html, "structural")
    except ValueError:
        return {"kind": kind, "structural": 0.0, "total": 0.0}
    return {
        "kind": kind,
        "structural": teds(truth_struct, pred_struct),
        "total": teds(truth_total, pred_total),
    }


def _score_one(item):
    sample_id, truth, pred = item
    try:
        row = score_pair(truth, pred)
    except ValueError as e:
        raise ValueError(f"sample {sample_id!r}: {e}") from e
    return {"id": sample_id, **row}


def worker_count(explicit=None) -> int:
    n = explicit
    if n is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"worker count must be positive, got {n}")
    return n


def evaluate_pairs(pairs, workers=None) -> list[dict]:
    """Score (id, truth_html, pred_html) triples, in input order.

    Scoring is a pure function of each pair, so the result is identical for
    any worker count (set via the TABMARK_WORKERS variable or the argument).
    At most one worker is started per pair.
    """
    items = list(pairs)
    n = worker_count(workers)
    if n == 1 or len(items) < 2:
        return [_score_one(it) for it in items]
    with multiprocessing.Pool(min(n, len(items))) as pool:
        return pool.map(_score_one, items)


def summarize(rows) -> dict:
    """Mean scores per group; a group nobody belongs to has count 0."""
    groups = {g: {"count": 0, "structural": 0.0, "total": 0.0} for g in ("simple", "complex", "all")}
    for row in rows:
        for g in (row["kind"], "all"):
            acc = groups[g]
            acc["count"] += 1
            acc["structural"] += row["structural"]
            acc["total"] += row["total"]
    for acc in groups.values():
        if acc["count"]:
            acc["structural"] /= acc["count"]
            acc["total"] /= acc["count"]
        else:
            acc["structural"] = None
            acc["total"] = None
    return groups


def summary_table(groups: dict) -> str:
    """Percentage table, two decimals, '-' for empty groups."""
    order = ("simple", "complex", "all")

    def fmt(value):
        return "-" if value is None else f"{100.0 * value:.2f}"

    lines = [f"{'':<12}" + "".join(f"{g:>10}" for g in order)]
    for score in ("structural", "total"):
        lines.append(f"{score:<12}" + "".join(f"{fmt(groups[g][score]):>10}" for g in order))
    lines.append(f"{'samples':<12}" + "".join(f"{groups[g]['count']:>10}" for g in order))
    return "\n".join(lines)


def read_records(path) -> dict[str, str]:
    """Line-delimited JSON records {id, html} to an ordered id->html map."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                sample_id, html = str(rec["id"]), rec["html"]
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise ValueError(f"{path}:{lineno}: bad record ({e})") from e
            if not isinstance(html, str):
                raise ValueError(f"{path}:{lineno}: html must be a string, got {html!r}")
            if sample_id in out:
                raise ValueError(f"{path}:{lineno}: duplicate id {sample_id!r}")
            out[sample_id] = html
    return out


def pair_records(truth: dict[str, str], pred: dict[str, str]) -> list[tuple]:
    """Match two record maps by id; both sides must cover the same ids."""
    missing = sorted(set(truth) - set(pred))
    extra = sorted(set(pred) - set(truth))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"ids without predictions: {missing[:5]}")
        if extra:
            parts.append(f"predictions without truth: {extra[:5]}")
        raise ValueError("; ".join(parts))
    return [(sample_id, truth[sample_id], pred[sample_id]) for sample_id in truth]
