"""Text rendering for traces and metrics (``repro trace`` / ``repro metrics``).

The span tree aggregates repeated spans by *path*: every sibling span
with the same name collapses into one node showing invocation count,
cumulative time, and self time (cumulative minus child cumulative).
Spans whose parent is missing from the file (e.g. a worker whose parent
ran in another trace) are grafted onto the root level rather than
dropped.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple


class _Node:
    __slots__ = ("name", "count", "total", "child_total", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.child_total = 0.0
        self.children: Dict[str, "_Node"] = {}

    @property
    def self_time(self) -> float:
        return max(self.total - self.child_total, 0.0)


def split_records(records: Sequence[Dict[str, Any]]) -> (
        "Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]"):
    """Partition trace records into (manifests, spans)."""
    manifests = [r["manifest"] for r in records if "manifest" in r]
    spans = [r for r in records if "name" in r and "span" in r]
    return manifests, spans


def build_span_tree(spans: Sequence[Dict[str, Any]]) -> _Node:
    by_id = {r["span"]: r for r in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None and parent not in by_id:
            parent = None  # orphan: graft onto the root level
        children.setdefault(parent, []).append(record)

    root = _Node("<root>")

    def _attach(node: _Node, records: List[Dict[str, Any]]) -> None:
        for record in records:
            child = node.children.get(record["name"])
            if child is None:
                child = _Node(record["name"])
                node.children[record["name"]] = child
            child.count += 1
            child.total += float(record.get("dur", 0.0))
            node.child_total += float(record.get("dur", 0.0))
            _attach(child, children.get(record["span"], []))

    _attach(root, children.get(None, []))
    root.total = root.child_total
    return root


def render_span_tree(spans: Sequence[Dict[str, Any]],
                     min_seconds: float = 0.0) -> str:
    if not spans:
        return "no spans recorded\n"
    root = build_span_tree(spans)
    grand_total = root.total or 1.0
    lines = [f"{'span':<44} {'count':>7} {'cum s':>10} "
             f"{'self s':>10} {'cum %':>7}"]

    def _emit(node: _Node, depth: int) -> None:
        ordered = sorted(node.children.values(),
                         key=lambda n: n.total, reverse=True)
        for child in ordered:
            if child.total < min_seconds:
                continue
            label = "  " * depth + child.name
            if len(label) > 44:
                label = label[:41] + "..."
            pct = 100.0 * child.total / grand_total
            lines.append(f"{label:<44} {child.count:>7d} "
                         f"{child.total:>10.4f} {child.self_time:>10.4f} "
                         f"{pct:>6.1f}%")
            _emit(child, depth + 1)

    _emit(root, 0)
    lines.append(f"{'total':<44} {'':>7} {root.total:>10.4f}")
    return "\n".join(lines) + "\n"


def render_manifest(manifest: Dict[str, Any]) -> str:
    substrates = manifest.get("substrates") or {}
    sub = " ".join(f"{tag}" for tag in substrates.values()) or "-"
    fields = [
        ("kind", manifest.get("kind", "-")),
        ("run", manifest.get("run_id") or "-"),
        ("substrates", sub),
        ("numpy", manifest.get("numpy", "-")),
        ("python", manifest.get("python", "-")),
        ("seed", manifest.get("seed")),
        ("git", manifest.get("git") or "-"),
        ("host", manifest.get("host", "-")),
    ]
    lines = [f"  {name}: {value}" for name, value in fields
             if value is not None]
    return "manifest:\n" + "\n".join(lines) + "\n"


def render_metrics_table(data: Dict[str, Any]) -> str:
    """Render a Registry ``to_json()`` payload as an aligned table."""
    if not data:
        return "no metrics recorded\n"
    lines = [f"{'metric':<52} {'value':>14}"]
    for name in sorted(data):
        family = data[name]
        for entry in family.get("series", []):
            labels = entry.get("labels") or {}
            label_text = ",".join(f"{k}={v}"
                                  for k, v in sorted(labels.items()))
            label = f"{name}{{{label_text}}}" if label_text else name
            if len(label) > 52:
                label = label[:49] + "..."
            if family.get("kind") == "histogram":
                count = entry.get("count", 0)
                total = entry.get("sum", 0.0)
                mean = total / count if count else 0.0
                lines.append(f"{label:<52} {count:>8d} obs  "
                             f"sum={total:.4f}s mean={mean:.4f}s")
            else:
                value = entry.get("value", 0.0)
                if float(value).is_integer():
                    lines.append(f"{label:<52} {int(value):>14d}")
                else:
                    lines.append(f"{label:<52} {value:>14.4f}")
    return "\n".join(lines) + "\n"
