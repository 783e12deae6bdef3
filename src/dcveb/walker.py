"""Quiescent structural verification.

With no operations in flight, the published root shift ``top`` must be a
non-negative multiple of the digit width (the height and capacity follow
from it), and a full recursive walk of the tree must find every occupancy bit
telling the truth (set implies a non-empty child subtree, clear implies an
empty slot: deletes unlink every node they empty), nodes in every slot above
the bottom level and entries in every bottom-level slot, each entry's key
equal to its path key, no reachable node retired or holding its mutex,
every node's ``parent`` link naming the node whose slot holds it (the
root's naming nothing), the
bottom-node index holding exactly the reachable bottom-level nodes, each
under its key prefix, and the live entries identical to what chained
successor calls enumerate upward and chained predecessor calls downward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Entry


@dataclass
class WalkReport:
    """Walk counts and violations.  ``leaf_node_count`` counts the entries
    found in bottom-level slots."""


    element_count: int = 0
    internal_node_count: int = 0
    leaf_node_count: int = 0
    violations: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


def quiescent_walk(array) -> WalkReport:
    """Verify all quiescent invariants of ``array``; callers own quiescence.
    A ``top`` that is no level's shift ends the check at that violation."""
    params = array._ap
    n = array.branching
    report = WalkReport()
    if params.top < 0 or params.top % array._shift:
        report.violations.append(("", "top-shift-mismatch", params.top))
        return report
    size, height = array.capacity_snapshot()
    if params.root.parent is not None:
        report.violations.append(("", "parent-link-mismatch", 0))
    entries: list = []
    bottoms: dict = {}
    _walk(params.root, 0, height, n, 0, "", report, entries, bottoms)
    indexed = array._bottoms
    for prefix in sorted(bottoms.keys() | indexed.keys()):
        if indexed.get(prefix) is not bottoms.get(prefix):
            report.violations.append(("", "bottom-index-mismatch", prefix))
    entries.sort(key=lambda e: e[0])
    bound = min(size, array._key_limit)
    for name, start, step, expected in (
            ("successor", 0, 1, entries),
            ("predecessor", bound - 1, -1, entries[::-1])):
        try:
            chained = _chain(getattr(array, name), start, step, bound)
        except (AttributeError, IndexError, TypeError) as exc:  # a bad slot or word
            report.violations.append(("", "enumeration-failed", (name, repr(exc))))
            continue
        if chained != expected:
            report.violations.append(
                ("", "enumeration-mismatch", (name, len(expected), len(chained))))
    report.element_count = len(entries)
    return report


def _walk(node, level, height, n, key_prefix, path, report, entries, bottoms) -> int:
    """Recursive invariant check; returns the subtree's live entry count.
    Bottom-level nodes are collected into ``bottoms`` by key prefix."""
    report.internal_node_count += 1
    if node.retired:
        report.violations.append((path, "retired-reachable", level))
    if node._mutex.locked():
        report.violations.append((path, "mutex-held", level))
    summary = node.value
    if summary >> n:
        report.violations.append((path, "summary-high-bits", summary))
    bottom = level + 1 == height
    if bottom:
        bottoms[key_prefix] = node
    children = node.children
    total = 0
    for p in range(n):
        child = children[p]
        count = 0
        if child is not None:
            key = key_prefix * n + p
            where = "%s/%d" % (path, p)
            if isinstance(child, Entry) != bottom:
                report.violations.append((where, "slot-kind-mismatch",
                                          type(child).__name__))
            elif bottom:
                report.leaf_node_count += 1
                if child.key != key:
                    report.violations.append((where, "entry-key-mismatch",
                                              (child.key, key)))
                entries.append((key, child.value))
                count = 1
            else:
                if child.parent is not node:
                    report.violations.append((where, "parent-link-mismatch",
                                              level + 1))
                count = _walk(child, level + 1, height, n, key, where, report,
                              entries, bottoms)
        if summary & (1 << (n - 1 - p)):
            if child is None:
                report.violations.append((path, "bit-set-child-missing", p))
            elif count == 0:
                report.violations.append((path, "bit-set-subtree-empty", p))
        elif child is not None:
            report.violations.append((path, "bit-clear-slot-occupied", p))
            if count > 0:
                report.violations.append((path, "bit-clear-subtree-nonempty", p))
        total += count
    return total


def _chain(query, key, step, bound) -> list:
    """Enumerate by chained order queries from ``key`` by ``step`` (1 or -1)
    within the addressable-and-legal key range ``[0, bound)``."""
    out = []
    while 0 <= key < bound:
        entry = query(key)
        if entry is None:
            break
        out.append((entry.key, entry.value))
        if len(out) > 1 and (entry.key - out[-2][0]) * step <= 0:
            break  # a chain that stalls or turns back would loop forever
        key = entry.key + step
    return out


def structure_fingerprint(array) -> tuple:
    """Canonical immutable snapshot of the whole physical structure.

    Two arrays with equal fingerprints hold identical node shapes, summary
    words, entries and published parameters, so their future sequential
    behavior is identical.
    """
    params = array._ap
    return (params.top, _fingerprint(params.root))


def _fingerprint(slot):
    if isinstance(slot, Entry):
        return ("entry", slot.key, slot.value)
    return (
        "node",
        slot.value,
        tuple(
            (p, _fingerprint(child))
            for p, child in enumerate(slot.children)
            if child is not None
        ),
    )
