"""Quiescent structural verification.

With no operations in flight, the published root shift must match the
height, and a full recursive walk of the tree must find every occupancy bit
telling the truth (set implies a non-empty child subtree, clear implies an
empty slot: deletes unlink every node they empty), nodes in every slot above
the bottom level and entries in every bottom-level slot, each entry's key
equal to its path key, no reachable node retired or holding its mutex,
every node's ``parent`` link naming the node whose slot holds it (the
root's naming nothing), the
bottom-node index holding exactly the reachable bottom-level nodes, each
under its key prefix, and the set of live entries identical to what chained
successor calls enumerate.  The walker also checks the closed-form bound on
how many internal nodes a tree of the current height may retain.
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
    height: int = 0
    size: int = 0
    violations: list = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


def quiescent_walk(array) -> WalkReport:
    """Verify all quiescent invariants of ``array``; callers own quiescence."""
    params = array._params()
    n = array.branching
    report = WalkReport(height=params.height, size=params.size)
    if params.height < 1:
        report.violations.append(("", "height-floor", params.height))
    if params.size != n**params.height:
        report.violations.append(("", "size-capacity-mismatch", params.size))
    if params.top != array._shift * (params.height - 1):
        report.violations.append(("", "top-shift-mismatch", params.top))
    if params.root.parent is not None:
        report.violations.append(("", "parent-link-mismatch", 0))
    entries: list = []
    bottoms: dict = {}
    _walk(params.root, 0, params.height, n, 0, "", report, entries, bottoms)
    indexed = array._bottoms
    for prefix in sorted(bottoms.keys() | indexed.keys()):
        if indexed.get(prefix) is not bottoms.get(prefix):
            report.violations.append(("", "bottom-index-mismatch", prefix))
    bound = (n**params.height - 1) // (n - 1)
    if report.internal_node_count > bound:
        report.violations.append(
            ("", "internal-node-bound", (report.internal_node_count, bound))
        )
    entries.sort(key=lambda e: e[0])
    try:
        chained = _successor_chain(array, min(params.size, array._key_limit))
    except (AttributeError, TypeError) as exc:  # a slot of the wrong kind
        report.violations.append(("", "enumeration-failed", repr(exc)))
    else:
        if entries != chained:
            report.violations.append(
                ("", "enumeration-mismatch", (len(entries), len(chained))))
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


def _successor_chain(array, bound) -> list:
    """Enumerate by chained ceiling queries; ``bound`` caps the start key at
    the structure's addressable-and-legal key range."""
    out = []
    key = 0
    while key < bound:
        entry = array.successor(key)
        if entry is None:
            break
        if out and entry.key <= out[-1][0]:
            # non-increasing chain would loop forever; record and bail
            out.append((entry.key, entry.value))
            break
        out.append((entry.key, entry.value))
        key = entry.key + 1
    return out


def structure_fingerprint(array) -> tuple:
    """Canonical immutable snapshot of the whole physical structure.

    Two arrays with equal fingerprints hold identical node shapes, summary
    words, entries and published parameters, so their future sequential
    behavior is identical.
    """
    params = array._params()
    return (
        params.size,
        params.height,
        _fingerprint(params.root),
    )


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
