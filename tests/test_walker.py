import random
import threading


from dcveb.bitops import child_mask
from dcveb.core import DcvebArray, Entry, Node, TreeParams
from dcveb.walker import quiescent_walk, structure_fingerprint


def test_empty_structure():
    report = quiescent_walk(DcvebArray())
    assert report.ok()
    assert report.element_count == 0
    assert report.internal_node_count == 1
    assert report.leaf_node_count == 0


def test_full_level_two_array_node_counts():
    array = DcvebArray()
    for key in range(4096):
        array.insert(key, key)
    report = quiescent_walk(array)
    assert report.ok(), report.violations
    assert report.element_count == 4096
    assert report.leaf_node_count == 4096
    # one root plus 64 interior nodes: exactly the closed-form bound
    assert report.internal_node_count == 65
    assert report.internal_node_count <= (64**2 - 1) // 63


def test_random_churn_stays_clean():
    rng = random.Random(42)
    array = DcvebArray(branching=8, key_bits=16)
    live = set()
    for _ in range(10_000):
        key = rng.randrange(2048)
        if rng.random() < 0.55:
            array.insert(key, key)
            live.add(key)
        else:
            array.delete(key)
            live.discard(key)
    report = quiescent_walk(array)
    assert report.ok(), report.violations
    assert report.element_count == len(live)


def test_detects_injected_bit_over_empty_child():
    array = DcvebArray()
    array.insert(130, "C")
    # corrupt: claim child 9 of the root is occupied
    root = array._ap.root
    root.value |= child_mask(9, 64)
    report = quiescent_walk(array)
    assert [v[1] for v in report.violations] == ["bit-set-child-missing"]


def test_detects_hidden_live_entry():
    array = DcvebArray()
    array.insert(130, "C")
    root = array._ap.root
    root.value = 0  # hide the live subtree
    report = quiescent_walk(array)
    names = {v[1] for v in report.violations}
    assert "bit-clear-subtree-nonempty" in names
    assert "enumeration-mismatch" in names


def test_detects_backward_successor_chain():
    # A corrupt slot 10 holds key 3, so successor(6) answers 3, below the
    # 5 the chain already holds.  Chaining on from 4 would loop for ever:
    # the walk records the mismatch and stops.
    array = DcvebArray()
    array.insert(5, "A")
    array.insert(10, "B")
    array._ap.root.children[10] = Entry(3, "B")
    reports = []
    walker = threading.Thread(
        target=lambda: reports.append(quiescent_walk(array)), daemon=True)
    walker.start()
    walker.join(5)
    assert not walker.is_alive(), "the successor chain looped"
    assert ("", "enumeration-mismatch", ("successor", 2, 2)) in reports[0].violations


def test_detects_predecessor_chain_that_skips_an_entry():
    # The tree is sound and every successor answer right, so only the
    # downward chain can show a floor query that misses an entry.
    array = DcvebArray()
    for key in (5, 70, 130):
        array.insert(key, key)
    floor = array.predecessor

    def skipping(key):
        entry = floor(key)
        return floor(entry.key - 1) if entry and entry.key == 70 else entry

    array.predecessor = skipping
    report = quiescent_walk(array)
    assert report.violations == [("", "enumeration-mismatch", ("predecessor", 3, 2))]
    del array.predecessor
    assert quiescent_walk(array).ok()


def test_detects_entry_key_mismatch():
    array = DcvebArray()
    array.insert(5, "A")
    array._ap.root.children[5] = Entry(6, "A")  # key is not its path key
    report = quiescent_walk(array)
    assert ("/5", "entry-key-mismatch", (6, 5)) in report.violations


def test_detects_node_in_bit_clear_slot():
    array = DcvebArray()
    array.insert(130, "C")
    # an empty node left linked under a clear bit: deletes unlink these.  It
    # is a bottom-level node that no insert indexed, linked to its parent as
    # ``cas_child`` links every node it installs
    root = array._ap.root
    stray = root.children[5] = Node(64, 0)
    stray.parent = root
    report = quiescent_walk(array)
    assert report.violations == [("", "bit-clear-slot-occupied", 5),
                                 ("", "bottom-index-mismatch", 5)]


def test_detects_node_in_bottom_level_slot():
    array = DcvebArray()
    array.insert(5, "A")
    array._ap.root.children[5] = Node(64, 0)
    report = quiescent_walk(array)
    assert ("/5", "slot-kind-mismatch", "Node") in report.violations


def test_detects_entry_above_bottom_level():
    array = DcvebArray()
    array.insert(130, "C")
    array._ap.root.children[2] = Entry(2, "C")
    report = quiescent_walk(array)
    assert ("/2", "slot-kind-mismatch", "Entry") in report.violations


def test_walk_with_maximum_legal_key():
    array = DcvebArray(branching=64, key_bits=63)
    array.insert(2**63 - 1, "edge")
    array.insert(0, "origin")
    report = quiescent_walk(array)
    assert report.ok(), report.violations
    assert report.element_count == 2


def test_fingerprint_stability_and_sensitivity():
    one = DcvebArray()
    two = DcvebArray()
    for key in (5, 130, 70):
        one.insert(key, key)
        two.insert(key, key)
    assert structure_fingerprint(one) == structure_fingerprint(two)
    two.delete(70)
    assert structure_fingerprint(one) != structure_fingerprint(two)


def test_queries_leave_structure_untouched():
    array = DcvebArray()
    for key in (5, 70, 130, 4000):
        array.insert(key, key)
    before = structure_fingerprint(array)
    for key in range(0, 4096, 7):
        array.get(key)
        array.successor(key)
        array.predecessor(key)
    array.minimum()
    array.maximum()
    assert structure_fingerprint(array) == before


def test_detects_top_shift_mismatch():
    array = DcvebArray(branching=4, key_bits=8)
    array.insert(20, "x")  # height 3: the root digit sits at shift 4
    params = array._ap
    assert params.top == 4
    # no level's shift: not a multiple of the digit width
    array._ap = TreeParams(params.root, 3)
    report = quiescent_walk(array)
    assert report.violations == [("", "top-shift-mismatch", 3)]
    # one level short: the walk meets nodes where entries belong
    array._ap = TreeParams(params.root, 2)
    report = quiescent_walk(array)
    assert ("/1/1", "slot-kind-mismatch", "Node") in report.violations
    array._ap = params
    assert quiescent_walk(array).ok()


def test_detects_reachable_retired_node():
    array = DcvebArray()
    array.insert(130, "C")
    array._ap.root.children[2].retired = True
    report = quiescent_walk(array)
    assert report.violations == [("/2", "retired-reachable", 1)]


def test_detects_held_node_mutex():
    array = DcvebArray()
    array.insert(130, "C")
    root = array._ap.root
    with root._mutex:
        report = quiescent_walk(array)
    assert report.violations == [("", "mutex-held", 0)]
    assert quiescent_walk(array).ok()


def test_detects_stale_bottom_index_item():
    array = DcvebArray()
    array.insert(130, "C")
    array.insert(200, "D")
    stale = array._ap.root.children[3]
    array.delete(200)  # unlinks the bottom node of prefix 3
    assert quiescent_walk(array).ok()
    array._bottoms[3] = stale
    report = quiescent_walk(array)
    assert report.violations == [("", "bottom-index-mismatch", 3)]
    # an item under the wrong prefix is stale too
    del array._bottoms[3]
    array._bottoms[4] = array._bottoms[2]
    report = quiescent_walk(array)
    assert report.violations == [("", "bottom-index-mismatch", 4)]


def test_detects_missing_bottom_index_item():
    array = DcvebArray()
    array.insert(130, "C")
    array.insert(5, "A")
    del array._bottoms[2]
    report = quiescent_walk(array)
    assert report.violations == [("", "bottom-index-mismatch", 2)]
    assert array.get(130) is None  # get answers from the index alone


def test_detects_parent_link_mismatch():
    array = DcvebArray(branching=4, key_bits=8)
    array.insert(20, "x")  # height 3: root -> /1 -> /1/1 -> entry 20
    root = array._ap.root
    middle = root.children[1]
    bottom = middle.children[1]
    assert bottom.parent is middle and middle.parent is root
    bottom.parent = root  # skips a level
    report = quiescent_walk(array)
    assert report.violations == [("/1/1", "parent-link-mismatch", 2)]
    bottom.parent = middle
    # a root links to nothing, not even to a retired root a trim popped
    above = Node(4, 0)
    root.parent = above
    report = quiescent_walk(array)
    assert report.violations == [("", "parent-link-mismatch", 0)]
    above.retired = True
    report = quiescent_walk(array)
    assert report.violations == [("", "parent-link-mismatch", 0)]
    root.parent = None
    assert quiescent_walk(array).ok()
