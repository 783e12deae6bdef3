import gc
import random
import threading
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcveb.core import Capacity, DcvebArray, Entry, Node
from dcveb.oracle import OracleMap
from dcveb.walker import quiescent_walk
from doubles import SpyIndex


def make_array(**kwargs):
    kwargs.setdefault("branching", 64)
    return DcvebArray(**kwargs)


class TestConstruction:
    def test_fresh_structure(self):
        array = make_array()
        assert array.capacity_snapshot() == Capacity(64, 1)
        assert array.successor(0) is None
        assert array.minimum() is None
        assert array.maximum() is None
        for key in (0, 5, 63, 64, 4096):
            assert array.get(key) is None

    def test_invalid_branching(self):
        for n in (0, 1, 3, 65):
            with pytest.raises(ValueError):
                DcvebArray(branching=n)

    def test_key_domain_enforced(self):
        array = DcvebArray(branching=64, key_bits=16)
        for bad in (-1, 1 << 16, "7", 2.0, True, False):
            with pytest.raises(ValueError):
                array.get(bad)
            with pytest.raises(ValueError):
                array.insert(bad, "x")
            with pytest.raises(ValueError):
                array.delete(bad)
            with pytest.raises(ValueError):
                array.successor(bad)
            with pytest.raises(ValueError):
                array.predecessor(bad)

    def test_int_subclass_key_accepted(self):
        class Slot(IntEnum):
            SEVEN = 7

        array = DcvebArray(branching=64, key_bits=16)
        assert array.get(Slot.SEVEN) is None
        array.insert(Slot.SEVEN, "x")
        assert array.get(Slot.SEVEN) == Entry(7, "x")
        assert array.successor(Slot.SEVEN) == Entry(7, "x")
        assert array.predecessor(Slot.SEVEN) == Entry(7, "x")
        array.delete(Slot.SEVEN)
        assert array.get(7) is None

    def test_bool_key_rejected(self):
        array = make_array()
        with pytest.raises(ValueError):
            array.insert(True, "t")
        assert array.get(1) is None
        assert array.minimum() is None

    def test_none_value_rejected(self):
        with pytest.raises(ValueError):
            make_array().insert(1, None)


def test_node_owns_one_lock_object():
    # Follow a fresh node's references, except into its child slots and
    # through classes, and count the threading.Lock objects met.
    lock_type = type(threading.Lock())
    node = Node(4, 0)
    seen, stack, locks = set(), [node], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is node.children or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, lock_type):
            locks += 1
        else:
            stack.extend(gc.get_referents(obj))
    assert locks == 1


class TestInsertGet:
    def test_single_element(self):
        array = make_array()
        array.insert(5, "A")
        assert array.get(5) == Entry(5, "A")

    def test_growth_on_oversized_key(self):
        array = make_array()
        array.insert(70, "B")
        assert array.capacity_snapshot() == Capacity(4096, 2)
        assert array.get(70) == Entry(70, "B")
        # the empty old root was dropped, not adopted as child 0
        assert array._params().root.children[0] is None
        assert quiescent_walk(array).ok()

    def test_duplicate_insert_overwrites(self):
        array = make_array()
        array.insert(5, "A")
        array.insert(5, "B")
        assert array.get(5) == Entry(5, "B")

    def test_get_via_two_level_path(self):
        array = make_array()
        array.insert(130, "C")
        assert array.get(130) == Entry(130, "C")
        assert array.get(131) is None
        assert array.get(2) is None

    def test_existing_elements_survive_growth(self):
        array = make_array()
        for key in (0, 5, 63):
            array.insert(key, key)
        array.insert(2**30, "big")
        for key in (0, 5, 63):
            assert array.get(key) == Entry(key, key)
        assert array.get(2**30) == Entry(2**30, "big")

    def test_stored_entries_are_entry_instances(self):
        # 130 descends and installs its bottom node; 131 stores through the
        # index into that node.  Both slots hold real ``Entry`` tuples.
        array = make_array()
        array.insert(130, "descent")
        array.insert(131, "index")
        for key, value in ((130, "descent"), (131, "index")):
            entry = array.get(key)
            assert type(entry) is Entry
            assert entry.key == key and entry.value == value
            assert entry == Entry(key, value)

    def test_growth_height_for_max_int31(self):
        array = make_array()
        array.insert(2**31 - 1, "edge")
        snap = array.capacity_snapshot()
        assert snap.height == 6
        assert snap.size == 64**6
        assert array.get(2**31 - 1) == Entry(2**31 - 1, "edge")


class TestDelete:
    def test_delete_on_empty_is_noop(self):
        array = make_array()
        array.delete(7)
        assert array.capacity_snapshot() == Capacity(64, 1)
        assert quiescent_walk(array).ok()

    def test_insert_delete_round_trip(self):
        array = make_array()
        array.insert(130, "C")
        array.delete(130)
        assert array.get(130) is None

    def test_path_cleared_at_quiescence(self):
        array = make_array()
        array.insert(5, "A")
        array.delete(5)
        root = array._params().root
        assert root.value == 0
        assert all(child is None for child in root.children)
        assert quiescent_walk(array).ok()

    def test_sibling_keeps_shared_parent_alive(self):
        array = make_array()
        array.insert(130, "A")  # digits (2, 2)
        array.insert(131, "B")  # digits (2, 3)
        root = array._params().root
        parent = root.children[2]
        array.delete(130)
        # parent stays in place, keeps exactly the sibling's bit and has the
        # deleted key's slot emptied
        assert root.children[2] is parent
        assert parent.value == 1 << (64 - 1 - 3)
        assert parent.children[2] is None
        assert parent.children[3] == Entry(131, "B")
        assert array.get(131) == Entry(131, "B")
        assert quiescent_walk(array).ok()

    def test_propagation_stops_at_branching_ancestor(self):
        array = make_array()
        array.insert(5, "low")        # root child 0
        array.insert(64 * 64 + 3, "deep")  # three-level path after growth
        root = array._params().root
        array.delete(64 * 64 + 3)
        assert array.get(5) == Entry(5, "low")
        # root still anchors the subtree holding key 5
        assert root is not array._params().root or root.value != 0
        assert quiescent_walk(array).ok()

    def test_delete_then_successor(self):
        array = make_array()
        array.insert(5, "A")
        array.insert(6, "B")
        array.delete(5)
        assert array.successor(0) == Entry(6, "B")

    def test_delete_of_absent_key_with_present_neighbors(self):
        array = make_array()
        array.insert(130, "C")
        array.delete(131)
        assert array.get(130) == Entry(130, "C")
        assert quiescent_walk(array).ok()

    def test_shared_parent_reused_with_new_entry(self):
        array = make_array()
        array.insert(130, "A")
        array.insert(131, "B")
        root = array._params().root
        parent = root.children[2]
        old = parent.children[2]
        array.delete(130)
        array.insert(130, "again")
        assert root.children[2] is parent
        assert parent.children[2] == Entry(130, "again")
        assert parent.children[2] is not old
        assert array.get(130) is parent.children[2]

    def test_emptied_child_is_unlinked(self):
        array = make_array()
        array.insert(130, "A")  # digits (2, 2)
        array.insert(200, "B")  # digits (3, 8)
        root = array._params().root
        array.delete(130)
        # the emptied parent leaves the root's slot; its sibling stays
        assert root.children[2] is None
        assert root.value == 1 << (64 - 1 - 3)
        assert root.children[3].children[8] == Entry(200, "B")
        assert quiescent_walk(array).ok()


class TestTrim:
    def test_trim_back_to_height_one(self):
        array = make_array()
        array.insert(70, "B")
        assert array.capacity_snapshot().height == 2
        array.insert(3, "A")
        array.delete(70)
        assert array.capacity_snapshot() == Capacity(64, 1)
        assert array.get(3) == Entry(3, "A")
        assert quiescent_walk(array).ok()

    def test_trim_cascades_multiple_levels(self):
        array = make_array()
        array.insert(3, "A")
        array.insert(2**31 - 1, "edge")
        assert array.capacity_snapshot().height == 6
        array.delete(2**31 - 1)
        assert array.capacity_snapshot() == Capacity(64, 1)
        assert array.get(3) == Entry(3, "A")
        assert quiescent_walk(array).ok()

    def test_no_trim_below_height_one(self):
        array = make_array()
        array.insert(5, "A")
        array.delete(5)
        assert array.capacity_snapshot().height == 1

    def test_no_trim_with_occupied_high_child(self):
        array = make_array()
        array.insert(3, "A")
        array.insert(70, "B")
        array.delete(3)  # children {0-subtree empty, 1 occupied}
        assert array.capacity_snapshot().height == 2
        assert array.get(70) == Entry(70, "B")

    def test_capacity_multiplies_by_fanout_per_level(self):
        array = make_array()
        sizes = [array.capacity_snapshot().size]
        for key in (64, 64**2, 64**3):
            array.insert(key, "x")
            sizes.append(array.capacity_snapshot().size)
        assert sizes == [64, 64**2, 64**3, 64**4]


class TestOrderQueries:
    def test_successor_of_present_key_is_itself(self):
        array = make_array()
        array.insert(5, "A")
        array.insert(130, "C")
        assert array.successor(5) == Entry(5, "A")
        assert array.successor(6) == Entry(130, "C")

    def test_successor_ascends_from_leftmost_path(self):
        array = make_array()
        array.insert(130, "C")
        assert array.successor(0) == Entry(130, "C")

    def test_successor_none_beyond_last(self):
        array = make_array()
        array.insert(5, "A")
        assert array.successor(6) is None

    def test_successor_key_at_or_above_capacity(self):
        array = make_array(key_bits=31)
        array.insert(5, "A")
        assert array.successor(63) is None
        assert array.successor(64) is None
        assert array.successor(2**20) is None

    def test_predecessor_mirror(self):
        array = make_array()
        array.insert(5, "A")
        array.insert(130, "C")
        assert array.predecessor(129) == Entry(5, "A")
        assert array.predecessor(130) == Entry(130, "C")
        assert array.predecessor(4) is None

    def test_predecessor_of_capacity_edge_is_maximum(self):
        array = make_array()
        array.insert(5, "A")
        array.insert(130, "C")
        size = array.capacity_snapshot().size
        assert array.predecessor(size - 1) == Entry(130, "C")
        assert array.maximum() == Entry(130, "C")

    def test_minimum_maximum(self):
        array = make_array()
        assert array.minimum() is None and array.maximum() is None
        array.insert(17, "only")
        assert array.minimum() == array.maximum() == Entry(17, "only")
        array.insert(5, "A")
        array.insert(130, "C")
        assert array.minimum() == Entry(5, "A")
        assert array.maximum() == Entry(130, "C")


def test_detached_nodes_stay_empty_and_leave_the_bottom_index():
    array = DcvebArray(branching=4, key_bits=8)
    array.insert(0, 0)
    array.insert(37, 37)  # grows to height 3; digits (2, 1, 1)
    stale = array._params()
    upper = stale.root.children[2]
    lower = upper.children[1]
    assert array._bottoms[37 >> 2] is lower
    array.delete(37)  # unlinks lower and upper, then trims to height 1
    assert array.capacity_snapshot() == Capacity(4, 1)
    for node in (upper, lower):
        assert all(indexed is not node for indexed in array._bottoms.values())
    for key in (37, 36, 38, 33):
        assert array.get(key) is None
    assert array.get(0) == Entry(0, 0)
    for key in (37, 36, 38, 33, 1):  # the same key, its neighbours, the kept child
        array.insert(key, key)
    for node in (upper, lower):
        assert node.value == 0
        assert node.children == [None] * 4
    assert stale.root.children[2] is None
    assert array._bottoms[37 >> 2] is not lower
    assert array.get(37) == Entry(37, 37)
    assert array.get(1) == Entry(1, 1)
    assert quiescent_walk(array).ok()


class _NoBitOps:
    """A summary word that fails on any bit operation."""

    def _fail(self, *args):
        raise AssertionError("a query read a summary word")

    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _fail
    __lshift__ = __rshift__ = __invert__ = __bool__ = __index__ = _fail


@pytest.mark.parametrize("branching", [4, 64])
def test_queries_on_filled_slots_read_no_summary_word(branching):
    rng = random.Random(branching)
    array = DcvebArray(branching=branching, key_bits=16)
    present = rng.sample(range(1 << 16), 300)
    for key in present:
        array.insert(key, key)
    absent = set(rng.sample(range(1 << 16), 300)) - set(present)
    words = []
    pending = [array._params().root]
    while pending:
        node = pending.pop()
        words.append((node, node.value))
        node.value = _NoBitOps()
        pending.extend(c for c in node.children if isinstance(c, Node))
    try:
        for key in present:
            assert array.get(key) == Entry(key, key)
            assert array.successor(key) == Entry(key, key)
            assert array.predecessor(key) == Entry(key, key)
        for key in absent:
            assert array.get(key) is None
    finally:
        for node, word in words:
            node.value = word
    assert quiescent_walk(array).ok()


class _NoParams:
    """Published params that fail on any read."""

    def __getattr__(self, name):
        raise AssertionError("a query read the params' %s" % name)


class _LoggedSlots(list):
    """A node's slot list that logs the node of every slot read."""

    def __init__(self, node, log):
        super().__init__(node.children)
        self._node, self._log = node, log

    def __getitem__(self, pos):
        self._log.append(self._node)
        return super().__getitem__(pos)


def test_dense_order_queries_hop_without_the_root():
    # Every prefix of a fanout-64, height-2 tree is indexed, so successor
    # just past a bottom node's last entry and predecessor just before its
    # first climb from the indexed node to the root and descend into the
    # neighbouring node: one index probe, and no params read.
    array = DcvebArray(branching=64, key_bits=12)
    for prefix in range(64):
        array.insert(prefix * 64 + 5, prefix)
        array.insert(prefix * 64 + 40, prefix)
    index = SpyIndex.install(array)
    params = array._ap
    array._ap = _NoParams()
    try:
        for prefix in range(64):
            base = prefix * 64
            if prefix < 63:
                index.probes = 0
                assert array.successor(base + 41) == Entry(base + 69, prefix + 1)
                assert index.probes == 1
            if prefix > 0:
                index.probes = 0
                assert array.predecessor(base + 4) == Entry(base - 24, prefix - 1)
                assert index.probes == 1
            assert array.successor(base + 6) == Entry(base + 40, prefix)
            assert array.predecessor(base + 39) == Entry(base + 5, prefix)
    finally:
        array._ap = params
    assert quiescent_walk(array).ok()


@pytest.mark.parametrize("query,start,expected", [("successor", 1, 4095),
                                                  ("predecessor", 4094, 0)])
def test_order_query_climbs_the_full_height(query, start, expected):
    # Fanout 2 over 12 key bits with keys 0 and 4095: the two entries share
    # only the root, so successor(1) climbs from the bottom node holding 0
    # to the root and descends the other side to 4095, and predecessor(4094)
    # does the mirror.  One index probe, no params read, and the call visits
    # ``2 * height - 1`` nodes: each level once on the way up, and each
    # level below the root once on the way down.
    array = DcvebArray(branching=2, key_bits=12)
    array.insert(0, 0)
    array.insert(4095, 4095)
    height = array.capacity_snapshot().height
    assert height == 12
    log = []
    pending = [array._params().root]
    while pending:
        node = pending.pop()
        pending.extend(c for c in node.children if isinstance(c, Node))
        node.children = _LoggedSlots(node, log)
    index = SpyIndex.install(array)
    params = array._ap
    array._ap = _NoParams()
    try:
        assert getattr(array, query)(start) == Entry(expected, expected)
    finally:
        array._ap = params
    assert index.probes == 1
    # a run of slot reads in one node is one visit
    visits = sum(1 for i, node in enumerate(log) if i == 0 or log[i - 1] is not node)
    assert visits == 2 * height - 1
    assert quiescent_walk(array).ok()


class TestResidueAndTrim:
    def test_residue_clean_is_idempotent_on_clean_tree(self):
        from dcveb.walker import structure_fingerprint

        array = make_array()
        for key in (3, 130, 5000):
            array.insert(key, key)
        before = structure_fingerprint(array)
        bottoms = dict(array._bottoms)
        assert len(bottoms) == 3
        for prefix, node in bottoms.items():
            array._unlink_path(node, prefix << array._shift)
        assert structure_fingerprint(array) == before
        assert array._bottoms == bottoms

    def test_trim_leaves_no_popped_root_reachable(self):
        # insert(60000) grows a fanout-4 tree to height 8 and delete(60000)
        # trims it back to 1, popping seven roots.  Each pop clears the new
        # root's link, so no popped root stays reachable from the root and a
        # climb past the root stops at once.
        array = DcvebArray(branching=4, key_bits=16)
        array.insert(1, 1)
        array.insert(60000, 60000)
        assert array.capacity_snapshot().height == 8
        array.delete(60000)
        assert array.capacity_snapshot().height == 1
        assert array._params().root.parent is None
        assert array.successor(2) is None
        assert quiescent_walk(array).ok()

    def test_trim_noop_with_two_occupied_children(self):
        array = make_array()
        array.insert(70, "B")   # root child 1 at height 2
        array.insert(3, "A")    # root child 0
        array._trim_top()
        assert array.capacity_snapshot().height == 2
        assert array.get(3) == Entry(3, "A")
        assert array.get(70) == Entry(70, "B")


@pytest.mark.parametrize("branching", [2, 4, 8, 64])
def test_sequential_equivalence_small(branching):
    rng = random.Random(branching * 7 + 1)
    array = DcvebArray(branching=branching, key_bits=16)
    table = OracleMap()
    key_range = 200
    counter = 0
    for _ in range(4000):
        roll = rng.randrange(100)
        key = rng.randrange(key_range)
        if roll < 30:
            counter += 1
            array.insert(key, counter)
            table.insert(key, counter)
        elif roll < 55:
            array.delete(key)
            table.delete(key)
        elif roll < 70:
            assert array.get(key) == table.get(key)
        elif roll < 85:
            assert array.successor(key) == table.successor(key)
        elif roll < 95:
            assert array.predecessor(key) == table.predecessor(key)
        elif roll < 98:
            assert array.minimum() == table.minimum()
        else:
            assert array.maximum() == table.maximum()
    report = quiescent_walk(array)
    assert report.ok(), report.violations
    assert report.element_count == len(table)


@pytest.mark.parametrize("density", ["dense", "sparse"])
@pytest.mark.parametrize("branching", [2, 4, 64])
def test_query_fast_path_matches_oracle(branching, density):
    # get/successor/predecessor against the oracle, call by call: on an empty
    # tree, filled, after one grow and the trim back, and drained again.
    # Probes cover random keys, each inserted key and its neighbours, and keys
    # at and above the capacity.  Every call makes one index probe.  Both
    # ways a non-exact answer is found must run: inside the start node (the
    # answer shares the key's prefix) and after leaving it.
    left = 0
    key_bits = 20
    rng = random.Random(branching * 2 + (density == "dense"))
    array = DcvebArray(branching=branching, key_bits=key_bits)
    index = SpyIndex.install(array)
    table = OracleMap()
    keys = (rng.sample(range(1024), 512) if density == "dense"
            else rng.sample(range(1 << 16), 60))
    in_node = 0

    def check():
        nonlocal in_node, left
        size = array.capacity_snapshot().size
        probes = [rng.randrange(size) for _ in range(200)]
        for key in keys:
            probes += [key - 1, key, key + 1]
        probes += [0, size - 1, size, size + 1, (1 << key_bits) - 1]
        for key in probes:
            if not 0 <= key < 1 << key_bits:
                continue
            assert array.get(key) == table.get(key), key
            for query in ("successor", "predecessor"):
                index.probes = 0
                got = getattr(array, query)(key)
                assert got == getattr(table, query)(key), (query, key)
                assert index.probes == 1, (query, key)
                if got is None or got.key == key:
                    continue
                if got.key >> array._shift == key >> array._shift:
                    in_node += 1
                else:
                    left += 1

    check()  # empty
    for key in keys:
        array.insert(key, -key)
        table.insert(key, -key)
    check()
    shape = array.capacity_snapshot()
    top = (1 << key_bits) - 1
    array.insert(top, "top")
    table.insert(top, "top")
    assert array.capacity_snapshot().height > shape.height
    check()
    array.delete(top)
    table.delete(top)
    assert array.capacity_snapshot() == shape
    check()
    for key in keys[: len(keys) // 2]:
        array.delete(key)
        table.delete(key)
    check()
    for key in keys[len(keys) // 2:]:
        array.delete(key)
        table.delete(key)
    check()  # empty again
    assert left > 0 and in_node > 0, (left, in_node)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 64]), st.integers(1, 40), st.data())
def test_order_queries_match_oracle_within_height_restarts(branching, key_bits, data):
    # Random inserts and deletes; after each one, successor and predecessor
    # at random keys and around every present key, minimum and maximum must
    # equal the oracle, and the walker (bottom-node index included) must find
    # the tree clean through every grow, trim and unlink.  Every call makes
    # exactly one index probe: a query that leaves its start node climbs
    # ``parent`` links instead of probing again.
    array = DcvebArray(branching=branching, key_bits=key_bits)
    index = SpyIndex.install(array)
    table = OracleMap()
    top = (1 << key_bits) - 1
    keys = st.one_of(st.integers(0, min(top, 63)), st.integers(0, top))

    def check(query, *args):
        index.probes = 0
        assert getattr(array, query)(*args) == getattr(table, query)(*args), (query, args)
        assert index.probes == 1, (query, args, index.probes)

    for insert, key in data.draw(st.lists(st.tuples(st.booleans(), keys), max_size=30)):
        if insert:
            array.insert(key, key)
            table.insert(key, key)
        else:
            array.delete(key)
            table.delete(key)
        report = quiescent_walk(array)
        assert report.ok(), report.violations
        probes = data.draw(st.lists(keys, max_size=3))
        for entry in table.items():
            probes += [entry.key - 1, entry.key, entry.key + 1]
        for probe in probes:
            if 0 <= probe <= top:
                check("get", probe)
                check("successor", probe)
                check("predecessor", probe)
        check("minimum")
        check("maximum")


def test_dense_fill_then_drain():
    array = DcvebArray(branching=4, key_bits=16)
    table = OracleMap()
    for key in range(256):
        array.insert(key, key)
        table.insert(key, key)
    assert array.capacity_snapshot().size == 256
    chain = []
    entry = array.minimum()
    while entry is not None:
        chain.append(entry.key)
        entry = array.successor(entry.key + 1) if entry.key + 1 < 256 else None
    assert chain == list(range(256))
    for key in range(0, 256, 2):
        array.delete(key)
        table.delete(key)
    for key in range(256):
        assert array.get(key) == table.get(key)
    report = quiescent_walk(array)
    assert report.ok(), report.violations
    for key in range(1, 256, 2):
        array.delete(key)
    assert array.minimum() is None
    # an emptied tree keeps its height: trimming fires only while exactly
    # child 0 remains occupied
    assert array.capacity_snapshot().height == 4
    assert quiescent_walk(array).ok()


def test_fresh_key_churn_keeps_node_count_flat():
    # Insert a never-seen key, delete a random present one: every emptied
    # subtree must leave the tree, so the reachable node count stays at its
    # prefill level instead of growing with the number of ops.
    rng = random.Random(7)
    array = make_array(key_bits=36)
    seen = set()
    present = []

    def insert_fresh():
        key = rng.randrange(1 << 36)
        while key in seen:
            key = rng.randrange(1 << 36)
        seen.add(key)
        present.append(key)
        array.insert(key, key)

    for _ in range(2000):
        insert_fresh()
    prefill = quiescent_walk(array).internal_node_count
    for _ in range(4000):
        insert_fresh()
        i = rng.randrange(len(present))
        present[i], present[-1] = present[-1], present[i]
        array.delete(present.pop())
    report = quiescent_walk(array)
    assert report.ok(), report.violations
    assert report.element_count == 2000
    assert report.internal_node_count <= 1.05 * prefill
