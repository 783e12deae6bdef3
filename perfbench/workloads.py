"""Seeded workload generation for the dcveb benchmark.

Every input the program sees is generated here, before any timing starts,
from the workload name and the seed alone: the prefill key list and one
``OpList`` per client thread.  The same seed gives the same lists; a longer
list for a longer run extends the same sequence.

``lookup-dense`` and ``mixed-contended`` lists are cycles: a client wraps
around until its time is up.  A mixed-contended write cycle returns the
thread's keys to their starting state: the first half is a run of (insert an
absent key, delete a present key) pairs and the second half undoes them in
reverse order, still as (insert absent, delete present) pairs, so every write
stays valid on every lap.  ``churn-sparse`` must never reuse a key, because
a deleted key leaves its emptied interior node behind for a later insert to
reuse, and that growing residue is what its GC and memory figures measure.
Its list is therefore generated long enough for the run and is not cyclic.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

FANOUT = 64

GET, SUCCESSOR, PREDECESSOR, INSERT, DELETE = range(5)
OP_NAMES = ("get", "successor", "predecessor", "insert", "delete")
QUERIES = (GET, SUCCESSOR, PREDECESSOR)

DENSE_KEY_RANGE = 100_000
DENSE_PREFILL = 50_000
SPARSE_KEY_BITS = 36
SPARSE_PREFILL = 20_000

# ops per client cycle of the cyclic workloads
CYCLE = {"lookup-dense": 1 << 16, "mixed-contended": 1 << 17}
# churn-sparse ops generated per second of run time: about four times what
# the structure completes at the commit that introduced the benchmark
CHURN_OPS_PER_S = 60_000


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload's shape and why it exists (BENCHMARK.json repeats the why of
    each workload it gates)."""

    name: str
    why: str
    threads: int
    # "exact": every answer is compared with a precomputed oracle answer,
    # which only a workload without concurrent writes can have; "possible":
    # any answer some state of the map could give is accepted
    answers: str


WORKLOADS = {
    spec.name: spec
    for spec in (
        # one client: a second CPU-bound thread only adds GIL hand-offs
        WorkloadSpec(
            "lookup-dense",
            "1 thread, get/successor/predecessor only at height 3: lock-free core "
            "descent and bitops scans; no locks, allocation or GC, so write-path "
            "or lock changes must not move it",
            threads=1, answers="exact"),
        WorkloadSpec(
            "churn-sparse",
            "1 thread alternates insert-fresh/delete-present at height 6, no "
            "shared paths: uncontended write cost, node allocation, residue "
            "memory and GC, with no lock contention",
            threads=1, answers="exact"),
        # not gated in BENCHMARK.json: its two threads make it too unsteady on
        # a 2-vCPU host, but it is the only workload with lock contention
        WorkloadSpec(
            "mixed-contended",
            "2 threads, 60% queries and 40% writes on shared upper nodes: rwlock "
            "contention and scan retries show only here; a query-vs-write cost "
            "trade shows against the other two",
            threads=2, answers="possible"),
    )
}


@dataclass
class OpList:
    """One client's ops: ``codes[i]`` is an op code, ``keys[i]`` its key."""

    codes: bytes
    keys: array
    cyclic: bool = True

    def __len__(self) -> int:
        return len(self.codes)


@dataclass
class Plan:
    prefill: list
    clients: list


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # str seeds hash through SHA-512, so this is stable across processes
    return random.Random("%s:%d:%s" % (workload, seed, part))


def _dense_prefill(seed: int, count: int, key_range: int) -> list:
    # lookup-dense and mixed-contended share one prefill per seed
    return _rng("dense-prefill", seed, "keys").sample(range(key_range), count)


def _sparse_prefill(seed: int, count: int) -> list:
    rng = _rng("churn-sparse", seed, "prefill")
    keys: dict = {}
    while len(keys) < count:
        keys[rng.getrandbits(SPARSE_KEY_BITS)] = None
    return list(keys)


def _query_ops(rng: random.Random, length: int, weights, key_range: int) -> OpList:
    codes = bytes(rng.choices(QUERIES, weights=weights, k=length))
    keys = array("q", (rng.randrange(key_range) for _ in range(length)))
    return OpList(codes, keys)


def _write_pairs(rng: random.Random, present: list, pairs: int, fresh) -> list:
    """(added, removed) pairs: insert a key ``fresh(rng, present_keys)`` drew,
    then delete a uniformly chosen present key."""
    pool = list(present)
    where = {k: i for i, k in enumerate(pool)}
    out = []
    for _ in range(pairs):
        added = fresh(rng, where)
        where[added] = len(pool)
        pool.append(added)
        i = rng.randrange(len(pool))
        removed = pool[i]
        last = pool.pop()
        if last != removed:
            pool[i] = last
            where[last] = i
        del where[removed]
        out.append((added, removed))
    return out


def _cycle(pairs: list) -> list:
    """(code, key) writes of ``pairs`` and then their undo, in reverse order."""
    ops = []
    for added, removed in pairs:
        ops += [(INSERT, added), (DELETE, removed)]
    for added, removed in reversed(pairs):
        ops += [(INSERT, removed), (DELETE, added)]
    return ops


def list_length(workload: str, seconds: float) -> int:
    """Ops per client list for a run of ``seconds``."""
    return CYCLE.get(workload) or int(CHURN_OPS_PER_S * seconds)


def build_plan(workload: str, seed: int, length: int, prefill: int | None = None) -> Plan:
    """The prefill keys and per-client op lists for ``workload`` and ``seed``.

    ``length`` is the ops per client list: the run's op budget for
    ``churn-sparse``, the cycle length otherwise.  ``prefill`` overrides the
    standard prefill size; tests use it for tiny runs.
    """
    spec = WORKLOADS[workload]
    if workload == "churn-sparse":
        count = SPARSE_PREFILL if prefill is None else prefill
        keys = _sparse_prefill(seed, count)
        seen = set(keys)

        def fresh(rng, where):
            # never seen before, not merely absent now
            while True:
                k = rng.getrandbits(SPARSE_KEY_BITS)
                if k not in seen:
                    seen.add(k)
                    return k

        pairs = _write_pairs(_rng(workload, seed, "thread0"), keys, max(1, length // 2),
                             fresh)
        op_keys = array("q")
        for added, removed in pairs:
            op_keys.append(added)
            op_keys.append(removed)
        codes = bytes((INSERT, DELETE)) * len(pairs)
        return Plan(keys, [OpList(codes, op_keys, cyclic=False)])

    count = DENSE_PREFILL if prefill is None else prefill
    key_range = 2 * count if prefill is not None else DENSE_KEY_RANGE
    keys = _dense_prefill(seed, count, key_range)
    clients = []
    if workload == "lookup-dense":
        for t in range(spec.threads):
            clients.append(_query_ops(_rng(workload, seed, "thread%d" % t),
                                      length, (50, 35, 15), key_range))
        return Plan(keys, clients)

    # mixed-contended: thread t owns the keys congruent to t mod threads, so
    # its writes never touch another thread's keys and the end state is the
    # replay of each thread's own writes
    for t in range(spec.threads):
        rng = _rng(workload, seed, "thread%d" % t)
        own = [k for k in keys if k % spec.threads == t]

        def fresh(rng, where, t=t):
            while True:
                k = rng.randrange(t, key_range, spec.threads)
                if k not in where:
                    return k

        writes = _cycle(_write_pairs(rng, own, max(1, (length * 2 // 5) // 4), fresh))
        codes = bytearray()
        op_keys = array("q")
        w = 0
        while w < len(writes):
            if rng.random() < 0.4:
                code, key = writes[w]
                w += 1
            else:
                code = rng.choices(QUERIES, weights=(1, 2, 1))[0]
                key = rng.randrange(key_range)
            codes.append(code)
            op_keys.append(key)
        clients.append(OpList(bytes(codes), op_keys))
    return Plan(keys, clients)


def replay_writes(initial, ops: OpList, upto: int) -> set:
    """Keys present after a client ran any number of whole cycles of ``ops``
    (a whole cycle changes nothing) and then its first ``upto`` ops."""
    present = set(initial)
    codes, keys = ops.codes, ops.keys
    for i in range(upto):
        code = codes[i]
        if code == INSERT:
            present.add(keys[i])
        elif code == DELETE:
            present.discard(keys[i])
    return present
