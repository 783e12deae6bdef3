"""dcveb benchmark: closed-loop workloads over ``DcvebArray``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload lookup-dense --seed 1 --seconds 20 --trace 0

Workloads (``workloads.WORKLOADS`` says why each exists): ``lookup-dense``,
``churn-sparse`` and ``mixed-contended``; BENCHMARK.json gates the first two.  The program is imported from
``src/`` of the checkout, unmodified; without it the run exits with status 2.

``--trace 0`` measures end to end.  It times construction plus prefill
(``setup_s``, median of several builds), the bytes per entry of one more
build under ``tracemalloc``, and then only the public calls of
``DcvebArray`` from closed-loop client threads: a warm-up, then ``--seconds``
measured.  With one client (both gated workloads) the builds and the calls
are timed in slices between calibration blocks and scaled to a reference
host speed (``calibrate.py``), because the host's own speed drifts; the
unscaled figures are printed as ``raw.*``.

``--trace 1`` is the per-layer run: a warm-up and a phase with only
a ``gc.callbacks`` hook (GC figures, reference throughput), a phase with spans
around every layer's entry points (``layers.py``), then the same op lists
against ``dcveb.bench.LockedOracle`` for reference.

Every run checks each answer outside the timed window, compares the end state
with the oracle replay of every client's own writes, and runs
``quiescent_walk``; a wrong answer, a raising call, a wrong end state or a
walk violation makes it incorrect.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` with the metrics
``BENCHMARK.json`` lists for the mode.  The lines above it print every
figure with its unit and sample count, per-op latencies and
``failed_op_ratio`` included; ``perfbench/out/<workload>-trace<0|1>.json``
keeps them with the environment metadata, and the traced run writes its spans
to ``perfbench/out/<workload>-spans.bin``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from calibrate import factors, timed_block  # noqa: E402
from clients import SLICE_OPS, Cursor, run_phase  # noqa: E402
from workloads import (  # noqa: E402
    FANOUT, OP_NAMES, QUERIES, WORKLOADS, build_plan, list_length, replay_writes,
)

SETUP_REPEATS = 3
WARMUP_S = 3.0
# the traced run: a gc-hooked phase of half of --seconds, a span-traced phase
# of at most TRACED_S (spans are kept in memory) and a locked-oracle phase of
# a quarter of --seconds
PLAIN_SHARE = 0.5
TRACED_S = 6.0
ORACLE_SHARE = 0.25


def import_program():
    """The ``dcveb`` package from ``src/`` of this checkout, or None."""
    if not os.path.isfile(os.path.join(SRC, "dcveb", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import dcveb
    import dcveb.bench  # noqa: F401 - LockedOracle, the traced run's reference

    return dcveb


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(q * len(values)))
    return values[rank - 1]


def expected_answers(dcveb, plan, spec) -> list:
    """Per client, the exact answer of every op, or None for "possible" mode."""
    if spec.answers != "exact":
        return [None] * len(plan.clients)
    oracle = dcveb.OracleMap()
    for k in plan.prefill:
        oracle.insert(k, k)
    calls = (oracle.get, oracle.successor, oracle.predecessor)
    # writes answer None; the end-state check covers their effect
    return [[calls[c](k) if c in QUERIES else None for c, k in zip(ops.codes, ops.keys)]
            for ops in plan.clients]


def build(factory, keys):
    structure = factory()
    for k in keys:
        structure.insert(k, k)
    return structure


def timed_build(dcveb, keys):
    """Construct + prefill in slices of ``SLICE_OPS`` inserts with a
    calibration block after each: (scaled time, raw time, structure)."""
    clock = time.perf_counter
    walls = []
    calibrations = []
    t0 = clock()
    structure = dcveb.DcvebArray(FANOUT)
    for lo in range(0, len(keys), SLICE_OPS):
        for k in keys[lo:lo + SLICE_OPS]:
            structure.insert(k, k)
        walls.append(clock() - t0)
        calibrations.append(timed_block())
        t0 = clock()
    scaled = sum(w * f for w, f in zip(walls, factors(calibrations)))
    return scaled, sum(walls), structure


def measure_setup(dcveb, keys, repeats: int):
    """Median scaled time of construct + prefill, all the (scaled, raw)
    times, and the last structure built."""
    times = []
    structure = None
    for _ in range(repeats):
        structure = None
        gc.collect()
        scaled, raw, structure = timed_build(dcveb, keys)
        times.append((scaled, raw))
    return statistics.median(t[0] for t in times), times, structure


def measure_bytes_per_entry(dcveb, keys) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        structure = build(partial(dcveb.DcvebArray, FANOUT), keys)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del structure
    return used / len(keys)


def expected_state(plan, spec, cursors) -> list:
    """Sorted (key, value) entries the structure must hold after the clients
    stopped: the prefill with each client's own executed writes replayed."""
    if spec.name == "mixed-contended":
        present = set()
        for t, cursor in enumerate(cursors):
            own = [k for k in plan.prefill if k % spec.threads == t]
            present |= replay_writes(own, cursor.ops, cursor.pos)
    else:
        present = set(plan.prefill)
        for cursor in cursors:
            present = replay_writes(present, cursor.ops, cursor.pos)
    return [(k, k) for k in sorted(present)]


def enumerate_entries(structure) -> list:
    out = []
    key = 0
    while True:
        entry = structure.successor(key)
        if entry is None:
            return out
        out.append((entry.key, entry.value))
        key = entry.key + 1


def check_end_state(dcveb, structure, want: list, walk: bool):
    """(problems, walk report) for the quiescent end state; no problems when
    it is right.  ``walk`` runs ``quiescent_walk``, for a ``DcvebArray``."""
    problems = []
    got = enumerate_entries(structure)
    if got != want:
        problems.append("end state differs from oracle replay: %d missing, %d extra"
                        % (len(set(want) - set(got)), len(set(got) - set(want))))
    report = None
    if walk:
        report = dcveb.quiescent_walk(structure)
        if not report.ok():
            problems.append("quiescent_walk violations: %r" % (report.violations[:5],))
        if report.element_count != len(want):
            problems.append("walk counted %d entries, oracle %d"
                            % (report.element_count, len(want)))
    return problems, report


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """Short SHA-256 over the package sources, which identifies the program
    when the checkout is not a git work tree."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dcveb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil_enabled": True if gil is None else gil(),
        "nproc": os.cpu_count(),
        "switch_interval_s": sys.getswitchinterval(),
        "gc_threshold": list(gc.get_threshold()),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
    }


def phase_metrics(phase) -> dict:
    """Throughput and p50/p99 latency of the measured part of a phase: each op
    that ran, and all calls pooled; scaled to the reference speed when the
    phase is calibrated.  Values are (value, unit, samples)."""
    scaled = phase.calibrated
    throughput = phase.calibrated_throughput(True) if scaled else phase.throughput
    out = {"throughput_ops_s": (throughput, "1/s", phase.calls)}
    pooled = []
    for code, name in enumerate(OP_NAMES):
        samples = sorted(phase.latencies(code, scaled))
        if samples:
            pooled.extend(samples)
            out["%s_p50_us" % name] = (percentile(samples, 0.50) * 1e6, "us", len(samples))
            out["%s_p99_us" % name] = (percentile(samples, 0.99) * 1e6, "us", len(samples))
    pooled.sort()
    out["latency_p50_us"] = (percentile(pooled, 0.50) * 1e6, "us", len(pooled))
    out["latency_p99_us"] = (percentile(pooled, 0.99) * 1e6, "us", len(pooled))
    if scaled:
        out["raw.throughput_ops_s"] = (phase.calibrated_throughput(False), "1/s",
                                       phase.calls)
        raw = sorted(x for code in range(len(OP_NAMES)) for x in phase.latencies(code))
        out["raw.latency_p50_us"] = (percentile(raw, 0.50) * 1e6, "us", len(raw))
    return out


def exhausted(cursors) -> list:
    return ["client %d used its whole op list before the time was up" % i
            for i, c in enumerate(cursors) if c.exhausted]


def run_untraced(dcveb, plan, spec, seconds: float, warmup: float = WARMUP_S) -> dict:
    expected = expected_answers(dcveb, plan, spec)
    bytes_per_entry = measure_bytes_per_entry(dcveb, plan.prefill)
    setup_s, setup_all, structure = measure_setup(dcveb, plan.prefill, SETUP_REPEATS)
    cursors = [Cursor(ops, exp) for ops, exp in zip(plan.clients, expected)]
    gc.collect()
    phase = run_phase(structure, cursors, seconds, warmup=warmup,
                      calibrate=len(cursors) == 1)
    problems, _ = check_end_state(dcveb, structure, expected_state(plan, spec, cursors),
                                  walk=True)
    metrics = phase_metrics(phase)
    metrics["setup_s"] = (setup_s, "s", len(setup_all))
    metrics["raw.setup_s"] = (statistics.median(t[1] for t in setup_all), "s",
                              len(setup_all))
    metrics["bytes_per_entry"] = (bytes_per_entry, "B", len(plan.prefill))
    metrics["failed_op_ratio"] = (phase.failed / phase.done, "ratio", phase.done)
    return {
        "attempted": phase.done,
        "failed": phase.failed,
        "problems": problems,
        "notes": exhausted(cursors),
        "errors": phase.errors,
        "metrics": metrics,
        "detail": {"setup_s_all": setup_all, "measured_s": phase.seconds},
    }


def run_traced(dcveb, plan, spec, seconds: float, warmup: float = WARMUP_S,
               out_dir: str = OUT) -> dict:
    """Per-layer run: a gc-hooked phase, a span-traced phase continuing on the
    same structure, then the same op lists against ``LockedOracle``.  The
    spans go to ``<out_dir>/<workload>-spans.bin``."""
    from layers import GcWatch, Tracer, gc_metrics, span_metrics

    expected = expected_answers(dcveb, plan, spec)
    structure = build(partial(dcveb.DcvebArray, FANOUT), plan.prefill)
    cursors = [Cursor(ops, exp) for ops, exp in zip(plan.clients, expected)]
    tracer = Tracer(dcveb)
    gc.collect()
    with GcWatch(tracer.local) as watch:
        plain = run_phase(structure, cursors, seconds * PLAIN_SHARE, warmup=warmup)
        began = min(c.measured_from[0] for c in plain.clients)
        gc_part = gc_metrics([e for e in watch.events if e[1] >= began],
                             plain.seconds, plain.calls)
        tracer.install()
        try:
            traced = run_phase(structure, cursors, min(TRACED_S, seconds / 4),
                               wrap=tracer.wrap_op)
        finally:
            tracer.uninstall()
    problems, walk = check_end_state(
        dcveb, structure, expected_state(plan, spec, cursors), walk=True)
    notes = exhausted(cursors)

    oracle = build(dcveb.bench.LockedOracle, plan.prefill)
    oracle_cursors = [Cursor(ops, exp) for ops, exp in zip(plan.clients, expected)]
    reference = run_phase(oracle, oracle_cursors, seconds * ORACLE_SHARE)
    problems += ["locked oracle: " + p for p in check_end_state(
        dcveb, oracle, expected_state(plan, spec, oracle_cursors), walk=False)[0]]

    metrics = span_metrics(tracer.recorders)
    metrics.update(gc_part)
    entries = max(1, walk.element_count)
    metrics["walker.internal_nodes_per_entry"] = (walk.internal_node_count / entries,
                                                  "count", walk.element_count)
    metrics["walker.leaf_nodes_per_entry"] = (walk.leaf_node_count / entries, "count",
                                              walk.element_count)
    metrics["bench.trace_overhead_ratio"] = (traced.throughput / plain.throughput,
                                             "ratio", traced.calls)
    metrics["ref.locked_oracle_throughput_ops_s"] = (reference.throughput, "1/s",
                                                     reference.calls)
    os.makedirs(out_dir, exist_ok=True)
    spans = tracer.write(os.path.join(out_dir, "%s-spans.bin" % spec.name))
    phases = (plain, traced, reference)
    return {
        "attempted": sum(p.done for p in phases),
        "failed": sum(p.failed for p in phases),
        "problems": problems,
        "notes": notes,
        "errors": [e for p in phases for e in p.errors],
        "metrics": metrics,
        "detail": {
            "spans": spans,
            "plain_throughput_ops_s": plain.throughput,
            "traced_throughput_ops_s": traced.throughput,
            "measured_s": [p.seconds for p in phases],
        },
    }


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    dcveb = import_program()
    if dcveb is None:
        print("perfbench: no dcveb sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    benchmark = load_benchmark_spec()
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    spec = WORKLOADS[args.workload]
    plan = build_plan(spec.name, args.seed, list_length(spec.name, WARMUP_S + args.seconds))
    run = run_traced if args.trace else run_untraced
    result = run(dcveb, plan, spec, args.seconds)
    correct = not result["problems"] and result["failed"] == 0

    env = environment(args.seed)
    print("workload=%s seed=%d trace=%d seconds=%g clients=%d"
          % (spec.name, args.seed, args.trace, args.seconds, len(plan.clients)))
    print("why: %s" % spec.why)
    print("env: %s" % json.dumps(env, sort_keys=True))
    for name, (value, unit, count) in result["metrics"].items():
        print("  %-40s %16.6g %-12s (n=%d)" % (name, value, unit, count))
    for note in result["notes"]:
        print("NOTE: %s" % note)
    for problem in result["problems"]:
        print("PROBLEM: %s" % problem)
    for op, key, answer in result["errors"]:
        print("FAILED OP: %s(%d) -> %s" % (op, key, answer))

    os.makedirs(OUT, exist_ok=True)
    report = dict(result, workload=spec.name, why=spec.why, seconds=args.seconds,
                  trace=args.trace, environment=env, correct=correct)
    report["metrics"] = {name: {"value": v, "unit": unit, "samples": n}
                         for name, (v, unit, n) in result["metrics"].items()}
    with open(os.path.join(OUT, "%s-trace%d.json" % (spec.name, args.trace)), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    metrics = {m["name"]: {"value": result["metrics"][m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
