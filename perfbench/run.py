#!/usr/bin/env python3
"""Benchmark for ultrauniform: four workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

The package is imported from `src/` of the checkout and nowhere else.  The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, from a run
that times the same operations once plainly and once through the span
tracer of `spans.py`, and that writes its spans to `perfbench/out/`.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import types
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 9  # setup_s is the median of this many set-ups in one run
MIN_OPS = 100  # a run goes on past --seconds until it has this many ops
STARTUP_SAMPLES = 21
TRACE_PASS_SHARE = 0.4  # share of --seconds for the untraced pass of a traced run
SUBPROCESS_TIMEOUT_S = 60

# workload -> (pool builder, cycles in the pool, sizes of its warm-up pool).
# closure and cli pools last about a 25 s run; the certify and topology pools
# are cheap to go round again, and bigger ones would only slow set-up.
POOLS = {
    "closure": (wl.closure_pool, 8, {"ns": (10,), "ks": (3,)}),
    "certify": (wl.certify_pool, 20, {"pair_sizes": (8,), "padic_sizes": (64,)}),
    "topology": (wl.topology_pool, 12, {"ns": (5,)}),
    "cli": (wl.cli_pool, 20, None),
}

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "startup_ms": "ms",
}

LAYER_UNITS = {
    "core.relation_ops": "count",
    "uniformity.closure_calls": "count",
    "uniformity.closure_members": "count",
    "uniformity.closure_members_per_generator": "ratio",
    "uniformity.cover_sets_refined": "count",
    "pseudometric.tables_built": "count",
    "pseudometric.triangle_checks": "count",
    "pseudometric.balls_built": "count",
    "topology.validations": "count",
    "topology.validations_per_op": "ratio",
    "topology.opens_scanned": "count",
    "topology.clopens_found": "count",
    "oracle.instances_checked": "count",
    "jsonio.bytes_in": "bytes",
    "jsonio.bytes_out": "bytes",
    "cli.exit_0": "count",
    "cli.exit_1": "count",
    "cli.exit_2": "count",
    "cli.crashes": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.accounted_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.ops": "count",
    "ref.validate_diagonal.n16_k6_s": "s",
    "ref.validate_diagonal.n16_k8_s": "s",
    "ref.validate_diagonal.n16_k10_s": "s",
    "ref.is_uniformizable_na.discrete_n5_s": "s",
    "ref.is_uniformizable_na.discrete_n6_s": "s",
    "ref.padic_pseudometric.size64_s": "s",
    "ref.padic_pseudometric.size128_s": "s",
}
for _layer in spans.LAYERS:
    LAYER_UNITS[f"{_layer}.self_s"] = "s"
    LAYER_UNITS[f"{_layer}.calls"] = "count"


def _count(key, amount=lambda args, result: 1):
    def after(tracer, args, result):
        tracer.count(key, amount(args, result))

    return (None, after)


def _closure_prepare(args):
    # the generators may arrive as a one-shot iterator: hand on a tuple of them
    return (tuple(args[0]),) + args[1:] if args else args


def _closure_after(tracer, args, result):
    tracer.count("uniformity.closure_calls")
    tracer.count("uniformity.closure_members", len(result))
    tracer.count("uniformity.closure_generators", len(args[0]) if args else 0)


def _table_after(tracer, args, result):
    tracer.count("pseudometric.tables_built")
    tracer.count("pseudometric.triangle_checks", args[0].n ** 3)  # args[0] is the new table


def _validation_after(tracer, args, result):
    tracer.count("topology.validations")
    tracer.count("topology.opens_scanned", len(args[0].opens) if args else 0)


# per-layer counts taken at the traced calls
HOOKS = {
    **{
        key: _count("core.relation_ops")
        for key in (
            "core.Relation.__and__", "core.compose", "core.inverse",
            "core.Relation.issubset", "core.eq_closure",
        )
    },
    "uniformity.intersection_closure": (_closure_prepare, _closure_after),
    "uniformity.finest_common_refinement": _count(
        "uniformity.cover_sets_refined", lambda args, result: len(result.sets)
    ),
    "pseudometric.Pseudometric.__init__": (None, _table_after),
    "pseudometric.ball_relation": _count("pseudometric.balls_built"),
    "topology.validate_topology": (None, _validation_after),
    "topology.clopen_sets": _count("topology.clopens_found", lambda args, result: len(result)),
    "oracle.theorem_sweep": _count("oracle.instances_checked", lambda args, result: result.checked),
    "jsonio.dumps": _count("jsonio.bytes_out", lambda args, result: len(result.encode())),
    "jsonio.loads": _count("jsonio.bytes_in", lambda args, result: len(args[0].encode()) if args else 0),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_lib() -> types.SimpleNamespace:
    """Import the package and its layer modules afresh from src/."""
    for name in list(sys.modules):
        if name == "ultrauniform" or name.startswith("ultrauniform."):
            del sys.modules[name]
    lib = types.SimpleNamespace(package=importlib.import_module("ultrauniform"))
    if Path(lib.package.__file__).resolve().parent != SRC / "ultrauniform":
        fail(f"imported ultrauniform from {lib.package.__file__}, not from {SRC}")
    for layer in spans.LAYERS:
        setattr(lib, layer, importlib.import_module(f"ultrauniform.{layer}"))
    return lib


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("ULTRAUNIFORM_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def parse_payload(text: str):
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


# ---------------------------------------------------------------------------
# running one op


def judge(check, *args):
    """Run a check; an answer too malformed to check is a wrong answer."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return ("wrong", f"answer could not be checked: {type(exc).__name__}: {exc}")


def _span(tracer, name: str):
    return tracer.span(spans.BENCH, name) if tracer is not None else nullcontext()


def run_op(op, tracer=None):
    """Time one library call, then check its answer outside the timing."""
    with _span(tracer, f"op.{op.kind}"):
        start = perf_counter()
        try:
            value, exc = op.call(), None
        except Exception as error:  # judged by the check, never re-raised
            value, exc = None, error
        elapsed = perf_counter() - start
    with _span(tracer, "check"):
        return elapsed, judge(op.check, value, exc)


def run_request(req, env):
    """One `ultrauniform` subprocess; the client waits for it to end."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ultrauniform.cli", *req.argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, ("crash", "timed out")
    elapsed = perf_counter() - start
    return elapsed, judge(req.check, proc.returncode, parse_payload(proc.stdout))


def run_request_in_process(lib, req, tracer=None):
    """Call cli.main in this process; a traceback would mean exit 1."""
    out = io.StringIO()
    crashed = False
    with redirect_stdout(out), redirect_stderr(io.StringIO()), _span(tracer, f"op.{req.kind}"):
        start = perf_counter()
        try:
            code = lib.cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception exits 1 with a traceback
            code, crashed = 1, True
        elapsed = perf_counter() - start
    if tracer is not None:
        tracer.count(f"cli.exit_{code}")
        tracer.count("cli.crashes", crashed)
        if "--in" in req.argv:
            tracer.count("jsonio.bytes_in", len(req.argv[req.argv.index("--in") + 1].encode()))
    with _span(tracer, "check"):
        return elapsed, judge(req.check, code, parse_payload(out.getvalue()))


class Tally:
    """Latencies and failures of the ops of one run or pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.wrong = 0
        self.crashes = 0
        self.examples: list[str] = []

    def add(self, kind: str, elapsed: float, problem) -> None:
        self.latencies.append(elapsed)
        if problem is not None:
            cls, why = problem
            if cls == "wrong":
                self.wrong += 1
            else:
                self.crashes += 1
            if len(self.examples) < 5:
                self.examples.append(f"{kind}: {cls}: {why}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.wrong + self.crashes


def measure(pool, runner, seconds=None, cycle=1, count=None, probe=None, probes=0) -> Tally:
    """Run the pool's ops in order, starting over at its end, for `count` ops or
    for `seconds` and then to the end of a cycle of `cycle` ops (and MIN_OPS).

    Ending on a cycle boundary gives every run the same mix of sizes; the
    quantiles of a mix this wide move with a few ops more or less of a size.
    `probe`, when given, is called `probes` times between ops, spread over
    the run, and is not timed as an op.
    """
    tally = Tally()
    start = perf_counter()
    deadline = start + (seconds or 0)
    next_probe, done_probes = start, 0
    i = 0
    while (
        i < count if count is not None
        else perf_counter() < deadline or i < MIN_OPS or i % cycle
    ):
        if done_probes < probes and perf_counter() >= next_probe:
            probe()
            done_probes += 1
            next_probe = start + done_probes * (seconds or 0) / probes
        op = pool[i % len(pool)]
        elapsed, problem = runner(op)
        tally.add(op.kind, elapsed, problem)
        i += 1
    for _ in range(done_probes, probes):
        probe()
    return tally


# ---------------------------------------------------------------------------
# set-up


def setup(name: str, seed: int):
    """Import, build the seeded inputs and warm up; returns (lib, pool, cycle, seconds)."""
    start = perf_counter()
    lib = import_lib()
    build, cycles, warm_sizes = POOLS[name]
    wl.padic_row.cache_clear()  # every set-up builds its inputs from nothing
    pool = build(lib, random.Random(seed), cycles)
    assert len(pool) % cycles == 0, "every cycle of a pool has the same length"
    # one small op of every kind; for cli one request warms the file cache
    warm_rng = random.Random(seed + 1)
    if warm_sizes is None:
        run_request(wl.cli_request(lib, warm_rng, "validate-diagonal"), cli_env())
    else:
        for op in build(lib, warm_rng, 1, **warm_sizes):
            run_op(op)
    elapsed = perf_counter() - start
    # The pool lives through the run: keep it out of the collector's scans,
    # so that a full collection costs what the library allocates, not the pool.
    gc.collect()
    gc.freeze()
    return lib, pool, len(pool) // cycles, elapsed


def fresh_setups(name: str, seed: int, count: int):
    """Set up `count` times; only the last pool and library copy survive.

    Each earlier copy is dropped and collected before the next set-up, so
    that no two pools are alive at once and peak RSS holds one of them.
    Returns the last (lib, pool, cycle) and the set-up times.
    """
    times = []
    for _ in range(count):
        lib = pool = None
        gc.unfreeze()
        gc.collect()
        lib, pool, cycle, elapsed = setup(name, seed)
        times.append(elapsed)
    return lib, pool, cycle, times


# ---------------------------------------------------------------------------
# reference scaling rows (traced runs only; not gated)


def reference_rows(lib, seed: int) -> dict:
    rng = random.Random(seed)
    core, unif, topo = lib.core, lib.uniformity, lib.topology
    rows = {}

    def timed(key, call, expect):
        times = []
        while len(times) < 5 and sum(times) < 0.5:
            start = perf_counter()
            result = call()
            times.append(perf_counter() - start)
            if not expect(result):
                fail(f"reference row {key} gave a wrong answer")
        rows[key] = statistics.median(times)

    c16 = core.Carrier(16)
    for k in (6, 8, 10):
        b = unif.DiagonalBasis(c16, [core.Relation(c16, wl.two_block(rng, 16)) for _ in range(k)])
        timed(
            f"ref.validate_diagonal.n16_k{k}_s",
            lambda: unif.validate_diagonal(b),
            lambda report: report.valid,
        )
    for n in (5, 6):
        t = topo.FiniteTopology(core.Carrier(n), range(1 << n))
        timed(
            f"ref.is_uniformizable_na.discrete_n{n}_s",
            lambda: topo.is_uniformizable_na(t),
            lambda result: result[0],
        )
    for size in (64, 128):
        timed(
            f"ref.padic_pseudometric.size{size}_s",
            lambda: lib.cli.padic_pseudometric(2, size),
            lambda d: d.dist[0][2] == Fraction(1, 2) and d.dist[0][size // 2] == Fraction(2, size),
        )
    return rows


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(name: str, seed: int, seconds: float):
    lib, pool, cycle, setups = fresh_setups(name, seed, SETUPS)
    env = cli_env()
    startup = []

    def probe():
        # Interpreter start-up plus import, the fixed cost of every command.
        # Output is captured so that the wait ends when the pipes close; a
        # bare wait with a timeout polls with sleeps of up to 50 ms.
        begin = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import ultrauniform.cli"],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        startup.append((perf_counter() - begin) * 1000)

    if name == "cli":
        runner, who = (lambda req: run_request(req, env)), resource.RUSAGE_CHILDREN
    else:
        runner, who = run_op, resource.RUSAGE_SELF
    tally = measure(pool, runner, seconds, cycle, probe=probe, probes=STARTUP_SAMPLES)
    peak_kb = resource.getrusage(who).ru_maxrss
    lat = tally.latencies
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_kb / 1024,
        "startup_ms": statistics.median(startup),
    }
    return tally, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def per_layer(name: str, seed: int, seconds: float):
    lib, pool, cycle, _ = setup(name, seed)
    tracer = spans.Tracer()
    if name == "cli":
        def plain(req):
            return run_request_in_process(lib, req)

        def traced(req):
            return run_request_in_process(lib, req, tracer)
    else:
        plain = run_op

        def traced(op):
            return run_op(op, tracer)

    untraced = measure(pool, plain, seconds * TRACE_PASS_SHARE, cycle)
    tracer.install(lib, HOOKS)
    try:
        start = perf_counter()
        traced_tally = measure(pool, traced, count=untraced.attempted)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()

    ops = traced_tally.attempted
    counts = tracer.counts
    values = {}
    for layer, label in enumerate(spans.LAYERS):
        values[f"{label}.self_s"] = tracer.self_time[layer]
        values[f"{label}.calls"] = sum(
            calls for lay, calls in zip(tracer.name_layer, tracer.name_calls) if lay == layer
        )
    for key in LAYER_UNITS:
        if key not in values and not key.startswith(("bench.", "trace.", "ref.")):
            values[key] = counts.get(key, 0)
    values["uniformity.closure_members_per_generator"] = (
        counts.get("uniformity.closure_members", 0) / counts["uniformity.closure_generators"]
        if counts.get("uniformity.closure_generators") else 0.0
    )
    values["topology.validations_per_op"] = counts.get("topology.validations", 0) / ops
    # the benchmark's own time: its loop, its checks and the op wrappers
    values["bench.self_s"] = wall - sum(tracer.self_time[: spans.BENCH])
    values["trace.wall_s"] = wall
    # the share of op time that falls inside layer spans; time the library
    # spends outside every traced function stays in the op span's self time
    op_ids = [nid for nid, key in enumerate(tracer.names) if key.startswith("bench.op.")]
    op_total = sum(tracer.name_total[nid] for nid in op_ids)
    values["trace.accounted_frac"] = 1 - sum(tracer.name_self[nid] for nid in op_ids) / op_total
    values["trace.overhead_frac"] = sum(traced_tally.latencies) / sum(untraced.latencies) - 1
    values["trace.ops"] = ops
    values.update(reference_rows(lib, seed))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-{seed}.json", {"workload": name, "seed": seed})

    tally = Tally()
    for part in (untraced, traced_tally):
        tally.latencies += part.latencies
        tally.wrong += part.wrong
        tally.crashes += part.crashes
        tally.examples += part.examples
    return tally, {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ultrauniform" / "__init__.py").is_file():
        fail(f"no package at {SRC / 'ultrauniform'}; run from a checkout of the repository")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    run = per_layer if args.trace else end_to_end
    tally, metrics = run(args.workload, args.seed, args.seconds)
    for example in tally.examples:
        print(f"perfbench: {example}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
