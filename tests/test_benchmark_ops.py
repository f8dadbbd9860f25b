"""Every benchmark op and request still runs on the library with a right answer.

The benchmark in `perfbench/` calls the library by name, so a change that
drops or renames what one of its ops calls would otherwise show only when
the benchmark runs.  This builds one cycle of each workload's pool, at the
warm-up sizes the benchmark uses, and runs it through the benchmark's own
runners.  It reads `perfbench/` and changes nothing there.
"""

import importlib
import random
import sys
import types
from pathlib import Path

import pytest

import ultrauniform

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
WORKLOADS = ("closure", "certify", "topology", "cli")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's `run` module and a `lib` of the already-imported layer modules.

    `run.import_lib` would drop and re-import the package, after which the
    classes of later tests would no longer pass `isinstance`.
    """
    sys.path.insert(0, PERFBENCH)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
    try:
        run = importlib.import_module("run")
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = dont_write
    lib = types.SimpleNamespace(
        package=ultrauniform,
        **{layer: importlib.import_module(f"ultrauniform.{layer}") for layer in run.spans.LAYERS},
    )
    yield run, lib
    for name in ("run", "spans", "workloads"):
        sys.modules.pop(name, None)


def test_every_workload_is_covered(bench):
    run, _ = bench
    assert sorted(run.POOLS) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_cycle_runs_without_a_problem(bench, workload):
    run, lib = bench
    build, _, warm_sizes = run.POOLS[workload]
    rng = random.Random(19)
    if warm_sizes is None:  # the cli pool has no sizes; its requests run cli.main in-process
        pool = build(lib, rng, 1)
        results = [(req.kind, run.run_request_in_process(lib, req)) for req in pool]
    else:
        pool = build(lib, rng, 1, **warm_sizes)
        results = [(op.kind, run.run_op(op)) for op in pool]
    assert pool
    assert [(kind, problem) for kind, (_, problem) in results if problem is not None] == []
