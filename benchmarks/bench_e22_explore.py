"""E22 — incremental exploration engine vs replay (conformance kit cost).

The bounded model checker's replay path pays ``O(depth)`` protocol rounds
per admissible history; the incremental engine (:mod:`repro.check.engine`)
forks executors at branch points and pays one round per tree edge, shares
one trace object per decided subtree (so invariant checks memoize by
identity) and memoizes candidate generation per folded kernel state.  It
runs on the integer-bitmask round kernel (:mod:`repro.util.bitset`): whole
rounds packed as ints, candidate enumeration and symmetry canonicalization
in mask algebra.  Symmetry reduction additionally cuts
permutation-equivalent subtrees.

Expected shape: on ``kset`` n=3 rounds=2 (3 721 histories, decided after
round 1) the incremental engine is far over the acceptance bar of 10×,
because 3 721 replays collapse to 61 protocol rounds and 61 distinct
invariant checks.  On depth-1-dominated workloads (``kset`` n=4 with
decided-pruning) forking cannot save rounds — the interesting column there
is symmetry, which certifies 218 orbit representatives instead of 4 235
histories.  Engines agree exactly: identical executions, histories and
violation sets (differentially tested in ``tests/check/test_engine.py``
and ``tests/check/test_bitset_differential.py``).
"""

import time

import pytest

from benchmarks.conftest import report_experiment
from repro.check import explore
from repro.harness import Experiment, Grid, run_experiment, run_one_cell

WORKLOADS = {
    # name -> explore() keyword arguments (spec resolved by registry name)
    "kset-n3": dict(spec="kset", n=3, rounds=2),
    "kset-n4-pruned": dict(spec="kset", n=4, rounds=2, prune_decided=True),
    "floodset-n3": dict(spec="floodset", n=3),
}

CONFIGS = {
    # The differential oracle: re-run every history from round 1.
    "replay": dict(engine="replay"),
    "incremental": dict(engine="incremental"),
    "incremental+symmetry": dict(engine="incremental", symmetry=True),
}


def run_cell(ctx) -> dict:
    kwargs = dict(WORKLOADS[ctx["workload"]])
    kwargs.update(CONFIGS[ctx["config"]])
    started = time.perf_counter()
    result = explore(**kwargs)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert result.ok, result.summary()
    return {
        "elapsed_ms": elapsed_ms,
        "executions": result.executions,
        "histories": result.histories,
        "rounds_executed": result.rounds_executed,
        "skipped_symmetric": result.skipped_symmetric,
        "symmetry_applied": 1 if result.symmetry else 0,
    }


EXPERIMENT = Experiment(
    id="E22",
    title="E22 (extension): incremental exploration engine — executor "
    "forking, candidate memoization and symmetry reduction vs replay",
    grid=Grid.explicit(
        "workload,config",
        [(w, c) for w in WORKLOADS for c in CONFIGS],
    ),
    run_cell=run_cell,
    samples=3,
    reduce={
        "elapsed_ms": "min",  # best-of-samples: wall time, not throughput
    },
    table=(
        ("workload", "workload"),
        ("engine", "config"),
        ("time (ms)", lambda c: f"{c['elapsed_ms']:.1f}"),
        ("executions", "executions"),
        ("protocol rounds", lambda c: c["rounds_executed"] or "—"),
        ("orbits skipped", lambda c: c["skipped_symmetric"] or "—"),
    ),
    notes="Engines produce identical violation sets; symmetry counts orbit "
    "representatives (kset declares symmetry='labels': existence-sound).",
)


def _speedup(result, workload: str, config: str) -> float:
    base = result.cell(workload=workload, config="replay")["elapsed_ms"]
    other = result.cell(workload=workload, config=config)["elapsed_ms"]
    return base / other


@pytest.mark.parametrize("workload,config", [
    ("kset-n3", "incremental"),
    ("kset-n3", "incremental+symmetry"),
    ("floodset-n3", "incremental"),
])
def test_e22_cell_counts(benchmark, workload, config):
    cell = benchmark.pedantic(
        run_one_cell, args=(EXPERIMENT,),
        kwargs={"workload": workload, "config": config, "samples": 1},
        rounds=1, iterations=1,
    )
    assert cell["executions"] == cell["histories"]
    assert cell["rounds_executed"] > 0


def test_e22_report(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=(EXPERIMENT,), rounds=1, iterations=1
    )
    result.check(lambda c: c["executions"] > 0, "non-vacuous")
    # Engines agree on the work done (counts; violation-set equality is
    # covered differentially in tests/check/test_engine.py).
    for workload in WORKLOADS:
        replay = result.cell(workload=workload, config="replay")
        incr = result.cell(workload=workload, config="incremental")
        assert replay["executions"] == incr["executions"]
        assert replay["histories"] == incr["histories"]
    # Acceptance bar: ≥10× over replay on kset n=3 rounds=2, with and
    # without symmetry (measured ~100× and ~38×; the margin absorbs CI
    # noise).
    assert _speedup(result, "kset-n3", "incremental") >= 10.0
    assert _speedup(result, "kset-n3", "incremental+symmetry") >= 10.0
    # Symmetry certifies representatives only — strictly fewer histories.
    sym = result.cell(workload="kset-n4-pruned", config="incremental+symmetry")
    full = result.cell(workload="kset-n4-pruned", config="incremental")
    assert sym["symmetry_applied"] and sym["histories"] < full["histories"]
    report_experiment(EXPERIMENT, result)
