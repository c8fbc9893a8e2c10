"""E25 — scale-out certification: work stealing and disk-backed BFS.

The scale layer (:mod:`repro.check.scale`) is the one parallel task
runtime: one driver runs both a worker-count-independent task
decomposition (``TARGET_TASKS`` tasks from a multi-depth frontier,
deduped by orbit before sharding) and a disk-backed BFS mode whose
frontier spills to pickle segments with checkpoint/resume.  Pool workers
start from the task builder's candidate memo, passed through the pool
initializer.

Expected shape: work stealing keeps all workers busy to the end and the
seeded memo turns the builder's interior walk into per-worker cache
hits.  The PR-7 baseline for ``kset`` n=5 pruned (1 009 981 histories),
a static round-1 frontier split, was 136 s; the acceptance bar is ≥2×
(≤68 s), the committed artifact records ~8×.  ``steal-1w`` runs the same
task list in-process, so its counts equal ``steal-4w``'s exactly.
Schedulers agree exactly on histories/executions/pruned and the
violation set (differentially tested in ``tests/check/test_scale.py``);
``visited``/``rounds_executed`` are scheduler-dependent work counters and
are deliberately not compared here.

``shared_hits`` is environmental (which tasks share a worker, and so
which of them finds a list another task computed, depends on
scheduling), so it is volatile in the committed artifact; CI asserts it
from a live run instead.
"""

import time

import pytest

from benchmarks.conftest import report_experiment
from repro.check import explore, explore_bfs
from repro.harness import Experiment, Grid, run_experiment, run_one_cell

WORKLOADS = {
    # name -> explore() keyword arguments (spec resolved by registry name)
    "kset-n4-pruned": dict(spec="kset", n=4, rounds=2, prune_decided=True),
    "kset-n5-pruned": dict(spec="kset", n=5, rounds=2, prune_decided=True),
}

CONFIGS = {
    # Work stealing in-process (no pool): the tasks share the builder memo.
    # One cell so the artifact records the serial floor.
    "steal-1w": dict(workers=1, scheduler="steal"),
    "steal-4w": dict(workers=4, scheduler="steal"),
    # Disk-backed BFS over the same task decomposition (ephemeral
    # checkpoint directory; resume correctness is tested in
    # tests/check/test_scale.py).
    "bfs-4w": dict(workers=4, bfs=True),
}

# kset n=5 is the headline cell; keep its grid row to the one config the
# acceptance criterion reads so `regen_bench --check` stays affordable.
GRID = [
    (w, c)
    for w in WORKLOADS
    for c in CONFIGS
    if not (w == "kset-n5-pruned" and c in ("steal-1w", "bfs-4w"))
]


def run_cell(ctx) -> dict:
    kwargs = dict(WORKLOADS[ctx["workload"]])
    config = dict(CONFIGS[ctx["config"]])
    bfs = config.pop("bfs", False)
    kwargs.update(config)
    started = time.perf_counter()
    if bfs:
        result = explore_bfs(**kwargs)
    else:
        result = explore(**kwargs)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert result.ok, result.summary()
    scale = result.scale or {}
    return {
        "elapsed_ms": elapsed_ms,
        "histories": result.histories,
        "executions": result.executions,
        "pruned": result.pruned,
        "workers": result.workers,
        "tasks": scale.get("tasks", scale.get("tasks_done", 0)),
        # Environmental: depends on which tasks share a worker.  Volatile
        # in the committed artifact (scripts/regen_bench.py); CI asserts
        # hits > 0 from a live run.
        "shared_hits": scale.get("shared_hits", 0),
    }


EXPERIMENT = Experiment(
    id="E25",
    title="E25 (extension): scale-out certification — work stealing and "
    "disk-backed BFS on one task driver",
    grid=Grid.explicit("workload,config", GRID),
    run_cell=run_cell,
    samples=1,  # the n=5 cells are wall-clock heavy; counts are exact
    reduce={
        "elapsed_ms": "min",
    },
    table=(
        ("workload", "workload"),
        ("scheduler", "config"),
        ("time (ms)", lambda c: f"{c['elapsed_ms']:.1f}"),
        ("histories", "histories"),
        ("tasks", lambda c: c["tasks"] or "—"),
        ("shared hits", lambda c: c["shared_hits"] or "—"),
    ),
    notes="Schedulers agree exactly on histories/executions/pruned and the "
    "violation set; shared_hits is environmental (volatile in the "
    "artifact).  PR-7 static-split baseline for kset-n5-pruned: 136 s.",
)


@pytest.mark.parametrize("config", ["steal-1w", "steal-4w", "bfs-4w"])
def test_e25_cell_counts(benchmark, config):
    cell = benchmark.pedantic(
        run_one_cell, args=(EXPERIMENT,),
        kwargs={"workload": "kset-n4-pruned", "config": config, "samples": 1},
        rounds=1, iterations=1,
    )
    assert cell["histories"] == 4235
    assert cell["executions"] == 4235
    assert cell["tasks"] > 0


def test_e25_schedulers_agree(benchmark):
    # Fast differential on the n=4 workload only — the full grid (with the
    # n=5 cells) runs via `python -m repro bench E25`, not under pytest.
    def run_small():
        return {
            config: run_one_cell(
                EXPERIMENT, workload="kset-n4-pruned", config=config,
                samples=1,
            )
            for config in CONFIGS
        }

    cells = benchmark.pedantic(run_small, rounds=1, iterations=1)
    base = cells["steal-4w"]
    for config, cell in cells.items():
        assert cell["histories"] == base["histories"], config
        assert cell["executions"] == base["executions"], config
        assert cell["pruned"] == base["pruned"], config
    # Work stealing decomposes independently of the worker count.
    assert cells["steal-4w"]["tasks"] == cells["steal-1w"]["tasks"]


def test_e25_report(benchmark):
    # Fast probe over the n=4 row only — the full grid (with the n=5
    # headline cells) runs via `python -m repro bench E25` / regen_bench.
    probe = Experiment(
        id=EXPERIMENT.id, title=EXPERIMENT.title,
        grid=Grid.explicit(
            "workload,config",
            [(w, c) for (w, c) in GRID if w == "kset-n4-pruned"],
        ),
        run_cell=EXPERIMENT.run_cell, samples=1,
        reduce=EXPERIMENT.reduce, table=EXPERIMENT.table,
        notes=EXPERIMENT.notes,
    )
    result = benchmark.pedantic(
        run_experiment, args=(probe,), rounds=1, iterations=1
    )
    result.check(lambda c: c["histories"] > 0, "non-vacuous")
    report_experiment(probe, result)
