"""E24 — Heard-Of predicate engine: bridged set oracle vs packed kernels.

Every HO predicate judges histories through its suspicion-side dual
(``HO(i, r) = S − D(i, r)``, :mod:`repro.ho.model`), so the packed
configuration rides the same integer-bitmask fast path the RRFD engine
uses: one XOR against ``domain.full_round`` per round plus a
``FastPackedPredicate`` suspicion kernel.  The ``set`` configuration pins
``bitset=False`` on the containment checks — the frozenset path the packed
one is differentially certified against
(``tests/ho/test_bridge_differential.py``) — and certifies
``uniform-voting-n3`` through a ``HOUniformVoting`` subclass, which has no
fast kernel, so the engine runs it through the frozenset bridge.

Three workloads exercise the three layers of :mod:`repro.ho`:

- ``uniform-voting-n3`` — exhaustive conformance certification of the
  registered ``ho-uniform-voting`` spec (UniformVoting under the
  no-split-rounds predicate; (4·22)² = 7 744 histories at n=3, r=4);
- ``containment-grid`` — bounded containment checks over catalog pairs
  (:func:`repro.ho.contains`), including the one separated pair
  ``no-split ⊄ global-kernel``;
- ``certify-suite`` — the full :func:`repro.ho.certify_all` pipeline:
  derived-predicate equivalence, containments, separation search and
  witness shrinking, as run by ``python -m repro ho --certify``.

Cells assert correctness (ok / expected separations) and the report test
pins exact packed-vs-set count parity — the benchmark doubles as a
cross-engine certification of the HO path.
"""

import time

import pytest

from benchmarks.conftest import report_experiment
from repro.check import explore, get_spec
from repro.harness import Experiment, Grid, run_experiment, run_one_cell
from repro.ho import certify_all, contains
from repro.ho.model import HOUniformVoting

N = 3

# Catalog containment pairs: two contained, one separated (the canonical
# witness pair — pairwise intersection without a global kernel at n=3).
CONTAINMENT_PAIRS = [
    ("global-kernel", "no-split"),
    ("uniform", "no-split"),
    ("no-split", "global-kernel"),
]


class _BridgedVoting(HOUniformVoting):  # exact-type guard: the bridge runs
    pass


def _explore_uniform_voting(bitset: bool) -> dict:
    spec = get_spec("ho-uniform-voting")
    if not bitset:
        spec = spec.weakened(
            lambda n: _BridgedVoting(n, f=1).suspicion(), suffix="bridged"
        )
    assert spec.predicate(N).packed().fast == bitset
    result = explore(spec, n=N)
    assert result.ok, result.summary()
    return {"histories": result.histories, "separations": 0}


def _containment_grid(bitset: bool) -> dict:
    checked = 0
    separations = 0
    for a, b in CONTAINMENT_PAIRS:
        result = contains(a, b, n=N, rounds=2, bitset=bitset)
        checked += result.histories_checked
        if not result.holds:
            separations += 1
    return {"histories": checked, "separations": separations}


def _certify_suite(bitset: bool) -> dict:
    report = certify_all(n=N, rounds=2, bitset=bitset)
    checked = sum(r.histories_checked for r in report.containments)
    for cert in report.equivalences:
        checked += cert.forward.histories_checked
        checked += cert.backward.histories_checked
    return {"histories": checked, "separations": len(report.separations)}


WORKLOADS = {
    "uniform-voting-n3": _explore_uniform_voting,
    "containment-grid": _containment_grid,
    "certify-suite": _certify_suite,
}

CONFIGS = {
    # The frozenset bridge: the differential oracle for the packed path.
    "set": False,
    # The default: suspicion kernels in mask algebra, one XOR per round.
    "packed": True,
}


def run_cell(ctx) -> dict:
    workload = WORKLOADS[ctx["workload"]]
    bitset = CONFIGS[ctx["config"]]
    started = time.perf_counter()
    metrics = workload(bitset)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return {
        "elapsed_ms": elapsed_ms,
        "bitset": 1 if bitset else 0,
        **metrics,
    }


EXPERIMENT = Experiment(
    id="E24",
    title="E24 (extension): Heard-Of predicate engine — packed suspicion "
    "kernels vs the bridged set oracle on certification workloads",
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
        ("path", "config"),
        ("time (ms)", lambda c: f"{c['elapsed_ms']:.1f}"),
        ("histories", "histories"),
        ("separations", lambda c: c["separations"] or "—"),
    ),
    notes="Both paths certify identical history counts and the same "
    "separation witnesses; the packed column measures the XOR-bridged "
    "FastPackedPredicate kernels of repro.ho.model.",
)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("config", list(CONFIGS))
def test_e24_cell_counts(benchmark, workload, config):
    cell = benchmark.pedantic(
        run_one_cell, args=(EXPERIMENT,),
        kwargs={"workload": workload, "config": config, "samples": 1},
        rounds=1, iterations=1,
    )
    assert cell["histories"] > 0
    if workload == "uniform-voting-n3":
        assert cell["histories"] == (4 * 22) ** 2
        assert cell["separations"] == 0
    else:
        assert cell["separations"] == 1


def test_e24_report(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=(EXPERIMENT,), rounds=1, iterations=1
    )
    result.check(lambda c: c["histories"] > 0, "non-vacuous")
    # Packed and set paths certify *exactly* the same work — count parity
    # is the acceptance criterion, not speed (witness-level equality is
    # covered in tests/ho/test_certify.py).
    for workload in WORKLOADS:
        packed = result.cell(workload=workload, config="packed")
        reference = result.cell(workload=workload, config="set")
        assert packed["histories"] == reference["histories"]
        assert packed["separations"] == reference["separations"]
        assert packed["bitset"] == 1
        assert reference["bitset"] == 0
    # Pinned grid totals: 28 561 (global-kernel ⊆ no-split over 2 rounds)
    # + 49 (uniform ⊆ no-split) + 53 (separation found at history 53).
    grid = result.cell(workload="containment-grid", config="packed")
    assert grid["histories"] == 28561 + 49 + 53
    report_experiment(EXPERIMENT, result)
