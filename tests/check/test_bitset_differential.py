"""Differential certification of the packed engine on both kernel kinds.

Every predicate runs on one packed DFS.  Catalog predicates ship a fast
bit-op kernel; any other predicate — here a trivial subclass, which the
exact-type guards route away from the fast kernel — reaches the engine
through the :class:`~repro.core.predicate.PackedPredicate` bridge, i.e.
through its own set semantics.  The tests pin three equalities:

- bridged engine ≡ fast engine on every registered spec: identical
  histories in identical order, identical violation lists, identical
  symmetry-orbit skips;
- both ≡ the replay engine (``engine="replay"``), the single differential
  oracle, on histories, DFS order and violation lists;
- the transposition table's claim decisions ≡ a brute-force minimum over
  all ``n!`` permutation images, in both symmetry modes.
"""

from __future__ import annotations

import copy
import itertools

import pytest

from repro.analysis.adversary_search import iter_admissible_histories
from repro.check.engine import IncrementalExplorer, _PackedSymmetryTable
from repro.check.explore import explore
from repro.check.spec import all_specs, get_spec
from repro.core.predicate import Conjunction, Unconstrained
from repro.core.predicates import (
    AsyncMessagePassing,
    AtomicSnapshot,
    CrashSync,
    EventuallyStrong,
    KSetDetector,
    MixedResilience,
    SemiSyncEquality,
    SendOmissionSync,
    SharedMemoryAntisymmetric,
    SharedMemorySWMR,
)
from repro.util.bitset import domain

EXHAUSTIVE_SPECS = [s.name for s in all_specs() if s.supports_exhaustive]

N = 3


def bridged(predicate):
    """``predicate`` as an instance of a trivial subclass of its class.

    Same state, same set semantics — but every ``packed()`` override guards
    on exact type, so the engine reaches it through the bridge.
    """
    clone = copy.copy(predicate)
    cls = type(predicate)
    clone.__class__ = type(f"Bridged{cls.__name__}", (cls,), {})
    assert not clone.packed().fast
    return clone


def bridged_spec(spec):
    return spec.weakened(lambda n: bridged(spec.predicate(n)), suffix="bridged")


def _violation_key(violation):
    return (
        violation.inputs,
        violation.history,
        tuple((f.invariant, f.message) for f in violation.failures),
    )


def _assert_same_outcome(packed, reference):
    assert packed.histories == reference.histories
    assert packed.executions == reference.executions
    assert packed.pruned == reference.pruned
    assert [_violation_key(v) for v in packed.violations] == [
        _violation_key(v) for v in reference.violations
    ]


def _leaves(spec, rounds, **kwargs):
    """Every full-depth history the engine yields, in yield order."""
    explorer = IncrementalExplorer(
        spec.protocol(N),
        spec.predicate(N),
        tuple(spec.exhaustive_inputs(N))[0],
        crashed_stop_emitting=spec.crashed_stop_emitting,
        **kwargs,
    )
    out = []
    for run in explorer.runs(rounds):
        if run.expand is None:
            out.append(run.history)
        else:
            out.extend(run.expand())
    return out, explorer.stats


# ---------------------------------------------------------------------------
# registered specs: fast kernel ≡ bridge ≡ replay


@pytest.mark.parametrize("spec_name", EXHAUSTIVE_SPECS)
def test_packed_explore_matches_set_engine(spec_name):
    """The fast kernel and the bridged set semantics explore the same tree."""
    spec = get_spec(spec_name)
    rounds = spec.rounds(N)
    fast = explore(spec=spec_name, n=N, rounds=rounds)
    reference = explore(spec=bridged_spec(spec), n=N, rounds=rounds)
    assert spec.predicate(N).packed().fast
    _assert_same_outcome(fast, reference)


@pytest.mark.parametrize("spec_name", EXHAUSTIVE_SPECS)
def test_packed_explore_matches_replay_engine(spec_name):
    spec = get_spec(spec_name)
    rounds = spec.rounds(N)
    packed = explore(spec=spec_name, n=N, rounds=rounds)
    replayed = explore(spec=spec_name, n=N, rounds=rounds, engine="replay")
    _assert_same_outcome(packed, replayed)


@pytest.mark.parametrize("spec_name", EXHAUSTIVE_SPECS)
def test_packed_symmetry_matches_set_engine(spec_name):
    spec = get_spec(spec_name)
    if spec.symmetry == "none":
        pytest.skip("spec declares no symmetry grade")
    rounds = spec.rounds(N)
    fast = explore(spec=spec_name, n=N, rounds=rounds, symmetry=True)
    reference = explore(
        spec=bridged_spec(spec), n=N, rounds=rounds, symmetry=True
    )
    assert fast.symmetry == reference.symmetry
    assert fast.skipped_symmetric == reference.skipped_symmetric
    _assert_same_outcome(fast, reference)


@pytest.mark.parametrize("spec_name", EXHAUSTIVE_SPECS)
def test_engine_yields_identical_history_sequences(spec_name):
    """Leaf-level check: the DFS yield *order* matches, not just the set."""
    spec = get_spec(spec_name)
    rounds = spec.rounds(N)
    fast_leaves, fast_stats = _leaves(spec, rounds)
    bridged_leaves, bridged_stats = _leaves(bridged_spec(spec), rounds)
    replay_leaves = list(
        iter_admissible_histories(spec.predicate(N), rounds)
    )
    assert fast_leaves == replay_leaves
    assert bridged_leaves == replay_leaves
    assert fast_stats.rounds_executed == bridged_stats.rounds_executed
    assert fast_stats.memo_hits_packed + fast_stats.memo_misses_packed > 0


def test_violating_runs_are_identical_across_paths():
    """A weakened model *must* produce violations; all engines agree on them."""
    weak = get_spec("kset").weakened(
        lambda n: CrashSync(n, n - 1), suffix="bitset-diff"
    )
    rounds = weak.rounds(N)
    packed = explore(spec=weak, n=N, rounds=rounds)
    reference = explore(spec=bridged_spec(weak), n=N, rounds=rounds)
    replayed = explore(spec=weak, n=N, rounds=rounds, engine="replay")
    assert packed.violations, "weakened spec found no violations"
    _assert_same_outcome(packed, reference)
    _assert_same_outcome(packed, replayed)


def test_prune_decided_matches_set_engine():
    packed = explore(spec="kset", n=N, rounds=2, prune_decided=True)
    reference = explore(
        spec=bridged_spec(get_spec("kset")), n=N, rounds=2, prune_decided=True
    )
    _assert_same_outcome(packed, reference)


# ---------------------------------------------------------------------------
# every catalog predicate class, bridged, against replay

CATALOG = {
    "SendOmissionSync": lambda n: SendOmissionSync(n, 1),
    "CrashSync": lambda n: CrashSync(n, 1),
    "AsyncMessagePassing": lambda n: AsyncMessagePassing(n, 1),
    "MixedResilience": lambda n: MixedResilience(n, 2, 1),
    "SharedMemorySWMR": lambda n: SharedMemorySWMR(n, 1),
    "SharedMemoryAntisymmetric": lambda n: SharedMemoryAntisymmetric(n, 1),
    "AtomicSnapshot": lambda n: AtomicSnapshot(n, 1),
    "EventuallyStrong": lambda n: EventuallyStrong(n),
    "KSetDetector": lambda n: KSetDetector(n, 2),
    "SemiSyncEquality": lambda n: SemiSyncEquality(n),
    "Unconstrained": lambda n: Unconstrained(n),
    "Conjunction": lambda n: Conjunction(
        AsyncMessagePassing(n, 1), KSetDetector(n, 2)
    ),
}

# Consensus under these models violates agreement on most histories, so
# the violation lists (order included) carry real weight; max_d_size=1
# keeps the replay side of Unconstrained affordable.
CATALOG_BASE = "consensus"
CATALOG_ROUNDS = 2
CATALOG_MAX_D = 1


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_bridged_catalog_predicate_matches_replay(name):
    make = CATALOG[name]
    base = get_spec(CATALOG_BASE)
    fast_spec = base.weakened(make, suffix=f"fast-{name}")
    spec = base.weakened(lambda n: bridged(make(n)), suffix=f"bridged-{name}")
    kwargs = dict(n=N, rounds=CATALOG_ROUNDS, max_d_size=CATALOG_MAX_D)
    engine = explore(spec, **kwargs)
    replayed = explore(spec, engine="replay", **kwargs)
    assert engine.engine == "incremental" and engine.histories > 0
    _assert_same_outcome(engine, replayed)
    leaves, _ = _leaves(spec, CATALOG_ROUNDS, max_d_size=CATALOG_MAX_D)
    assert leaves == list(
        iter_admissible_histories(
            spec.predicate(N), CATALOG_ROUNDS, max_d_size=CATALOG_MAX_D
        )
    )
    # Symmetry on: the bridge cuts exactly the orbits the fast kernel cuts.
    reduced = explore(spec, symmetry=True, **kwargs)
    fast_reduced = explore(fast_spec, symmetry=True, **kwargs)
    assert reduced.symmetry == fast_reduced.symmetry
    assert reduced.skipped_symmetric == fast_reduced.skipped_symmetric
    _assert_same_outcome(reduced, fast_reduced)


def test_bridged_predicate_with_overridden_allows_matches_replay():
    """A subclass that *changes* semantics runs on its own set semantics."""

    class AtMostOneSuspected(KSetDetector):
        def _allows(self, history):
            return super()._allows(history) and all(
                sum(1 for d in d_round if d) <= 1 for d_round in history
            )

    spec = get_spec("kset").weakened(
        lambda n: AtMostOneSuspected(n, 2), suffix="allows-override"
    )
    assert not spec.predicate(N).packed().fast
    engine = explore(spec, n=N, rounds=2)
    replayed = explore(spec, n=N, rounds=2, engine="replay")
    assert engine.histories < explore("kset", n=N, rounds=2).histories
    _assert_same_outcome(engine, replayed)


# ---------------------------------------------------------------------------
# the transposition table against brute-force canonicalization


def _brute_canonical(inputs, mode, history):
    """min over all n! permutations π of the serialization of π·(inputs, h)."""
    n = len(inputs)
    best = None
    for perm in itertools.permutations(range(n)):
        image = [None] * n
        for i, value in enumerate(inputs):
            image[perm[i]] = value
        if mode == "labels":
            relabel = {}
            for value in image:
                relabel.setdefault(value, len(relabel))
            image = [relabel[v] for v in image]
        rounds = []
        for d_round in history:
            moved = [None] * n
            for i, suspected in enumerate(d_round):
                moved[perm[i]] = tuple(sorted(perm[x] for x in suspected))
            rounds.append(tuple(moved))
        key = (tuple(image),) + tuple(rounds)
        if best is None or key < best:
            best = key
    return best


@pytest.mark.parametrize("mode", ["exact", "labels"])
@pytest.mark.parametrize("inputs", [(0, 0, 1), (0, 1, 2), (1, 1, 1)])
def test_symmetry_claims_match_brute_force(mode, inputs):
    dom = domain(N)
    table = _PackedSymmetryTable(inputs, mode, dom)
    seen = set()
    claims = skips = 0
    for depth in (1, 2):
        for history in iter_admissible_histories(KSetDetector(N, 2), depth):
            key = _brute_canonical(inputs, mode, history)
            expected = key not in seen
            seen.add(key)
            assert table.claim(dom.pack_history(history)) == expected, history
            claims += expected
            skips += not expected
    assert claims
    # Distinct inputs have a trivial literal stabilizer: exact mode cuts
    # nothing there; every other case must exercise both decisions.
    assert skips or (mode == "exact" and len(set(inputs)) == N)
