"""Differential certification of the HO↔RRFD bridge and the packed HO path.

Three oracles are compared pairwise, mirroring
``tests/core/test_packed_predicates.py``:

- the **set bridge** (``to_suspicion``/``from_suspicion``) must round-trip
  bit-exactly, in set and packed form, on every admissible history;
- every catalog predicate's **suspicion kernel** (the
  ``FastPackedPredicate`` the exploration engine runs on) must agree with
  the set-based ``PackedPredicate`` oracle on membership, enumeration
  order and history judgement over all ``(2^3)^3 = 512`` rounds at n=3;
- **packed HO rounds**, complemented with one XOR per round and judged by
  the suspicion kernel, must agree with the HO predicate's own set
  methods on the same sweep.

Subclassing any catalog class with changed semantics must drop the
suspicion view back to the bridge (the exact-type-guard rule).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.strategies import admissible_histories, ho_collections
from repro.core.predicate import PackedPredicate
from repro.ho.derive import derive
from repro.ho.model import (
    HOAtLeast,
    HOGlobalKernel,
    HOHearAll,
    HOMustHear,
    HONonEmpty,
    HONoSplit,
    HOUniform,
    HOUniformVoting,
    from_suspicion,
    get_ho_predicate,
    ho_predicate_names,
    to_suspicion,
)
from repro.service.loadgen import named_plan
from repro.substrates.messaging.chaos import FaultPlan
from repro.util.bitset import domain

N = 3

CATALOG = [get_ho_predicate(name, N) for name in ho_predicate_names()] + [
    derive(FaultPlan(), N),  # clean plan → hear-all obligation
    derive(named_plan("partition", N), N),  # split rows → asymmetric obligation
]

IDS = [p.describe()[:40] for p in CATALOG]


def _ho_prefixes(predicate, rounds: int = 2, samples: int = 3):
    """Admissible packed HO prefixes drawn with the model's own sampler."""
    dom = domain(predicate.n)
    out = [()]
    for seed in range(samples):
        rng = random.Random(seed)
        collection = ()
        for _ in range(rounds):
            collection = collection + (
                predicate.sample_round(rng, collection),
            )
            out.append(dom.pack_history(collection))
    return out


# ---------------------------------------------------------------------------
# the bridge round-trips bit-exactly


@pytest.mark.parametrize("predicate", CATALOG, ids=IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bridge_roundtrip_on_admissible_suspicion_histories(predicate, data):
    history = data.draw(admissible_histories(predicate.suspicion()))
    assert to_suspicion(from_suspicion(history, N), N) == history


@pytest.mark.parametrize("predicate", CATALOG, ids=IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bridge_roundtrip_on_admissible_ho_collections(predicate, data):
    collection = data.draw(ho_collections(predicate))
    assert from_suspicion(to_suspicion(collection, N), N) == collection
    # The HO framework rule maps onto the RRFD one and back.
    assert predicate.allows(collection)
    assert predicate.suspicion().allows(to_suspicion(collection, N))


def test_packed_bridge_is_the_same_complement():
    dom = domain(N)
    for rint in range(1 << (N * N)):
        sets = dom.unpack_round(rint)
        assert dom.complement_round(rint) == dom.pack_round(
            from_suspicion((sets,), N)[0]
        )
        assert dom.complement_round(dom.complement_round(rint)) == rint


# ---------------------------------------------------------------------------
# suspicion kernels vs the set oracle (the engine's fast path)


@pytest.mark.parametrize("predicate", CATALOG, ids=IDS)
def test_catalog_suspicion_kernel_is_fast(predicate):
    assert predicate.suspicion().packed().fast, (
        f"{predicate.name} should ship a fast suspicion kernel"
    )


@pytest.mark.parametrize("predicate", CATALOG, ids=IDS)
def test_suspicion_membership_matches_set_oracle(predicate):
    view = predicate.suspicion()
    fast = view.packed()
    oracle = PackedPredicate(view)
    space = 1 << (N * N)
    dom = domain(N)
    for ph in (
        tuple(dom.complement_round(r) for r in p) for p in _ho_prefixes(predicate)
    ):
        expected = [
            rint for rint in range(space) if oracle.allows_extension(ph, rint)
        ]
        got = [rint for rint in range(space) if fast.allows_extension(ph, rint)]
        assert got == expected, f"membership diverges after {ph!r}"


@pytest.mark.parametrize("predicate", CATALOG, ids=IDS)
@pytest.mark.parametrize("max_d_size", [None, 1])
def test_suspicion_enumeration_matches_oracle_order(predicate, max_d_size):
    view = predicate.suspicion()
    fast = view.packed()
    oracle = PackedPredicate(view)
    dom = domain(N)
    for ph in (
        tuple(dom.complement_round(r) for r in p) for p in _ho_prefixes(predicate)
    ):
        expected = oracle.admissible_round_ints(ph, max_d_size=max_d_size)
        got = fast.admissible_round_ints(ph, max_d_size=max_d_size)
        assert got == expected, (
            f"enumeration diverges after {ph!r} (max_d_size={max_d_size})"
        )
        state = fast.extension_state(ph)
        assert fast.admissible_round_ints(
            (), max_d_size=max_d_size, state=state
        ) == expected


# ---------------------------------------------------------------------------
# packed HO rounds (complement + suspicion kernel) vs the HO set oracle


@pytest.mark.parametrize("predicate", CATALOG, ids=IDS)
def test_ho_packed_membership_matches_bridged_oracle(predicate):
    kernel = predicate.suspicion().packed()
    dom = domain(N)
    flip = dom.complement_round
    space = 1 << (N * N)
    for ph in _ho_prefixes(predicate):
        collection = dom.unpack_history(ph)
        d_prefix = tuple(flip(r) for r in ph)
        for rint in range(space):
            assert kernel.allows_extension(d_prefix, flip(rint)) == (
                predicate.allows_extension(collection, dom.unpack_round(rint))
            ), f"HO membership diverges after {ph!r} on round {rint}"


@pytest.mark.parametrize("predicate", CATALOG, ids=IDS)
def test_ho_packed_history_judgement_matches_bridged_oracle(predicate):
    kernel = predicate.suspicion().packed()
    dom = domain(N)
    rng = random.Random(7)
    for ph in _ho_prefixes(predicate):
        d_prefix = tuple(dom.complement_round(r) for r in ph)
        assert kernel.allows_history(d_prefix)
        assert predicate.allows(dom.unpack_history(ph))
        tail = rng.randrange(1 << (N * N))
        extended = ph + (tail,)
        assert kernel.allows_history(
            d_prefix + (dom.complement_round(tail),)
        ) == predicate.allows(dom.unpack_history(extended))


# ---------------------------------------------------------------------------
# subclasses with changed semantics fall back to the bridge


@pytest.mark.parametrize(
    "cls,args",
    [
        (HONonEmpty, (N,)),
        (HOAtLeast, (N, 2)),
        (HOHearAll, (N,)),
        (HONoSplit, (N,)),
        (HOGlobalKernel, (N,)),
        (HOUniform, (N,)),
        (HOUniformVoting, (N, 1)),
        (HOMustHear, (N, (frozenset({0}), frozenset({1}), frozenset({2})))),
    ],
)
def test_every_catalog_class_guards_on_exact_type(cls, args):
    class Subclass(cls):
        pass

    predicate = Subclass(*args)
    assert predicate._suspicion_kernel(predicate.suspicion()) is None
    packed = predicate.suspicion().packed()
    assert not packed.fast, (
        f"{cls.__name__} subclass must fall back to the bridged oracle"
    )
    assert type(packed) is PackedPredicate


def test_subclassed_suspicion_view_falls_back_too():
    class CustomView(type(HONonEmpty(N).suspicion())):
        pass

    view = CustomView(HONonEmpty(N))
    assert not view.packed().fast
