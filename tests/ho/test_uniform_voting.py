"""UniformVoting under HOUniformVoting: the registered HO conformance spec.

The registry-wide differential suites (``tests/check``) already run
``ho-uniform-voting`` through every engine; here we pin the spec's
semantic content: the protocol's phase mechanics, the exhaustive-certified
history count, and — the sanity harness — that *weakening* the predicate
breaks the protocol, i.e. agreement/termination really do come from the
communication predicate and not from the code.
"""

from __future__ import annotations

import pytest

from repro.check.explore import explore, fuzz
from repro.check.spec import get_spec
from repro.ho.model import HONonEmpty, HOUniformVoting
from repro.ho.protocol import uniform_voting_protocol

N = 3


class TestProtocolMechanics:
    def _run(self, inputs, history):
        return get_spec("ho-uniform-voting").run(inputs, history)

    def test_unanimous_values_decide_in_one_phase(self):
        empty = tuple(frozenset() for _ in range(N))
        trace = self._run((1, 1, 1), (empty, empty))
        assert list(trace.decisions) == [1, 1, 1]

    def test_distinct_values_converge_then_decide_in_phase_two(self):
        # Phase 1 spreads the minimum (no unanimity → no votes); phase 2
        # starts from identical x and decides it.
        empty = tuple(frozenset() for _ in range(N))
        trace = self._run((2, 0, 1), (empty,) * 4)
        assert list(trace.decisions) == [0, 0, 0]

    def test_uniform_but_partial_hearing_still_decides(self):
        # Everyone misses process 0 in every round (f=1, uniform): the
        # decided value is the minimum among the *heard* processes.
        miss0 = tuple(frozenset({0}) for _ in range(N))
        trace = self._run((0, 1, 2), (miss0,) * 4)
        assert set(trace.decisions) == {1}

    def test_protocol_factory_name(self):
        assert uniform_voting_protocol().name == "uniform-voting"


class TestSpecCertification:
    def test_exhaustive_history_count_is_pinned(self):
        # odd rounds: 4 uniform families with |D| ≤ 1; even rounds: 22
        # families with |⋃D| ≤ 1 — so 4·22·4·22 histories at n=3, r=4.
        result = explore("ho-uniform-voting", n=N)
        assert result.ok
        assert result.histories == (4 * 22) ** 2

    @pytest.mark.parametrize("fast", [True, False])
    def test_exhaustive_in_both_engine_modes(self, fast):
        """The fast suspicion kernel and the bridge certify the same space."""
        spec = get_spec("ho-uniform-voting")
        if not fast:
            class BridgedVoting(HOUniformVoting):  # exact-type guard
                pass

            spec = spec.weakened(
                lambda n: BridgedVoting(n, f=1).suspicion(), suffix="bridged"
            )
        assert spec.predicate(N).packed().fast == fast
        result = explore(spec, n=N)
        assert result.ok
        assert result.histories == (4 * 22) ** 2

    def test_weakened_predicate_breaks_the_protocol(self):
        """Sanity harness: under bare HO-nonemptiness (no uniformity) the
        protocol must fail — otherwise the spec proves nothing about the
        predicate."""
        spec = get_spec("ho-uniform-voting")
        weakened = spec.weakened(
            lambda n: HONonEmpty(n).suspicion(), suffix="nonempty"
        )
        result = fuzz(weakened, 150, n=N, seed=3)
        assert not result.ok
        violated = {
            failure.invariant
            for violation in result.violations
            for failure in violation.failures
        }
        assert violated & {"agreement", "termination"}

    def test_predicate_rejects_split_odd_rounds(self):
        predicate = HOUniformVoting(N, 1)
        split = (
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1})),
        )
        assert not predicate.allows(split)
        uniform = (tuple(frozenset({1, 2}) for _ in range(N)),)
        assert predicate.allows(uniform)
