"""The Heard-Of model as a first-class sibling of the RRFD predicate catalog.

In the Heard-Of (HO) model of Charron-Bost and Schiper a communication-closed
round assigns each process ``i`` the set ``HO(i, r)`` of processes it *heard
from* in round ``r``; a communication predicate constrains the whole HO
collection.  The RRFD view of the same round is the suspicion set
``D(i, r)`` — the processes ``i`` was told not to wait for — and under the
coverage guarantee ``S(i,r) ∪ D(i,r) = S`` the two are complements at fixed
``n``::

    HO(i, r) = S − D(i, r)          D(i, r) = S − HO(i, r)

:func:`to_suspicion` / :func:`from_suspicion` implement that bridge
losslessly (it is an involution, property-tested in ``tests/ho``), and the
framework rules translate into each other: the RRFD rule ``D(i, r) ≠ S``
(not everyone can be late) is exactly the HO rule ``HO(i, r) ≠ ∅`` (every
process hears someone, if only itself).

:class:`HOPredicate` mirrors :class:`repro.core.predicate.Predicate` clause
for clause — membership, prefix extension, hashable extension state,
constructive sampling — and every HO predicate exposes a
:meth:`HOPredicate.suspicion` view: a genuine RRFD
:class:`~repro.core.predicate.Predicate` whose admissible D-histories are
the complements of the admissible HO collections.  The suspicion views of
the catalog classes below carry :class:`~repro.core.predicate.FastPackedPredicate`
kernels, so HO exploration (``ConformanceSpec.predicate = lambda n:
ho(n).suspicion()``) rides the packed engine's bit-op kernels unchanged.
Packed HO rounds convert to packed D-rounds with one XOR per round
(:meth:`BitsetDomain.complement_round`).

Like the RRFD catalog, every kernel override guards on exact type:
subclasses with changed semantics fall back to the bridged set semantics
automatically (regression-tested in ``tests/ho/test_bridge_differential.py``).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.core.predicate import FastPackedPredicate, PackedPredicate, Predicate
from repro.core.types import DHistory, DRound, PackedDRound, ProcessId
from repro.util.bitset import domain as bitset_domain
from repro.util.sets import random_subset

__all__ = [
    "HORound",
    "HOHistory",
    "to_suspicion",
    "from_suspicion",
    "HOPredicate",
    "HOSuspicionView",
    "HOConjunction",
    "HONonEmpty",
    "HOAtLeast",
    "HOHearAll",
    "HONoSplit",
    "HOGlobalKernel",
    "HOUniform",
    "HOUniformVoting",
    "HOMustHear",
    "HO_CATALOG",
    "get_ho_predicate",
    "ho_predicate_names",
]

# One round of heard-of sets: HO[i] is the set process i heard from.
HORound = tuple[frozenset[ProcessId], ...]
# Heard-of collections across rounds: history[r-1] is the HORound of round r.
HOHistory = tuple[HORound, ...]


# ---------------------------------------------------------------------------
# the HO ↔ RRFD bridge


def _complement_round(sets: tuple[frozenset[ProcessId], ...], n: int) -> tuple[frozenset[ProcessId], ...]:
    dom = bitset_domain(n)
    return dom.unpack_round(dom.complement_round(dom.pack_round(sets)))


def to_suspicion(ho_history: HOHistory, n: int) -> DHistory:
    """The RRFD suspicion history of an HO collection: ``D = S − HO``."""
    return tuple(_complement_round(ho_round, n) for ho_round in ho_history)


def from_suspicion(d_history: DHistory, n: int) -> HOHistory:
    """The HO collection of a suspicion history: ``HO = S − D``.

    Inverse of :func:`to_suspicion`; the composition either way is the
    identity (complementation at fixed ``n`` is an involution).
    """
    return tuple(_complement_round(d_round, n) for d_round in d_history)


# ---------------------------------------------------------------------------
# the predicate hierarchy


class HOPredicate(ABC):
    """A communication predicate over finite HO collections.

    The structural mirror of :class:`repro.core.predicate.Predicate`: the
    framework-level rule here is ``HO(i, r) ≠ ∅`` (the complement of
    ``D(i, r) ≠ S``), enforced by :meth:`allows` for every model, and the
    ``is_symmetric`` flag makes the same claim about invariance under
    process permutations.
    """

    #: True iff the predicate is invariant under process permutations.
    is_symmetric: bool = False

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self.everyone = frozenset(range(n))

    # ------------------------------------------------------------------ API

    def allows(self, ho_history: HOHistory) -> bool:
        """Whether the whole collection satisfies this predicate.

        Beyond the model-specific condition (:meth:`_allows`), every HO
        system forbids ``HO(i, r) = ∅``: a process always hears at least
        itself, the dual of the RRFD rule that not everyone can be late.
        """
        for ho_round in ho_history:
            self._validate_round(ho_round)
            if any(not heard for heard in ho_round):
                return False
        return self._allows(ho_history)

    @abstractmethod
    def _allows(self, ho_history: HOHistory) -> bool:
        """The model-specific condition; inputs are already shape-checked."""

    def allows_extension(self, ho_history: HOHistory, new_round: HORound) -> bool:
        """Whether ``ho_history + (new_round,)`` still satisfies the predicate."""
        return self.allows(ho_history + (new_round,))

    def extension_state(self, ho_history: HOHistory) -> object:
        """Hashable summary through which ``allows_extension`` sees history.

        Same contract as :meth:`repro.core.predicate.Predicate.extension_state`:
        for admissible collections, extension verdicts must be a function of
        ``(state, new_round)`` alone.
        """
        return ho_history

    @abstractmethod
    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        """Draw a random next HO round consistent with ``ho_history``.

        Must always return a round such that ``allows_extension`` holds.
        """

    def suspicion(self) -> "HOSuspicionView":
        """This predicate as an RRFD :class:`Predicate` over D-histories.

        ``view.allows(h) == self.allows(from_suspicion(h, n))`` — the lens
        through which the conformance kit (specs, explore, shrink, the
        packed engine) runs HO models without knowing about them.
        """
        return HOSuspicionView(self)

    def _suspicion_kernel(self, view: "HOSuspicionView") -> PackedPredicate | None:
        """Fast packed kernel for the suspicion view, or ``None`` (bridge).

        Catalog overrides must guard on exact type, so subclasses with
        changed semantics fall back to the bridged set semantics.
        """
        return None

    @property
    def name(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        """Human-readable statement of the guarantee (HO notation)."""
        return self.name

    # -------------------------------------------------------------- helpers

    def _validate_round(self, ho_round: HORound) -> None:
        if len(ho_round) != self.n:
            raise ValueError(
                f"round has {len(ho_round)} heard-of sets, expected n={self.n}"
            )
        for pid, heard in enumerate(ho_round):
            if not heard <= self.everyone:
                raise ValueError(
                    f"HO({pid}) = {sorted(heard)} contains ids outside S"
                )

    def __and__(self, other: "HOPredicate") -> "HOConjunction":
        return HOConjunction(self, other)

    def __repr__(self) -> str:
        return f"{self.name}(n={self.n})"


class HOSuspicionView(Predicate):
    """An HO predicate seen through the complement bridge, as an RRFD model.

    This is a real :class:`~repro.core.predicate.Predicate` — conformance
    specs, ``explore()``, ``shrink()`` and the submodel checker all accept
    it directly.  Both framework rules coincide under complementation
    (``D ≠ S`` ⇔ ``HO ≠ ∅``), so the two ``allows`` agree exactly on the
    bridged histories.
    """

    def __init__(self, ho: HOPredicate) -> None:
        super().__init__(ho.n)
        self.ho = ho
        self.is_symmetric = ho.is_symmetric

    def _allows(self, history: DHistory) -> bool:
        return self.ho._allows(from_suspicion(history, self.n))

    def allows_extension(self, history: DHistory, new_round: DRound) -> bool:
        return self.ho.allows_extension(
            from_suspicion(history, self.n),
            _complement_round(new_round, self.n),
        )

    def extension_state(self, history: DHistory) -> object:
        return self.ho.extension_state(from_suspicion(history, self.n))

    def sample_round(self, rng: random.Random, history: DHistory) -> DRound:
        ho_round = self.ho.sample_round(rng, from_suspicion(history, self.n))
        return _complement_round(ho_round, self.n)

    def packed(self) -> PackedPredicate:
        if type(self) is not HOSuspicionView:
            return Predicate.packed(self)
        kernel = self.ho._suspicion_kernel(self)
        return kernel if kernel is not None else PackedPredicate(self)

    @property
    def name(self) -> str:
        return f"Suspicion[{self.ho.name}]"

    def describe(self) -> str:
        return f"D-view of {self.ho.describe()}"


class HOConjunction(HOPredicate):
    """Conjunction of HO predicates over the same process set.

    Sampling draws from the first conjunct and rejects against the rest
    (mirror of :class:`repro.core.predicate.Conjunction`).
    """

    def __init__(self, *parts: HOPredicate, max_attempts: int = 10_000) -> None:
        if not parts:
            raise ValueError("HOConjunction needs at least one predicate")
        ns = {p.n for p in parts}
        if len(ns) != 1:
            raise ValueError(f"conjuncts disagree on n: {sorted(ns)}")
        super().__init__(parts[0].n)
        self.parts = parts
        self.max_attempts = max_attempts
        self.is_symmetric = all(part.is_symmetric for part in parts)

    def _allows(self, ho_history: HOHistory) -> bool:
        return all(part.allows(ho_history) for part in self.parts)

    def extension_state(self, ho_history: HOHistory) -> object:
        return tuple(part.extension_state(ho_history) for part in self.parts)

    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        for _ in range(self.max_attempts):
            candidate = self.parts[0].sample_round(rng, ho_history)
            if all(
                part.allows_extension(ho_history, candidate)
                for part in self.parts[1:]
            ):
                return candidate
        raise RuntimeError(
            f"could not sample a round satisfying {self.describe()} after "
            f"{self.max_attempts} attempts"
        )

    def describe(self) -> str:
        return " ∧ ".join(part.describe() for part in self.parts)


# ---------------------------------------------------------------------------
# the catalog


def _nonempty_subset(
    everyone: frozenset[ProcessId], rng: random.Random, *, min_size: int = 1
) -> frozenset[ProcessId]:
    """A uniform-ish random subset of size ≥ ``min_size`` (≥ 1)."""
    size = rng.randint(max(1, min_size), len(everyone))
    return frozenset(rng.sample(sorted(everyone), size))


class HONonEmpty(HOPredicate):
    """The top of the HO lattice: only the framework rule ``HO(i, r) ≠ ∅``.

    The complement of :class:`repro.core.predicate.Unconstrained` — its
    suspicion view admits exactly the unconstrained D-histories.
    """

    is_symmetric = True

    def _allows(self, ho_history: HOHistory) -> bool:
        return True

    def extension_state(self, ho_history: HOHistory) -> object:
        return ()

    def describe(self) -> str:
        return "HONonEmpty: HO(i,r) ≠ ∅"

    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        return tuple(
            _nonempty_subset(self.everyone, rng) for _ in range(self.n)
        )

    def _suspicion_kernel(self, view: HOSuspicionView) -> PackedPredicate | None:
        if type(self) is not HONonEmpty:
            return None
        # FastPackedPredicate's defaults are exactly the framework rule
        # (the n−1 size bound on D = the nonemptiness of HO).
        return FastPackedPredicate(view)


class HOAtLeast(HOPredicate):
    """Minimum audibility: every process hears at least ``m`` others.

    ``∀ r, i: |HO(i, r)| ≥ m`` ⇔ ``|D(i, r)| ≤ n − m`` — the HO face of the
    asynchronous ``n − f`` wait rule.
    """

    is_symmetric = True

    def __init__(self, n: int, m: int) -> None:
        super().__init__(n)
        if not 1 <= m <= n:
            raise ValueError(f"need 1 ≤ m ≤ n, got m={m}")
        self.m = m

    def _allows(self, ho_history: HOHistory) -> bool:
        return all(
            len(heard) >= self.m
            for ho_round in ho_history
            for heard in ho_round
        )

    def extension_state(self, ho_history: HOHistory) -> object:
        return ()

    def describe(self) -> str:
        return f"HOAtLeast(m={self.m}): |HO(i,r)| ≥ {self.m}"

    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        return tuple(
            _nonempty_subset(self.everyone, rng, min_size=self.m)
            for _ in range(self.n)
        )

    def _suspicion_kernel(self, view: HOSuspicionView) -> PackedPredicate | None:
        if type(self) is not HOAtLeast:
            return None
        return _AtLeastKernel(view, self.n - self.m)


class _AtLeastKernel(FastPackedPredicate):
    """``|D(i,r)| ≤ n − m``, per round, as a mask-table size cap."""

    def __init__(self, view: HOSuspicionView, bound: int) -> None:
        super().__init__(view)
        self.bound = min(bound, self.n - 1)

    def size_bound(self, state: object) -> int:
        return self.bound


class HOHearAll(HOAtLeast):
    """Lock-step synchrony: ``HO(i, r) = S`` always (``D(i, r) = ∅``).

    The ``m = n`` face of :class:`HOAtLeast`, named because it is the
    canonical target of equivalence certificates — e.g. the predicate
    derived from a fault-free :class:`~repro.substrates.messaging.chaos.FaultPlan`
    is provably equivalent to it (``python -m repro ho --certify``).
    """

    def __init__(self, n: int) -> None:
        super().__init__(n, n)

    def describe(self) -> str:
        return "HOHearAll: HO(i,r) = S"

    def _suspicion_kernel(self, view: HOSuspicionView) -> PackedPredicate | None:
        if type(self) is not HOHearAll:
            return None
        return _AtLeastKernel(view, 0)


class HONoSplit(HOPredicate):
    """No split rounds: every two heard-of sets intersect.

    ``∀ r, i, j: HO(i, r) ∩ HO(j, r) ≠ ∅`` ⇔ ``D(i, r) ∪ D(j, r) ≠ S`` —
    the safety predicate of UniformVoting-style consensus (no round can
    partition the processes into mutually deaf camps).
    """

    is_symmetric = True

    def _allows(self, ho_history: HOHistory) -> bool:
        for ho_round in ho_history:
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    if not ho_round[i] & ho_round[j]:
                        return False
        return True

    def extension_state(self, ho_history: HOHistory) -> object:
        return ()

    def describe(self) -> str:
        return "HONoSplit: HO(i,r) ∩ HO(j,r) ≠ ∅"

    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        # A shared pivot guarantees pairwise intersection constructively.
        pivot = rng.randrange(self.n)
        return tuple(
            frozenset({pivot}) | random_subset(self.everyone, rng)
            for _ in range(self.n)
        )

    def _suspicion_kernel(self, view: HOSuspicionView) -> PackedPredicate | None:
        if type(self) is not HONoSplit:
            return None
        return _NoSplitKernel(view)


class _NoSplitKernel(FastPackedPredicate):
    """``D(i) ∪ D(j) ≠ S`` pairwise, checked incrementally during the walk."""

    def push(self, state, aux, pid, mask, masks):
        full = self.domain.full
        for prev in range(pid):
            if masks[prev] | mask == full:
                return None
        return aux


class HOGlobalKernel(HOPredicate):
    """A global kernel each round: someone is heard by everyone.

    ``∀ r: ⋂_i HO(i, r) ≠ ∅`` ⇔ ``⋃_i D(i, r) ≠ S``.  Strictly stronger
    than :class:`HONoSplit` for ``n ≥ 3`` (pairwise intersection does not
    imply a common element — the separation witness ``HO =
    ({0,1}, {1,2}, {0,2})`` is this repo's canonical golden artifact) and
    equivalent to it at ``n = 2``; both facts are machine-checked by
    :mod:`repro.ho.certify`.
    """

    is_symmetric = True

    def _allows(self, ho_history: HOHistory) -> bool:
        for ho_round in ho_history:
            kernel = ho_round[0]
            for heard in ho_round[1:]:
                kernel &= heard
            if not kernel:
                return False
        return True

    def extension_state(self, ho_history: HOHistory) -> object:
        return ()

    def describe(self) -> str:
        return "HOGlobalKernel: ⋂ᵢHO(i,r) ≠ ∅"

    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        pivot = rng.randrange(self.n)
        return tuple(
            frozenset({pivot}) | random_subset(self.everyone, rng)
            for _ in range(self.n)
        )

    def _suspicion_kernel(self, view: HOSuspicionView) -> PackedPredicate | None:
        if type(self) is not HOGlobalKernel:
            return None
        return _GlobalKernelKernel(view)


class _GlobalKernelKernel(FastPackedPredicate):
    """``⋃D ≠ S``: thread the running union, prune the moment it saturates."""

    def begin(self, state: object) -> int:
        return 0

    def push(self, state, aux, pid, mask, masks):
        union = aux | mask
        if union == self.domain.full:
            return None
        return union


class HOUniform(HOPredicate):
    """Uniform rounds: everyone hears exactly the same set.

    ``∀ r, i, j: HO(i, r) = HO(j, r)`` ⇔ ``D(i, r) = D(j, r)`` — the HO
    face of :class:`repro.core.predicates.SemiSyncEquality`.
    """

    is_symmetric = True

    def _allows(self, ho_history: HOHistory) -> bool:
        return all(
            all(heard == ho_round[0] for heard in ho_round[1:])
            for ho_round in ho_history
        )

    def extension_state(self, ho_history: HOHistory) -> object:
        return ()

    def describe(self) -> str:
        return "HOUniform: HO(i,r) = HO(j,r)"

    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        common = _nonempty_subset(self.everyone, rng)
        return tuple(common for _ in range(self.n))

    def _suspicion_kernel(self, view: HOSuspicionView) -> PackedPredicate | None:
        if type(self) is not HOUniform:
            return None
        return _UniformKernel(view)


class _UniformKernel(FastPackedPredicate):
    """All masks equal: every later mask must match the first."""

    def push(self, state, aux, pid, mask, masks):
        if pid and mask != masks[0]:
            return None
        return aux


class HOUniformVoting(HOPredicate):
    """The phased predicate UniformVoting terminates under, with ≤ f faults.

    Rounds alternate phases (1-based round ``r``):

    - **odd rounds** (value exchange): uniform with at most ``f`` unheard —
      ``HO(i, r) = HO(j, r)`` and ``|S − HO(i, r)| ≤ f``;
    - **even rounds** (vote exchange): at most ``f`` processes are unheard
      by *anyone* — ``|⋃_i (S − HO(i, r))| ≤ f``.

    The odd-round uniformity forces every process through identical state
    transitions, so UniformVoting decides within two phases; the even-round
    clause is the ≤ f-crash shape of the vote exchange.  Dropping either
    clause (``HOPredicate`` weakening) breaks termination or agreement —
    the conformance kit's sanity harness exercises exactly that.
    """

    is_symmetric = True

    def __init__(self, n: int, f: int = 1) -> None:
        super().__init__(n)
        if not 0 <= f < n:
            raise ValueError(f"need 0 ≤ f < n, got f={f}")
        self.f = f

    def _round_ok(self, ho_round: HORound, index: int) -> bool:
        everyone = self.everyone
        if index % 2 == 0:  # odd round (1-based): uniform, ≤ f unheard
            first = ho_round[0]
            if len(everyone - first) > self.f:
                return False
            return all(heard == first for heard in ho_round[1:])
        unheard: frozenset[ProcessId] = frozenset()
        for heard in ho_round:
            unheard |= everyone - heard
        return len(unheard) <= self.f

    def _allows(self, ho_history: HOHistory) -> bool:
        return all(
            self._round_ok(ho_round, index)
            for index, ho_round in enumerate(ho_history)
        )

    def allows_extension(self, ho_history: HOHistory, new_round: HORound) -> bool:
        self._validate_round(new_round)
        if any(not heard for heard in new_round):
            return False
        return self._round_ok(new_round, len(ho_history))

    def extension_state(self, ho_history: HOHistory) -> object:
        # Phase parity is all an extension verdict depends on.
        return len(ho_history) % 2

    def describe(self) -> str:
        return (
            f"HOUniformVoting(f={self.f}): odd rounds uniform with "
            f"|S−HO| ≤ {self.f}, even rounds |⋃(S−HO)| ≤ {self.f}"
        )

    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        everyone = self.everyone
        if len(ho_history) % 2 == 0:  # next round is odd: uniform
            missing = random_subset(everyone, rng, max_size=self.f)
            common = everyone - missing
            return tuple(common for _ in range(self.n))
        pool = random_subset(everyone, rng, max_size=self.f)
        return tuple(
            everyone - random_subset(pool, rng) for _ in range(self.n)
        )

    def _suspicion_kernel(self, view: HOSuspicionView) -> PackedPredicate | None:
        if type(self) is not HOUniformVoting:
            return None
        return _UniformVotingKernel(view, self.f)


class _UniformVotingKernel(FastPackedPredicate):
    """Phase-parity state: odd rounds all-equal ∧ |D| ≤ f, even |⋃D| ≤ f."""

    def __init__(self, view: HOSuspicionView, f: int) -> None:
        super().__init__(view)
        self.f = f

    def initial_state(self) -> int:
        return 0  # parity of rounds folded so far: 0 ⇒ next round is odd

    def advance(self, state: int, rint: PackedDRound) -> int:
        return state ^ 1

    def size_bound(self, state: int) -> int:
        return min(self.f, self.n - 1)

    def begin(self, state: int) -> int:
        return 0  # running union of placed masks (even rounds only)

    def push(self, state, aux, pid, mask, masks):
        if state == 0:  # odd round: uniformity
            if pid and mask != masks[0]:
                return None
            return aux
        union = aux | mask
        if union.bit_count() > self.f:
            return None
        return union


class HOMustHear(HOPredicate):
    """Per-receiver obligations: ``HO(i, r) ⊇ must_hear[i]`` every round.

    The output language of :func:`repro.ho.derive.derive`: each process is
    guaranteed to hear at least the senders whose links the fault plan
    leaves intact.  Suspicion form: ``D(i, r) ∩ must_hear[i] = ∅``.
    Generally *not* symmetric — the obligations name concrete processes.
    """

    def __init__(self, n: int, must_hear: tuple[frozenset[ProcessId], ...]) -> None:
        super().__init__(n)
        if len(must_hear) != n:
            raise ValueError(
                f"must_hear has {len(must_hear)} rows, expected n={n}"
            )
        for pid, row in enumerate(must_hear):
            if not row <= self.everyone:
                raise ValueError(
                    f"must_hear[{pid}] = {sorted(row)} contains ids outside S"
                )
        self.must_hear = tuple(frozenset(row) for row in must_hear)

    def _allows(self, ho_history: HOHistory) -> bool:
        return all(
            self.must_hear[pid] <= heard
            for ho_round in ho_history
            for pid, heard in enumerate(ho_round)
        )

    def extension_state(self, ho_history: HOHistory) -> object:
        return ()

    def describe(self) -> str:
        rows = ", ".join(
            f"HO({pid}) ⊇ {{{', '.join(map(str, sorted(row)))}}}"
            for pid, row in enumerate(self.must_hear)
            if row
        )
        return f"HOMustHear: {rows or 'no obligations'}"

    def sample_round(self, rng: random.Random, ho_history: HOHistory) -> HORound:
        ho_round = []
        for pid in range(self.n):
            base = self.must_hear[pid]
            heard = base | random_subset(self.everyone - base, rng)
            if not heard:
                heard = frozenset({pid})
            ho_round.append(heard)
        return tuple(ho_round)

    def _suspicion_kernel(self, view: HOSuspicionView) -> PackedPredicate | None:
        if type(self) is not HOMustHear:
            return None
        return _MustHearKernel(view, self.must_hear)


class _MustHearKernel(FastPackedPredicate):
    """``D(i) ∩ must_hear[i] = ∅`` as one AND per mask."""

    def __init__(
        self,
        view: HOSuspicionView,
        must_hear: tuple[frozenset[ProcessId], ...],
    ) -> None:
        super().__init__(view)
        dom = self.domain
        self.must_masks = tuple(dom.pack_set(row) for row in must_hear)

    def pid_masks(self, state, pid, max_d_size):
        # Pre-filtering keeps the walk small; push re-checks, so the table
        # remains a plain (order-preserving) restriction of the ranked one.
        forbidden = self.must_masks[pid]
        return tuple(
            mask
            for mask in super().pid_masks(state, pid, max_d_size)
            if not mask & forbidden
        )

    def mask_ok(self, state, pid, mask):
        return (
            mask.bit_count() <= self.size_bound(state)
            and not mask & self.must_masks[pid]
        )

    def push(self, state, aux, pid, mask, masks):
        if mask & self.must_masks[pid]:
            return None
        return aux


# ---------------------------------------------------------------------------
# named catalog registry (the CLI / certificate-artifact handle space)

HO_CATALOG: dict[str, "type[HOPredicate] | object"] = {
    "nonempty": lambda n: HONonEmpty(n),
    "at-least-2": lambda n: HOAtLeast(n, min(2, n)),
    "hear-all": lambda n: HOHearAll(n),
    "no-split": lambda n: HONoSplit(n),
    "global-kernel": lambda n: HOGlobalKernel(n),
    "uniform": lambda n: HOUniform(n),
    "uniform-voting": lambda n: HOUniformVoting(n, f=1),
}


def ho_predicate_names() -> list[str]:
    """The registered HO catalog names, sorted."""
    return sorted(HO_CATALOG)


def get_ho_predicate(name: str, n: int) -> HOPredicate:
    """Instantiate a catalog HO predicate by name at size ``n``."""
    try:
        factory = HO_CATALOG[name]
    except KeyError:
        raise KeyError(
            f"no HO predicate named {name!r}; registered: {ho_predicate_names()}"
        ) from None
    return factory(n)
