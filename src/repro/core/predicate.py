"""Predicate abstraction: an RRFD *model* is a predicate over suspicions.

Different RRFD systems differ only in the predicates over the sets
``D(i, r)`` that they guarantee (paper, Section 1).  A :class:`Predicate`
judges finite suspicion histories; a history is a tuple of rounds, each round
a tuple of ``n`` frozensets (``history[r-1][i] = D(i, r)``).

Two operations matter beyond the membership test:

- *constructive sampling* (:meth:`Predicate.sample_round`): draw a random
  next round of suspicions consistent with the history, so adversaries can
  generate executions of a model without rejection loops;
- *implication checking*: ``P_A ⇒ P_B`` is the paper's submodel relation
  ("A is a submodel of B"); :mod:`repro.core.submodel` checks it
  exhaustively for small ``n``/round-counts and probabilistically
  otherwise.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.core.types import DHistory, DRound, PackedDHistory, PackedDRound, ProcessId
from repro.util.bitset import BitsetDomain, domain as bitset_domain
from repro.util.sets import all_subset_families, random_subset

__all__ = [
    "Predicate",
    "PackedPredicate",
    "FastPackedPredicate",
    "Conjunction",
    "Unconstrained",
    "cumulative_suspected",
    "round_union",
    "round_intersection",
]


def round_union(d_round: DRound) -> frozenset[ProcessId]:
    """``⋃_i D(i, r)`` for one round."""
    result: frozenset[ProcessId] = frozenset()
    for suspected in d_round:
        result |= suspected
    return result


def round_intersection(d_round: DRound) -> frozenset[ProcessId]:
    """``⋂_i D(i, r)`` for one round."""
    if not d_round:
        return frozenset()
    result = d_round[0]
    for suspected in d_round[1:]:
        result &= suspected
    return result


def cumulative_suspected(history: DHistory) -> frozenset[ProcessId]:
    """``⋃_{r} ⋃_i D(i, r)`` — everyone ever suspected by anyone."""
    result: frozenset[ProcessId] = frozenset()
    for d_round in history:
        result |= round_union(d_round)
    return result


class Predicate(ABC):
    """A predicate over finite suspicion histories, defining an RRFD model.

    ``is_symmetric`` declares invariance under process permutations: for
    every permutation ``π`` of ``range(n)``, ``allows(π·h) == allows(h)``,
    where ``(π·h)(π(i), r) = π(h(i, r))`` (both *who* suspects and *whom*
    they suspect are renamed).  Every catalog predicate
    (:mod:`repro.core.predicates`) is symmetric — their clauses only
    mention cardinalities, self-membership and set algebra over renamed
    ids.  The default is ``False`` so unknown user predicates soundly
    disable the model checker's symmetry reduction.
    """

    #: True iff the predicate is invariant under process permutations.
    is_symmetric: bool = False

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self.everyone = frozenset(range(n))

    # ------------------------------------------------------------------ API

    def allows(self, history: DHistory) -> bool:
        """Whether the whole history satisfies this model's guarantee.

        Beyond the model-specific condition (:meth:`_allows`), every RRFD
        system forbids ``D(i, r) = S``: interpreting ``D`` as "late
        processes", not all processes can be late (paper, Section 1).
        """
        for d_round in history:
            self._validate_round(d_round)
            if any(len(suspected) >= self.n for suspected in d_round):
                return False
        return self._allows(history)

    @abstractmethod
    def _allows(self, history: DHistory) -> bool:
        """The model-specific condition; inputs are already shape-checked."""

    def allows_extension(self, history: DHistory, new_round: DRound) -> bool:
        """Whether ``history + (new_round,)`` still satisfies the predicate.

        Subclasses with purely per-round conditions may override this for
        speed; the default re-checks the extended history.
        """
        return self.allows(history + (new_round,))

    def extension_state(self, history: DHistory) -> object:
        """A hashable summary through which ``allows_extension`` sees history.

        Contract: for every *admissible* history ``h``,
        ``allows_extension(h, d)`` must be a function of
        ``(extension_state(h), d)`` alone — two admissible histories with
        equal summaries admit exactly the same next rounds.  The model
        checker memoizes admissible-candidate generation per summary, so a
        tight summary (a cumulative suspected set, ``()`` for per-round
        predicates) collapses thousands of sibling regenerations into one.

        The default returns the history itself: always sound, shares
        nothing across distinct histories (it still deduplicates the same
        history re-explored under different inputs).
        """
        return history

    def packed(self) -> "PackedPredicate":
        """The packed (integer-bitmask) admissibility kernel of this model.

        The exploration engine runs every predicate through this view.  The
        base implementation returns the *bridge*: a :class:`PackedPredicate`
        that unpacks every round and delegates to the set-based methods —
        always sound, never fast.  Catalog predicates override this to
        return a :class:`FastPackedPredicate` whose clauses are pure bit
        operations; their overrides guard on exact type so user subclasses
        with changed semantics fall back to the bridge (and hence to their
        own set semantics) automatically.
        """
        return PackedPredicate(self)

    @abstractmethod
    def sample_round(self, rng: random.Random, history: DHistory) -> DRound:
        """Draw a random next round consistent with ``history``.

        Must always return a round such that ``allows_extension`` holds —
        constructive samplers are the basis of the random adversaries used
        throughout the experiments.
        """

    @property
    def name(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        """Human-readable statement of the guarantee (paper notation)."""
        return self.name

    # -------------------------------------------------------------- helpers

    def _validate_round(self, d_round: DRound) -> None:
        if len(d_round) != self.n:
            raise ValueError(
                f"round has {len(d_round)} suspicion sets, expected n={self.n}"
            )
        for pid, suspected in enumerate(d_round):
            if not suspected <= self.everyone:
                raise ValueError(
                    f"D({pid}) = {sorted(suspected)} contains ids outside S"
                )

    def __and__(self, other: "Predicate") -> "Conjunction":
        return Conjunction(self, other)

    def __repr__(self) -> str:
        return f"{self.name}(n={self.n})"


class PackedPredicate:
    """Set-based semantics exposed as an engine-ready packed kernel.

    This is the *bridge*: every query unpacks (through the interned
    per-``n`` tables of :mod:`repro.util.bitset`) and delegates to the
    owning :class:`Predicate`'s frozenset methods.  It is sound for any
    predicate, including user subclasses the fast kernels know nothing
    about, and it is the oracle the fast kernels are tested against.

    Its folded state is the packed history itself, so the exploration
    engine runs it exactly like a fast kernel.  Candidate lists are
    memoized per ``(predicate.extension_state(history), max_d_size)``, so
    a tight set-side summary still collapses sibling enumerations.
    ``fast`` is False: callers that need a bit-op kernel check it.
    """

    fast = False

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate
        self.n = predicate.n
        self.domain: BitsetDomain = bitset_domain(predicate.n)
        self._candidates: dict[object, list[PackedDRound]] = {}

    # -- state: the packed history itself ------------------------------------

    def initial_state(self) -> object:
        return ()

    def advance(self, state: object, rint: PackedDRound) -> object:
        return state + (rint,)

    def extension_state(self, packed_history: PackedDHistory) -> object:
        """The engine's memo key: the packed history itself."""
        return tuple(packed_history)

    # -- queries over packed histories --------------------------------------

    def allows_extension(self, packed_history: PackedDHistory, rint: PackedDRound) -> bool:
        """Whether the packed round extends the packed history admissibly."""
        return self.predicate.allows_extension(
            self.domain.unpack_history(packed_history),
            self.domain.unpack_round(rint),
        )

    def allows_history(self, packed_history: PackedDHistory) -> bool:
        """Whether the whole packed history satisfies the predicate."""
        return self.predicate.allows(self.domain.unpack_history(packed_history))

    def admissible_round_ints(
        self,
        packed_history: PackedDHistory,
        *,
        max_d_size: int | None = None,
        state: object | None = None,
    ) -> list[PackedDRound]:
        """All admissible next rounds, packed, in canonical enumeration order.

        The order is exactly that of the set-based enumerator
        (``all_subset_families`` filtered by ``allows_extension``) — the
        property the engine's differential tests pin down.  ``state`` (the
        folded packed history) replaces ``packed_history`` when given.
        """
        dom = self.domain
        history = dom.unpack_history(
            packed_history if state is None else state
        )
        predicate = self.predicate
        try:
            key = (predicate.extension_state(history), max_d_size)
            cached = self._candidates.get(key)
        except TypeError:  # unhashable summary: sound, just unmemoized
            key = cached = None
        if cached is None:
            cached = [
                dom.pack_round(family)
                for family in all_subset_families(self.n, max_size=max_d_size)
                if predicate.allows_extension(history, family)
            ]
            if key is not None:
                self._candidates[key] = cached
        return cached

    def sample_round_int(
        self, rng: random.Random, packed_history: PackedDHistory
    ) -> PackedDRound:
        """Draw a random admissible next round, packed."""
        return self.domain.pack_round(
            self.predicate.sample_round(
                rng, self.domain.unpack_history(packed_history)
            )
        )


class FastPackedPredicate(PackedPredicate):
    """Bit-op admissibility kernel for a predicate with prefix-closed clauses.

    Subclasses express their model as four pieces, all over per-process
    masks (``int`` bitmasks of suspected ids):

    * a **state** — the packed twin of ``Predicate.extension_state``:
      ``initial_state()`` / ``advance(state, rint)`` fold a packed history
      into the summary through which extensions are judged;
    * **per-mask tables** — ``size_bound(state)`` bounds ``|D(i)|`` so
      candidate masks come precomputed off the size-ranked mask table
      (``|D| ≤ f``-style popcount prefixes); ``pid_masks`` may narrow
      further per process; ``mask_ok`` is the same condition as an exact
      test for arbitrary masks;
    * a **push filter** — ``push(state, aux, pid, mask, masks)`` threads
      an aggregate ``aux`` across processes ``0..pid`` and returns
      ``None`` to prune; it must be a *necessary* condition (never prunes
      an admissible completion), which makes backtracking enumeration
      sound while keeping the canonical order;
    * an **accept check** — ``accept(state, aux, masks)`` finishes the
      exact per-round test once all ``n`` masks are placed.

    The framework-level rule ``D(i, r) ≠ S`` is enforced structurally: the
    mask tables cap sizes at ``n - 1``, and ``allows_round`` re-checks it
    for arbitrary masks.  The contract assumes the predicate is
    prefix-closed (every prefix of an allowed history is allowed), which
    holds for the entire catalog.
    """

    fast = True

    # -- state -------------------------------------------------------------

    def advance(self, state: object, rint: PackedDRound) -> object:
        return state

    def extension_state(self, packed_history: PackedDHistory) -> object:
        state = self.initial_state()
        for rint in packed_history:
            state = self.advance(state, rint)
        return state

    # -- per-mask tables -----------------------------------------------------

    def size_bound(self, state: object) -> int:
        """Largest admissible ``|D(i)|`` under ``state`` (≤ n - 1)."""
        return self.n - 1

    def pid_masks(
        self, state: object, pid: int, max_d_size: int | None
    ) -> tuple[int, ...]:
        """Candidate masks for process ``pid``, in enumeration order.

        Must contain every mask admissible for ``pid`` in some completion
        (a superset filter), listed in ``masks_by_rank`` order so the
        enumeration sequence matches the set-based oracle.
        """
        bound = self.size_bound(state)
        if max_d_size is not None and max_d_size < bound:
            bound = max_d_size
        return self.domain.masks_by_rank(bound)

    def mask_ok(self, state: object, pid: int, mask: int) -> bool:
        """Exact per-mask necessary condition (mirrors ``pid_masks``)."""
        return mask.bit_count() <= self.size_bound(state)

    # -- push filter / accept ------------------------------------------------

    def begin(self, state: object) -> object:
        """Seed aggregate for one round's push chain (must not be None)."""
        return ()

    def push(
        self, state: object, aux: object, pid: int, mask: int, masks: list[int]
    ) -> object | None:
        """Fold ``mask`` into ``aux``; return None to prune this branch.

        ``masks[0:pid]`` are the already-placed masks of this round.
        """
        return aux

    def accept(self, state: object, aux: object, masks: list[int]) -> bool:
        """Exact round test once all masks are placed (push already passed)."""
        return True

    # -- derived queries -----------------------------------------------------

    def allows_round(self, state: object, rint: PackedDRound) -> bool:
        """Exact packed twin of ``allows_extension`` from a folded state."""
        masks = list(self.domain.round_masks(rint))
        full = self.domain.full
        aux = self.begin(state)
        for pid, mask in enumerate(masks):
            if mask == full or not self.mask_ok(state, pid, mask):
                return False
            aux = self.push(state, aux, pid, mask, masks)
            if aux is None:
                return False
        return self.accept(state, aux, masks)

    def allows_extension(self, packed_history: PackedDHistory, rint: PackedDRound) -> bool:
        return self.allows_round(self.extension_state(packed_history), rint)

    def allows_history(self, packed_history: PackedDHistory) -> bool:
        state = self.initial_state()
        for rint in packed_history:
            if not self.allows_round(state, rint):
                return False
            state = self.advance(state, rint)
        return True

    def admissible_round_ints(
        self,
        packed_history: PackedDHistory,
        *,
        max_d_size: int | None = None,
        state: object | None = None,
    ) -> list[PackedDRound]:
        """Backtracking enumeration over per-process mask tables.

        Visits candidate families with process 0 varying slowest and each
        process's masks in size-ranked order — the exact sequence of the
        set-based enumerator — while ``push`` prunes inadmissible prefixes
        wholesale.  At n=5 this is the difference between 33.5M raw
        families and the admissible few.
        """
        if state is None:
            state = self.extension_state(packed_history)
        n = self.n
        tables = [self.pid_masks(state, pid, max_d_size) for pid in range(n)]
        masks = [0] * n
        out: list[PackedDRound] = []
        pack = self.domain.pack_masks
        push = self.push
        accept = self.accept
        last = n - 1

        def walk(pid: int, aux: object) -> None:
            table = tables[pid]
            if pid == last:
                for mask in table:
                    masks[pid] = mask
                    nxt = push(state, aux, pid, mask, masks)
                    if nxt is not None and accept(state, nxt, masks):
                        out.append(pack(masks))
            else:
                for mask in table:
                    masks[pid] = mask
                    nxt = push(state, aux, pid, mask, masks)
                    if nxt is not None:
                        walk(pid + 1, nxt)

        walk(0, self.begin(state))
        return out


class Conjunction(Predicate):
    """Conjunction of predicates over the same process set.

    Sampling draws from the *first* conjunct and rejects against the rest,
    so conjunctions sample efficiently when the first conjunct is the most
    restrictive.  ``max_attempts`` bounds the rejection loop.
    """

    def __init__(self, *parts: Predicate, max_attempts: int = 10_000) -> None:
        if not parts:
            raise ValueError("Conjunction needs at least one predicate")
        ns = {p.n for p in parts}
        if len(ns) != 1:
            raise ValueError(f"conjuncts disagree on n: {sorted(ns)}")
        super().__init__(parts[0].n)
        self.parts = parts
        self.max_attempts = max_attempts
        # Symmetric iff every conjunct is (instance attribute shadows the
        # class default).
        self.is_symmetric = all(part.is_symmetric for part in parts)

    def _allows(self, history: DHistory) -> bool:
        return all(part.allows(history) for part in self.parts)

    def extension_state(self, history: DHistory) -> object:
        return tuple(part.extension_state(history) for part in self.parts)

    def sample_round(self, rng: random.Random, history: DHistory) -> DRound:
        for _ in range(self.max_attempts):
            candidate = self.parts[0].sample_round(rng, history)
            if all(part.allows_extension(history, candidate) for part in self.parts[1:]):
                return candidate
        raise RuntimeError(
            f"could not sample a round satisfying {self.describe()} after "
            f"{self.max_attempts} attempts"
        )

    def describe(self) -> str:
        return " ∧ ".join(part.describe() for part in self.parts)

    def packed(self) -> PackedPredicate:
        if type(self) is not Conjunction:
            return Predicate.packed(self)
        parts = tuple(part.packed() for part in self.parts)
        if all(part.fast for part in parts):
            return _PackedConjunction(self, parts)
        return PackedPredicate(self)


class _PackedConjunction(FastPackedPredicate):
    """Fast conjunction: states, tables and filters combine pointwise."""

    def __init__(self, predicate: Conjunction, parts: tuple[PackedPredicate, ...]) -> None:
        super().__init__(predicate)
        self.parts = parts

    def initial_state(self) -> object:
        return tuple(part.initial_state() for part in self.parts)

    def advance(self, state: object, rint: PackedDRound) -> object:
        return tuple(
            part.advance(s, rint) for part, s in zip(self.parts, state)
        )

    def size_bound(self, state: object) -> int:
        return min(part.size_bound(s) for part, s in zip(self.parts, state))

    def pid_masks(self, state: object, pid: int, max_d_size: int | None) -> tuple[int, ...]:
        masks = self.parts[0].pid_masks(state[0], pid, max_d_size)
        rest = tuple(zip(self.parts[1:], state[1:]))
        if not rest:
            return masks
        return tuple(
            m for m in masks if all(p.mask_ok(s, pid, m) for p, s in rest)
        )

    def mask_ok(self, state: object, pid: int, mask: int) -> bool:
        return all(
            part.mask_ok(s, pid, mask) for part, s in zip(self.parts, state)
        )

    def begin(self, state: object) -> object:
        return tuple(part.begin(s) for part, s in zip(self.parts, state))

    def push(self, state, aux, pid, mask, masks):
        out = []
        for part, s, a in zip(self.parts, state, aux):
            nxt = part.push(s, a, pid, mask, masks)
            if nxt is None:
                return None
            out.append(nxt)
        return tuple(out)

    def accept(self, state, aux, masks) -> bool:
        return all(
            part.accept(s, a, masks)
            for part, s, a in zip(self.parts, state, aux)
        )


class Unconstrained(Predicate):
    """The trivial model: the detector may suspect anything.

    Useful as the top of the submodel lattice and as a base case in tests.
    Only the framework-level guarantee ``D(i,r) ≠ S`` (enforced for every
    predicate by :meth:`Predicate.allows`) constrains it.
    """

    is_symmetric = True

    def _allows(self, history: DHistory) -> bool:
        return True

    def extension_state(self, history: DHistory) -> object:
        return ()

    def packed(self) -> PackedPredicate:
        # FastPackedPredicate's defaults are exactly the trivial model
        # (only the framework rule D ≠ S, via the n-1 size bound).
        if type(self) is not Unconstrained:
            return Predicate.packed(self)
        return FastPackedPredicate(self)

    def sample_round(self, rng: random.Random, history: DHistory) -> DRound:
        return tuple(
            random_subset(self.everyone, rng, max_size=self.n - 1)
            for _ in range(self.n)
        )
