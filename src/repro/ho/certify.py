"""Machine-checked equivalence/separation certificates between HO predicates.

Attiya et al. study when two communication models are *equivalent* (each
simulates the other) and when they *separate*; at bounded ``(n, rounds)``
both questions are decidable by brute force, and this module makes the
answers into replayable artifacts:

- :func:`contains` decides ``A ⊆ B`` (every A-admissible HO collection is
  B-admissible) by exhaustive enumeration — through the packed suspicion
  kernels when both predicates carry one (the packed fast path), or
  through :func:`repro.core.submodel.implies_exhaustive` on the set path
  (``bitset=False``); the two modes are differentially equal.
- :func:`equivalence` runs both directions and yields an
  :class:`EquivalenceCertificate`, serialized as an ``rrfd-equivalence-v1``
  JSON artifact; :func:`replay_certificate` re-runs the bounded check and
  asserts the recorded verdict still holds.
- :func:`find_separation` hunts a witness through the conformance kit:
  :func:`separation_spec` wraps the pair as a dynamic
  :class:`~repro.check.spec.ConformanceSpec` whose single invariant —
  *named after the pair* — fails exactly on A-admissible collections B
  rejects, so ``explore()`` finds a witness, :func:`repro.check.shrink.shrink`
  minimizes it while provably preserving the same separating pair, and the
  result saves as a standard ``rrfd-counterexample-v1`` artifact
  (:func:`replay_separation` rebuilds the pair from the artifact's spec
  name and replays it).

Predicates are referenced by :class:`PredicateRef` — a catalog name
(:data:`repro.ho.model.HO_CATALOG`) or an inlined derived
:class:`~repro.ho.model.HOMustHear` obligation — so artifacts are
self-contained and survive on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.check.explore import explore
from repro.check.shrink import (
    ShrinkResult,
    counterexample_to_dict,
    replay_counterexample,
    save_counterexample,
    shrink,
)
from repro.check.spec import ConformanceSpec, TraceInvariant
from repro.core.algorithm import RoundProcess, make_protocol
from repro.core.submodel import implies_exhaustive
from repro.core.types import ExecutionTrace
from repro.ho.model import (
    HOHistory,
    HOMustHear,
    HOPredicate,
    from_suspicion,
    get_ho_predicate,
    ho_predicate_names,
)

__all__ = [
    "EQUIVALENCE_FORMAT",
    "SEPARATION_SPEC_PREFIX",
    "PredicateRef",
    "ContainmentResult",
    "EquivalenceCertificate",
    "contains",
    "equivalence",
    "separation_spec",
    "find_separation",
    "save_certificate",
    "load_certificate",
    "replay_certificate",
    "replay_separation",
    "CertifySuiteReport",
    "certify_all",
]

EQUIVALENCE_FORMAT = "rrfd-equivalence-v1"
SEPARATION_SPEC_PREFIX = "ho-sep:"


# ---------------------------------------------------------------------------
# predicate references (the serializable handle space)


@dataclass(frozen=True)
class PredicateRef:
    """A serializable reference to an HO predicate.

    ``kind="catalog"`` names an entry of :data:`~repro.ho.model.HO_CATALOG`;
    ``kind="derived"`` inlines an :class:`~repro.ho.model.HOMustHear`
    obligation row by row (the output of :func:`repro.ho.derive.derive`),
    so certificates about derived predicates replay without the plan.
    """

    kind: str
    name: str
    must_hear: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("catalog", "derived"):
            raise ValueError(f"unknown PredicateRef kind {self.kind!r}")
        if self.kind == "derived" and self.must_hear is None:
            raise ValueError("derived PredicateRef needs its must_hear rows")

    @classmethod
    def catalog(cls, name: str) -> "PredicateRef":
        if name not in ho_predicate_names():
            raise KeyError(
                f"no HO predicate named {name!r}; "
                f"registered: {ho_predicate_names()}"
            )
        return cls(kind="catalog", name=name)

    @classmethod
    def derived(cls, label: str, predicate: HOMustHear) -> "PredicateRef":
        return cls(
            kind="derived",
            name=label,
            must_hear=tuple(
                tuple(sorted(row)) for row in predicate.must_hear
            ),
        )

    def instantiate(self, n: int) -> HOPredicate:
        if self.kind == "catalog":
            return get_ho_predicate(self.name, n)
        assert self.must_hear is not None
        if len(self.must_hear) != n:
            raise ValueError(
                f"derived ref {self.name!r} records {len(self.must_hear)} "
                f"obligation rows, cannot instantiate at n={n}"
            )
        return HOMustHear(n, tuple(frozenset(row) for row in self.must_hear))

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind, "name": self.name}
        if self.must_hear is not None:
            doc["must_hear"] = [list(row) for row in self.must_hear]
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "PredicateRef":
        must_hear = doc.get("must_hear")
        return cls(
            kind=doc["kind"],
            name=doc["name"],
            must_hear=(
                None
                if must_hear is None
                else tuple(tuple(row) for row in must_hear)
            ),
        )


def _as_ref(ref: "PredicateRef | str") -> PredicateRef:
    return PredicateRef.catalog(ref) if isinstance(ref, str) else ref


# ---------------------------------------------------------------------------
# containment / equivalence


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of one bounded containment check ``A ⊆ B``."""

    a: PredicateRef
    b: PredicateRef
    n: int
    rounds: int
    holds: bool
    histories_checked: int
    witness: HOHistory | None
    bitset: bool

    def summary(self) -> str:
        verdict = "CONTAINED" if self.holds else "SEPARATED"
        return (
            f"{self.a.name} ⊆ {self.b.name} @ n={self.n}, "
            f"rounds≤{self.rounds}: {verdict} "
            f"({self.histories_checked} histories"
            f"{', packed' if self.bitset else ''})"
        )


def contains(
    a: "PredicateRef | str",
    b: "PredicateRef | str",
    *,
    n: int,
    rounds: int = 2,
    bitset: bool = True,
) -> ContainmentResult:
    """Exhaustively decide ``A ⊆ B`` over HO collections of ≤ ``rounds``.

    Prefix-closedness (which every catalog predicate satisfies) makes
    checking exactly-``rounds`` collections sufficient for all shorter
    ones.  With ``bitset=True`` and fast kernels on both sides the
    enumeration runs entirely in packed suspicion masks; the set path is
    the differential oracle (identical verdict, witness and count).
    """
    ref_a, ref_b = _as_ref(a), _as_ref(b)
    pa, pb = ref_a.instantiate(n), ref_b.instantiate(n)
    ka = pa.suspicion().packed()
    kb = pb.suspicion().packed()
    if bitset and ka.fast and kb.fast:
        checked = 0
        witness_packed: tuple[int, ...] | None = None

        def extend(packed: tuple[int, ...]) -> tuple[int, ...] | None:
            nonlocal checked
            if len(packed) == rounds:
                checked += 1
                if not kb.allows_history(packed):
                    return packed
                return None
            for rint in ka.admissible_round_ints(packed):
                found = extend(packed + (rint,))
                if found is not None:
                    return found
            return None

        witness_packed = extend(())
        witness = (
            None
            if witness_packed is None
            else from_suspicion(ka.domain.unpack_history(witness_packed), n)
        )
        return ContainmentResult(
            a=ref_a, b=ref_b, n=n, rounds=rounds,
            holds=witness is None, histories_checked=checked,
            witness=witness, bitset=True,
        )
    sub = implies_exhaustive(pa.suspicion(), pb.suspicion(), rounds=rounds)
    witness = (
        None
        if sub.counterexample is None
        else from_suspicion(sub.counterexample, n)
    )
    return ContainmentResult(
        a=ref_a, b=ref_b, n=n, rounds=rounds,
        holds=bool(sub.holds), histories_checked=sub.histories_checked,
        witness=witness, bitset=False,
    )


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Both containment directions at one bounded ``(n, rounds)``."""

    forward: ContainmentResult  # A ⊆ B
    backward: ContainmentResult  # B ⊆ A

    @property
    def a(self) -> PredicateRef:
        return self.forward.a

    @property
    def b(self) -> PredicateRef:
        return self.forward.b

    @property
    def equivalent(self) -> bool:
        return self.forward.holds and self.backward.holds

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "NOT equivalent"
        return (
            f"{self.a.name} ≡ {self.b.name} @ n={self.forward.n}, "
            f"rounds≤{self.forward.rounds}: {verdict} "
            f"({self.forward.histories_checked}+"
            f"{self.backward.histories_checked} histories)"
        )

    def to_dict(self) -> dict[str, Any]:
        def direction(result: ContainmentResult) -> dict[str, Any]:
            return {
                "holds": result.holds,
                "histories_checked": result.histories_checked,
            }

        return {
            "format": EQUIVALENCE_FORMAT,
            "a": self.a.to_dict(),
            "b": self.b.to_dict(),
            "n": self.forward.n,
            "rounds": self.forward.rounds,
            "equivalent": self.equivalent,
            "forward": direction(self.forward),
            "backward": direction(self.backward),
        }


def equivalence(
    a: "PredicateRef | str",
    b: "PredicateRef | str",
    *,
    n: int,
    rounds: int = 2,
    bitset: bool = True,
) -> EquivalenceCertificate:
    """Decide ``A ≡ B`` at bounded ``(n, rounds)``, both directions."""
    return EquivalenceCertificate(
        forward=contains(a, b, n=n, rounds=rounds, bitset=bitset),
        backward=contains(b, a, n=n, rounds=rounds, bitset=bitset),
    )


def save_certificate(
    certificate: EquivalenceCertificate, path: "str | Path"
) -> None:
    Path(path).write_text(
        json.dumps(certificate.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_certificate(path: "str | Path") -> dict[str, Any]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("format") != EQUIVALENCE_FORMAT:
        raise ValueError(
            f"not a {EQUIVALENCE_FORMAT} artifact: format={data.get('format')!r}"
        )
    return data


def replay_certificate(
    artifact: dict[str, Any], *, bitset: bool = True
) -> EquivalenceCertificate:
    """Re-run a loaded equivalence artifact and confirm its verdict.

    Raises:
        AssertionError: if any recorded direction, verdict or history count
        no longer matches — a predicate's semantics changed (that is the
        point of a golden corpus).
    """
    cert = equivalence(
        PredicateRef.from_dict(artifact["a"]),
        PredicateRef.from_dict(artifact["b"]),
        n=artifact["n"],
        rounds=artifact["rounds"],
        bitset=bitset,
    )
    for direction, result in (
        ("forward", cert.forward), ("backward", cert.backward),
    ):
        recorded = artifact[direction]
        if result.holds != recorded["holds"]:
            raise AssertionError(
                f"golden equivalence certificate diverged: {direction} "
                f"({result.a.name} ⊆ {result.b.name}) now "
                f"holds={result.holds}, recorded {recorded['holds']}"
            )
        if result.histories_checked != recorded["histories_checked"]:
            raise AssertionError(
                f"golden equivalence certificate diverged: {direction} "
                f"checked {result.histories_checked} histories, recorded "
                f"{recorded['histories_checked']} — the admissible space "
                "changed shape"
            )
    if cert.equivalent != artifact["equivalent"]:
        raise AssertionError(
            "golden equivalence certificate diverged: equivalent="
            f"{cert.equivalent}, recorded {artifact['equivalent']}"
        )
    return cert


# ---------------------------------------------------------------------------
# separation witnesses (through the conformance kit)


class _WitnessProcess(RoundProcess):
    """Trivial protocol for separation specs: decide the input in round 1.

    The separation invariant judges only the suspicion history, so the
    protocol exists purely to satisfy the executor; deciding immediately
    keeps ``prune_decided`` exploration sound and the traces tiny.
    """

    def emit(self, round_number: int) -> Any:
        return self.input_value

    def absorb(self, view) -> None:
        if self.decision is None:
            self.decide((self.pid, self.input_value))

    def copy(self) -> "_WitnessProcess":
        return self._shallow_copy()


def separation_spec(
    a: "PredicateRef | str", b: "PredicateRef | str", *, rounds: int = 2
) -> ConformanceSpec:
    """A dynamic spec whose one invariant separates the pair ``(A, B)``.

    Admissibility is A (the spec's model predicate is ``A.suspicion()``);
    the single invariant — named ``separates:<a>=><b>`` — asserts that the
    projected HO collection is also B-admissible.  A violation is exactly
    an A-admissible, B-rejected collection, and because the invariant name
    encodes the *pair*, :func:`repro.check.shrink.shrink` preserves the
    separating pair (not just "some failure") while minimizing.

    The spec is intentionally **not** registered: the registry is for
    protocol conformance claims that must stay green, while separation
    specs exist to fail.
    """
    ref_a, ref_b = _as_ref(a), _as_ref(b)
    invariant_name = f"separates:{ref_a.name}=>{ref_b.name}"

    def check(trace: ExecutionTrace, n: int) -> None:
        ho_history = from_suspicion(trace.d_history, n)
        assert ref_b.instantiate(n).allows(ho_history), (
            f"HO collection admissible under {ref_a.name} "
            f"but rejected by {ref_b.name}"
        )

    return ConformanceSpec(
        name=f"{SEPARATION_SPEC_PREFIX}{ref_a.name}=>{ref_b.name}",
        title=f"separation witness search: {ref_a.name} ⊈ {ref_b.name}",
        protocol=lambda n: make_protocol(_WitnessProcess, name="ho-witness"),
        predicate=lambda n: ref_a.instantiate(n).suspicion(),
        rounds=lambda n: rounds,
        invariants=(
            TraceInvariant(
                invariant_name,
                check,
                f"every {ref_a.name}-admissible HO collection is "
                f"{ref_b.name}-admissible",
            ),
        ),
        exhaustive_inputs=lambda n: [tuple(range(n))],
        sample_inputs=lambda n, rng: tuple(range(n)),
        notes="dynamic spec generated by repro.ho.certify; not registered",
    )


def find_separation(
    a: "PredicateRef | str",
    b: "PredicateRef | str",
    *,
    n: int,
    rounds: int = 2,
) -> ShrinkResult | None:
    """A shrunk separation witness for ``A ⊈ B``, or ``None`` if contained.

    Runs ``explore()`` over the pair's :func:`separation_spec` (stopping at
    the first violation) and delta-debugs the witness down while keeping it
    A-admissible and keeping the *named* pair-invariant failing.  The
    result serializes through the standard
    ``rrfd-counterexample-v1`` pipeline
    (:func:`repro.check.shrink.save_counterexample`).
    """
    spec = separation_spec(a, b, rounds=rounds)
    result = explore(spec, n=n, rounds=rounds, max_violations=1)
    if result.ok:
        return None
    violation = result.violations[0]
    return shrink(
        spec,
        violation.inputs,
        violation.history,
        invariant=spec.invariants[0].name,
    )


def replay_separation(artifact: dict[str, Any]) -> ExecutionTrace:
    """Replay a separation ``rrfd-counterexample-v1`` artifact.

    The artifact's spec name (``ho-sep:<a>=><b>``) is parsed back into the
    catalog pair and the dynamic spec rebuilt; the standard counterexample
    replay then asserts the recorded invariant still fails with the
    recorded message.  Separation artifacts over *derived* predicates are
    not self-describing by name — replay those through
    :func:`separation_spec` with explicit refs instead.
    """
    spec_name = artifact["spec"]
    if not spec_name.startswith(SEPARATION_SPEC_PREFIX):
        raise ValueError(
            f"not a separation artifact: spec={spec_name!r} "
            f"(expected prefix {SEPARATION_SPEC_PREFIX!r})"
        )
    pair = spec_name[len(SEPARATION_SPEC_PREFIX):]
    a_name, sep, b_name = pair.partition("=>")
    if not sep:
        raise ValueError(f"malformed separation spec name {spec_name!r}")
    rounds = max(len(artifact["history"]), 1)
    spec = separation_spec(
        PredicateRef.catalog(a_name),
        PredicateRef.catalog(b_name),
        rounds=rounds,
    )
    return replay_counterexample(artifact, spec=spec)


# ---------------------------------------------------------------------------
# the standard suite (CLI `python -m repro ho --certify`, CI ho-smoke)


@dataclass(frozen=True)
class CertifySuiteReport:
    """Everything the standard certificate suite produced, replay-verified."""

    n: int
    rounds: int
    bitset: bool
    equivalences: tuple[EquivalenceCertificate, ...]
    containments: tuple[ContainmentResult, ...]
    separations: tuple[tuple[ShrinkResult, dict[str, Any]], ...]

    def summaries(self) -> list[str]:
        lines = [cert.summary() for cert in self.equivalences]
        lines += [result.summary() for result in self.containments]
        for shrunk, artifact in self.separations:
            lines.append(
                f"{artifact['spec']}: witness HO "
                f"{from_suspicion(tuple(shrunk.history), self.n)!r} "
                f"({shrunk.summary()})"
            )
        return lines


def certify_all(
    *,
    n: int = 3,
    rounds: int = 2,
    bitset: bool = True,
    save_dir: "str | Path | None" = None,
) -> CertifySuiteReport:
    """Run the standard certificate suite at bounded ``(n, rounds)``.

    The suite covers each certificate kind once, each end-to-end
    replay-verified before it is reported (or saved):

    - **equivalence** — the predicate *derived* from the fault-free
      :class:`~repro.substrates.messaging.chaos.FaultPlan` is exhaustively
      equivalent to the catalog's ``hear-all`` (the derivation is tight on
      a clean network);
    - **containments** — ``global-kernel ⊆ no-split`` (a common member of
      all HO sets intersects every pair) and ``uniform ⊆ no-split``;
    - **separation** — ``no-split ⊄ global-kernel``: pairwise intersection
      does not yield a global kernel at ``n ≥ 3``; the shrunk witness is
      the 3-cycle ``HO = ({1,2}, {0,2}, {0,1})``.

    ``save_dir`` writes the artifacts (``rrfd-equivalence-v1`` and
    ``rrfd-counterexample-v1`` JSON) for the golden corpus / CI upload.
    """
    from repro.ho.derive import derive
    from repro.substrates.messaging.chaos import FaultPlan

    clean = PredicateRef.derived("derived-clean", derive(FaultPlan(), n))
    cert = equivalence(clean, "hear-all", n=n, rounds=rounds, bitset=bitset)
    replay_certificate(cert.to_dict(), bitset=bitset)

    containments = tuple(
        contains(a, b, n=n, rounds=rounds, bitset=bitset)
        for a, b in (("global-kernel", "no-split"), ("uniform", "no-split"))
    )

    separations: list[tuple[ShrinkResult, dict[str, Any]]] = []
    if n >= 3:  # at n = 2 pairwise intersection IS a global kernel
        shrunk = find_separation("no-split", "global-kernel", n=n, rounds=rounds)
        if shrunk is None:
            raise AssertionError(
                f"no-split ⊆ global-kernel unexpectedly holds at n={n}"
            )
        artifact = counterexample_to_dict(shrunk)
        replay_separation(artifact)
        separations.append((shrunk, artifact))

    if save_dir is not None:
        out = Path(save_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_certificate(cert, out / "ho_equivalence_derived_clean.json")
        for shrunk, _ in separations:
            save_counterexample(
                shrunk, out / "ho_separation_no_split_global_kernel.json"
            )

    return CertifySuiteReport(
        n=n,
        rounds=rounds,
        bitset=bitset,
        equivalences=(cert,),
        containments=containments,
        separations=tuple(separations),
    )
