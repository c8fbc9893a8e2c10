"""The live asyncio runtime: the protocol catalog over real sockets.

One :class:`ServiceRuntime` hosts ``n`` :class:`ServiceEndpoint`\\ s — one per
process id — each with a real TCP server on an ephemeral localhost port, a
resilient :class:`~repro.service.transport.PeerLink` to every peer, a
heartbeat loop feeding a :class:`~repro.service.suspicion.SuspicionMonitor`,
and any number of concurrent protocol *instances* multiplexed over the
shared links.

Each instance participant replays the round overlay's contract against real
time: emit round ``r``, resend until acked, advance when one of three gates
opens —

1. all ``n`` round-``r`` messages arrived (``D = ∅``);
2. at least ``n − f`` arrived and every unheard sender is currently
   suspected by the heartbeat detector (``D(i, r)`` = the unheard, *backed*
   by live suspicion — the detector feeds the round, exactly as the
   simulated :class:`~repro.substrates.messaging.heartbeat.HeartbeatSystem`
   feeds the executor);
3. the round deadline expires — graceful degradation
   (:mod:`repro.service.degrade`): advance with the unheard as ``D`` if at
   least ``n − f`` arrived, else *park* the instance.  Either way a
   structured event is emitted and the participant never hangs.

Every recorded view therefore satisfies ``S(i,r) ∪ D(i,r) = S`` and
``|D(i,r)| ≤ f`` *by construction*; what remains to be checked — and is
checked, by :func:`audit_instance` and by projecting through the existing
:meth:`~repro.substrates.messaging.rounds.OverlayResult.to_trace` path — is
round ordering and communication closure on what actually crossed the wire.

Loss repair has two paths.  Every data transmission on a link carries a
per-link sequence number ``s`` and the receiver's ack echoes it.  A link
is one in-order TCP stream (injected delay is applied in-line, duplicate
copies are queued back to back) and the receiver acks in arrival order,
so an ack for ``s = k`` from peer ``j`` proves every earlier outstanding
transmission to ``j`` lost, or its ack lost (RFC 9002 §6.1
packet-threshold detection with threshold 1).  The endpoint's
:class:`OutstandingTable` finds those and the endpoint resends at once
each whose ``(instance, round)`` ``j`` has still not acked — the
*ack-gap* path.  The participant's backoff timer
(:meth:`_Participant._retransmit`) remains the backstop for what no later
ack can expose: a lost message with nothing sent after it on its link
(tail loss) and a dead peer that acks nothing.
"""

from __future__ import annotations

import asyncio
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from repro import obs
from repro.core.algorithm import Protocol, RoundProcess
from repro.core.audit import AuditReport, AuditViolation, ExecutionAuditor
from repro.core.types import ExecutionTrace, RoundView
from repro.protocols.adopt_commit import adopt_commit_protocol
from repro.protocols.consensus import floodset_consensus_protocol
from repro.protocols.floodset import floodmin_protocol, rounds_needed
from repro.service.degrade import DegradationEvent, DegradationReport
from repro.service.suspicion import SuspicionMonitor
from repro.service.transport import (
    MAX_FRAME,
    Backoff,
    FaultInjector,
    PeerLink,
    ServiceStats,
    decode_payload,
    encode_payload,
    read_frame,
    FrameError,
)
from repro.substrates.messaging.chaos import FaultPlan
from repro.substrates.messaging.rounds import OverlayResult
from repro.util.rng import derive_seed

__all__ = [
    "ServiceConfig",
    "InstanceSpec",
    "InstanceOutcome",
    "ParticipantRecord",
    "InstanceResult",
    "ServiceEndpoint",
    "ServiceRuntime",
    "resolve_protocol",
    "audit_instance",
    "run_service",
]


def resolve_protocol(name: str, *, f: int, k: int = 1) -> tuple[Protocol, int]:
    """Map a catalog name to a crash-tolerant live protocol and its depth.

    The live service runs the *synchronous-model* members of the catalog —
    their correctness needs only the crash-fault round structure the
    runtime provides, not a stronger detector predicate:

    - ``"consensus"`` → FloodSet (``f + 1`` rounds);
    - ``"kset"`` → FloodMin (``⌊f/k⌋ + 1`` rounds);
    - ``"adopt-commit"`` → the two-round adopt-commit (graceful by nature:
      under live suspicion it may adopt instead of commit, never disagree).
    """
    if name == "consensus":
        return floodset_consensus_protocol(f), rounds_needed(f, 1)
    if name == "kset":
        return floodmin_protocol(f, k), rounds_needed(f, k)
    if name == "adopt-commit":
        return adopt_commit_protocol(), 2
    if name.startswith("cc-"):
        # The communication-closure catalog: the same crash-tolerant
        # protocols routed through the async→round compiler, plus native
        # tagged-handler programs.  Lazy import keeps repro.cc optional on
        # the service's import path.
        from repro.cc.catalog import resolve_cc_protocol

        return resolve_cc_protocol(name, f=f, k=k)
    raise ValueError(
        f"unknown service protocol {name!r} "
        "(expected consensus | kset | adopt-commit | cc-*)"
    )


@dataclass
class ServiceConfig:
    """Tuning knobs for one :class:`ServiceRuntime`."""

    n: int
    f: int
    host: str = "127.0.0.1"
    plan: FaultPlan | None = None
    seed: int = 0
    heartbeat_interval: float = 0.05
    initial_timeout: float = 0.5
    timeout_bump: float = 0.25
    hysteresis: int = 2
    round_deadline: float = 2.0
    retransmit_base: float = 0.1
    retransmit_cap: float = 0.5
    retransmit_retries: int = 10
    connect_base: float = 0.05
    backoff_cap: float = 1.0
    backoff_jitter: float = 0.25
    queue_capacity: int = 1024
    batch_max: int = 64
    write_timeout: float = 5.0
    max_retries: int = 5
    max_frame: int = MAX_FRAME

    def __post_init__(self) -> None:
        if not 0 <= self.f < self.n:
            raise ValueError(f"need 0 ≤ f < n, got f={self.f}, n={self.n}")
        for name in (
            "heartbeat_interval", "round_deadline", "retransmit_base",
            "connect_base",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("retransmit_retries", "max_retries", "backoff_jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be ≥ 0, got {getattr(self, name)}")
        # The two Backoff schedules built from these fields need cap ≥ base;
        # checked here so a bad config fails at construction, not mid-run.
        for cap, base in (
            ("retransmit_cap", "retransmit_base"), ("backoff_cap", "connect_base"),
        ):
            if getattr(self, cap) < getattr(self, base):
                raise ValueError(
                    f"{cap} must be ≥ {base}, got {getattr(self, cap)} < "
                    f"{getattr(self, base)}"
                )


@dataclass(frozen=True)
class InstanceSpec:
    """One protocol instance to run on the service."""

    name: str
    protocol: str  # "consensus" | "kset" | "adopt-commit"
    inputs: tuple[Any, ...]
    k: int = 1


class InstanceOutcome(str, Enum):
    """How an instance terminated — it always terminates."""

    DECIDED = "decided"  # every live participant decided, no degradation
    DEGRADED = "degraded"  # terminated, but some round degraded / undecided
    PARKED = "parked"  # some participant parked (fault budget exceeded)


class _GhostProcess:
    """Stand-in process for a participant killed before recording anything."""

    decided = False
    decision = None


@dataclass
class ParticipantRecord:
    """One process's completed (or truncated) instance execution.

    Duck-types the slice of ``RoundOverlayNode`` that
    :meth:`~repro.substrates.messaging.rounds.OverlayResult.to_trace` and
    :meth:`~repro.core.audit.ExecutionAuditor.check_views` consume:
    ``views``, ``emissions``, and ``process``.
    """

    pid: int
    views: list[RoundView]
    emissions: dict[int, Any]
    process: RoundProcess | _GhostProcess
    parked: bool = False
    crashed: bool = False
    late_discarded: int = 0
    late_arrivals: list[tuple[int, int, int]] = field(default_factory=list)


@dataclass
class InstanceResult:
    """Outcome of one live instance across all processes."""

    spec: InstanceSpec
    n: int
    f: int
    records: list[ParticipantRecord]
    degradations: list[DegradationEvent]
    crashed: frozenset[int]
    started: float = 0.0
    finished: float = 0.0

    @property
    def latency(self) -> float:
        return self.finished - self.started

    @property
    def decisions(self) -> list[Any]:
        return [r.process.decision for r in self.records]

    @property
    def outcome(self) -> InstanceOutcome:
        if any(r.parked for r in self.records):
            return InstanceOutcome.PARKED
        live = [r for r in self.records if not r.crashed]
        if self.degradations or any(not r.process.decided for r in live):
            return InstanceOutcome.DEGRADED
        return InstanceOutcome.DECIDED

    def to_overlay_result(self) -> OverlayResult:
        """The live execution in the overlay's result shape — the bridge to
        the existing trace/audit machinery."""
        return OverlayResult(
            n=self.n,
            f=self.f,
            inputs=self.spec.inputs,
            nodes=self.records,  # duck-typed: views / emissions / process
            network=None,
            crashed=self.crashed,
        )

    def to_trace(self) -> ExecutionTrace:
        """Project through ``OverlayResult.to_trace`` (common-prefix rounds)."""
        return self.to_overlay_result().to_trace()


def audit_instance(
    result: InstanceResult, *, strict_closure: bool = False
) -> AuditReport:
    """Check the RRFD invariants on one live instance.

    Runs the same per-view checks as the simulator audit — round order,
    ``S ∪ D = S``, ``|D| ≤ f``, and communication closure against the
    senders' *recorded emissions* (so a payload corrupted or cross-round
    leaked by the transport is caught).  There is no stall check: the
    degradation machinery makes stalls structurally impossible, and parks
    are reported as explicit events instead.

    ``strict_closure`` additionally reports every late delivery the
    participants had to discard as a ``communication-closure`` violation
    (see :meth:`repro.core.audit.ExecutionAuditor.check_views`).
    """
    auditor = ExecutionAuditor(result.n, result.f)
    violations: list[AuditViolation] = []
    views_checked = 0
    for record in result.records:
        violations.extend(
            auditor.check_views(
                record.pid, record.views, result.records,
                late_arrivals=(
                    record.late_arrivals if strict_closure else None
                ),
            )
        )
        views_checked += len(record.views)
    return AuditReport(
        violations=tuple(violations), stall=None, views_checked=views_checked
    )


# ---------------------------------------------------------------------------
# participants


class _Participant:
    """One (endpoint, instance) pair: the emit/receive loop against a clock."""

    def __init__(
        self,
        endpoint: "ServiceEndpoint",
        spec: InstanceSpec,
        process: RoundProcess,
        max_rounds: int,
    ) -> None:
        self.endpoint = endpoint
        self.spec = spec
        self.process = process
        self.max_rounds = max_rounds
        self.pid = endpoint.pid
        cfg = endpoint.runtime.config
        self.n = cfg.n
        self.f = cfg.f
        self.current_round = 0
        self.halted = False
        self.parked = False
        self.crashed = False  # parked while inside a plan crash window
        self.buffers: dict[int, dict[int, Any]] = {}
        self.views: list[RoundView] = []
        self.emissions: dict[int, Any] = {}
        # round → the encoded data message broadcast for it (resends reuse it)
        self.broadcasts: dict[int, dict[str, Any]] = {}
        self.acks: dict[int, set[int]] = {}
        self.late_discarded = 0
        self.late_arrivals: list[tuple[int, int, int]] = []
        # Per-instance cc recorder (duck-typed TraceRecorder), attached via
        # ServiceRuntime.recorders before the instance starts; None keeps
        # the hot path free of recording branches' costs beyond one check.
        self.recorder: Any = endpoint.runtime.recorders.get(spec.name)
        self._wake = asyncio.Event()
        self._side_tasks: list[asyncio.Task] = []
        self._backoff = Backoff(
            base=cfg.retransmit_base,
            factor=2.0,
            cap=cfg.retransmit_cap,
            jitter=cfg.backoff_jitter,
            rng=random.Random(
                derive_seed("service-retransmit", cfg.seed, self.pid, spec.name)
            ),
        )

    # ------------------------------------------------------------- inbound

    def on_data(self, src: int, round_number: int, payload: Any) -> None:
        if self.halted or round_number < self.current_round:
            self.late_discarded += 1
            if not self.halted:
                # Attributed boundary crossing: a round the participant has
                # already left (strict-closure audit + cc certification).
                self.late_arrivals.append(
                    (src, round_number, self.current_round)
                )
                if self.recorder is not None:
                    self.recorder.on_discard(
                        self.pid, src, round_number, self.current_round
                    )
            return
        if self.recorder is not None:
            self.recorder.on_deliver(
                src, self.pid, (round_number, payload),
                self.endpoint.runtime.clock(),
            )
        # Dedupe by (src, round): the first copy wins, duplicates are noise.
        self.buffers.setdefault(round_number, {}).setdefault(src, payload)
        self._wake.set()

    def on_ack(self, src: int, round_number: int) -> None:
        self.acks.setdefault(round_number, set()).add(src)

    def wake(self) -> None:
        self._wake.set()

    # ----------------------------------------------------------- the loop

    async def run(self) -> None:
        clock = self.endpoint.runtime.clock
        for r in range(1, self.max_rounds + 1):
            self.current_round = r
            payload = self.process.emit(r)
            self.emissions[r] = payload
            self.buffers.setdefault(r, {})[self.pid] = payload  # self-delivery
            self.acks.setdefault(r, set()).add(self.pid)
            if self.recorder is not None:
                now = clock()
                for dst in range(self.n):
                    self.recorder.on_send(self.pid, dst, (r, payload), now)
                # Self-delivery is the buffer write above, not a socket
                # frame, so the delivery event is recorded here.
                self.recorder.on_deliver(self.pid, self.pid, (r, payload), now)
            self.broadcasts[r] = await self.endpoint.broadcast_data(
                self.spec.name, r, payload
            )
            self._side_tasks.append(
                asyncio.get_running_loop().create_task(self._retransmit(r))
            )
            deadline_at = clock() + self.endpoint.runtime.config.round_deadline
            view = await self._wait_round(r, deadline_at)
            if view is None:  # parked
                break
            self.views.append(view)
            self.process.absorb(view)
            if self.recorder is not None:
                self.recorder.on_advance(self.pid, view, self.process.decided)
            tracer = obs.current_tracer()
            if tracer.enabled:
                tracer.event(
                    "service.advance",
                    instance=self.spec.name, pid=self.pid, round=r,
                    suspected=sorted(view.suspected),
                    decided=self.process.decided,
                )
        self.halted = True

    async def _wait_round(self, r: int, deadline_at: float) -> RoundView | None:
        clock = self.endpoint.runtime.clock
        everyone = frozenset(range(self.n))
        while True:
            if self.endpoint.killed or self.halted:
                return None
            received = self.buffers.get(r, {})
            missing = everyone - frozenset(received)
            if not missing:
                return self._close_round(r)
            if (
                len(received) >= self.n - self.f
                and missing <= self.endpoint.suspicion.suspected
            ):
                return self._close_round(r)
            remaining = deadline_at - clock()
            if remaining <= 0:
                return self._degrade(r, received, missing)
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    def _close_round(self, r: int) -> RoundView:
        received = self.buffers.pop(r)
        suspected = frozenset(range(self.n)) - frozenset(received)
        return RoundView(
            pid=self.pid, round=r, messages=received,
            suspected=suspected, n=self.n,
        )

    def _degrade(
        self, r: int, received: dict[int, Any], missing: frozenset[int]
    ) -> RoundView | None:
        cfg = self.endpoint.runtime.config
        stats = self.endpoint.stats
        if (
            len(received) < self.n - self.f
            and self.endpoint.injector.crashed(self.pid)
        ):
            # Not degradation — this process is inside a plan crash window
            # and heard nothing because it is *down*.  It stops silently,
            # recorded as crashed; the survivors' suspicion handles it.
            self.crashed = True
            self.halted = True
            return None
        action = "advance" if len(received) >= self.n - self.f else "park"
        event = DegradationEvent(
            instance=self.spec.name,
            pid=self.pid,
            round=r,
            action=action,
            deadline=cfg.round_deadline,
            heard=frozenset(received),
            missing=missing,
            suspected=self.endpoint.suspicion.suspected,
            time=self.endpoint.runtime.clock(),
        )
        self.endpoint.runtime.degradations.add(event)
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.event(f"service.{'degraded' if action == 'advance' else 'parked'}",
                         **event.to_doc())
        if action == "advance":
            stats.degraded_rounds += 1
            return self._close_round(r)
        stats.parked_instances += 1
        self.parked = True
        self.halted = True
        return None

    async def _retransmit(self, r: int) -> None:
        """The backstop: resend the round-``r`` emission on a backoff timer
        until every peer acked it.

        Most losses are repaired sooner, by the endpoint's ack-gap
        detection, as soon as a later transmission on the same link is
        acked.  The timer catches what no later ack exposes: tail loss
        (nothing sent after the lost message on its link) and a dead peer.
        Continues after this participant advances past ``r`` (laggards still
        need old rounds — the reliable overlay's rule), gives up after the
        retry budget: a peer silent that long is the suspicion machinery's
        concern, not the transport's.
        """
        cfg = self.endpoint.runtime.config
        everyone = set(range(self.n))
        for attempt in range(1, cfg.retransmit_retries + 1):
            await asyncio.sleep(self._backoff.delay(attempt))
            missing = everyone - self.acks.get(r, set())
            if not missing or self.endpoint.runtime.stopping:
                return
            for dst in sorted(missing):
                await self.endpoint.send_data(
                    dst, self.broadcasts[r], resend="timer"
                )

    def cancel_side_tasks(self) -> None:
        for task in self._side_tasks:
            task.cancel()
        self._side_tasks.clear()

    def record(self, *, crashed: bool = False) -> ParticipantRecord:
        return ParticipantRecord(
            pid=self.pid,
            views=list(self.views),
            emissions=dict(self.emissions),
            process=self.process,
            parked=self.parked,
            crashed=crashed or self.crashed,
            late_discarded=self.late_discarded,
            late_arrivals=list(self.late_arrivals),
        )


# ---------------------------------------------------------------------------
# endpoints


class OutstandingTable:
    """One endpoint's unacked data transmissions, per destination in
    ``s`` order: the state of ack-gap loss detection.

    An entry leaves the table when it is acked, when a later ack proves it
    lost (:meth:`acked` returns it), or when its instance finishes
    (:meth:`forget`) — a killed peer never acks, so without the last rule
    the table would grow for as long as the runtime runs.

    Numbers follow the order in which senders reach :meth:`PeerLink.send`.
    Only a full send queue can reorder that (a sender woken from the
    backpressure wait may find its slot taken by a newer one); the gap then
    resends a message that is still queued — a redundant copy, never a
    missed loss.
    """

    def __init__(self) -> None:
        self._links: dict[int, OrderedDict[int, dict[str, Any]]] = {}
        self._instances: dict[str, list[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._links.values())

    def sent(self, dst: int, s: int, doc: dict[str, Any]) -> None:
        """Track data ``doc`` transmitted to ``dst`` as number ``s``.

        ``doc`` is the unnumbered message, shared by every transmission
        of it; a resend stamps a fresh copy."""
        entries = self._links.get(dst)
        if entries is None:
            entries = self._links[dst] = OrderedDict()
        entries[s] = doc
        self._instances.setdefault(doc["i"], []).append((dst, s))

    def acked(self, dst: int, s: int) -> list[dict[str, Any]]:
        """Apply ``dst``'s ack for ``s``: drop ``s`` and remove and return
        every earlier outstanding transmission to ``dst``, oldest first —
        the ack proves each lost, or its ack lost.  A repeated ack finds
        nothing left to remove."""
        lost: list[dict[str, Any]] = []
        entries = self._links.get(dst)
        while entries:
            first = next(iter(entries))
            if first > s:
                break
            doc = entries.popitem(last=False)[1]
            if first < s:
                lost.append(doc)
        return lost

    def forget(self, instance: str) -> None:
        """Drop every entry of a finished instance."""
        for dst, s in self._instances.pop(instance, ()):
            self._links[dst].pop(s, None)


class ServiceEndpoint:
    """One live process: TCP server, peer links, heartbeats, participants."""

    def __init__(self, runtime: "ServiceRuntime", pid: int) -> None:
        self.runtime = runtime
        self.pid = pid
        cfg = runtime.config
        self.stats = ServiceStats()
        self.injector = FaultInjector(
            cfg.plan,
            seed=derive_seed("service-chaos", cfg.seed, pid),
            clock=runtime.clock,
        )
        self.suspicion = SuspicionMonitor(
            pid,
            list(range(cfg.n)),
            initial_timeout=cfg.initial_timeout,
            timeout_bump=cfg.timeout_bump,
            hysteresis=cfg.hysteresis,
            stats=self.stats,
        )
        self.links: dict[int, PeerLink] = {}
        self.outstanding = OutstandingTable()
        self.participants: dict[str, _Participant] = {}
        self.server: asyncio.base_events.Server | None = None
        self.port: int | None = None
        self.killed = False
        self._tasks: list[asyncio.Task] = []

    # ----------------------------------------------------------- lifecycle

    async def start_server(self) -> None:
        cfg = self.runtime.config
        self.server = await asyncio.start_server(
            self._handle_connection, cfg.host, 0
        )
        self.port = self.server.sockets[0].getsockname()[1]

    def open_links(self) -> None:
        cfg = self.runtime.config
        for dst in range(cfg.n):
            if dst == self.pid:
                continue
            link = PeerLink(
                self.pid,
                dst,
                connect=self._connector(dst),
                injector=self.injector,
                stats=self.stats,
                backoff=Backoff(
                    base=cfg.connect_base,
                    factor=2.0,
                    cap=cfg.backoff_cap,
                    jitter=cfg.backoff_jitter,
                    rng=random.Random(
                        derive_seed("service-backoff", cfg.seed, self.pid, dst)
                    ),
                ),
                queue_capacity=cfg.queue_capacity,
                batch_max=cfg.batch_max,
                write_timeout=cfg.write_timeout,
                max_retries=cfg.max_retries,
                max_frame=cfg.max_frame,
            )
            link.start()
            self.links[dst] = link

    def _connector(self, dst: int):
        async def connect():
            cfg = self.runtime.config
            port = self.runtime.endpoints[dst].port
            if port is None:
                raise ConnectionError(f"endpoint {dst} has no server")
            return await asyncio.open_connection(cfg.host, port)

        return connect

    def start_heartbeats(self) -> None:
        self._tasks.append(
            asyncio.get_running_loop().create_task(
                self._heartbeat_loop(), name=f"heartbeat-{self.pid}"
            )
        )

    async def close(self) -> None:
        self.killed = True
        for task in self._tasks:
            task.cancel()
        self._tasks.clear()
        for participant in self.participants.values():
            participant.cancel_side_tasks()
            # A killed process stops executing: its participants terminate
            # immediately and silently (no park event — it is crashed, not
            # degraded; the *survivors'* suspicion handles the rest).
            participant.halted = True
            participant.wake()
        for link in self.links.values():
            await link.close()
        if self.server is not None:
            self.server.close()
            try:
                await self.server.wait_closed()
            except Exception:
                pass
            self.server = None

    # ---------------------------------------------------------- heartbeats

    async def _heartbeat_loop(self) -> None:
        cfg = self.runtime.config
        self.suspicion.note_start(self.runtime.clock())
        while not self.runtime.stopping and not self.killed:
            await asyncio.sleep(cfg.heartbeat_interval)
            for link in self.links.values():
                # A plan-crashed sender's heartbeats die in the injector —
                # silence is exactly what the peers should observe.  Never
                # block the detector tick on a stuck link.
                link.send_nowait({"t": "hb"})
            self.stats.heartbeats_sent += len(self.links)
            before = self.suspicion.suspected
            after = self.suspicion.check(self.runtime.clock())
            if after != before:
                for participant in self.participants.values():
                    participant.wake()

    # ------------------------------------------------------------- inbound

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        cfg = self.runtime.config
        src: int | None = None
        try:
            while True:
                frame = await read_frame(reader, max_frame=cfg.max_frame)
                if frame is None:
                    break
                kind = frame.get("kind")
                if kind == "hello":
                    src = int(frame["src"])
                    continue
                if src is None:
                    continue  # pre-hello garbage
                self.stats.frames_received += 1
                if self.killed or not self.injector.deliverable(
                    self.pid, self.stats
                ):
                    continue  # a crashed receiver hears nothing
                now = self.runtime.clock()
                self.suspicion.heard(src, now)
                messages = frame["m"] if kind == "batch" else [frame["m"]]
                for message in messages:
                    await self._dispatch(src, message)
        except (FrameError, ConnectionError, OSError):
            pass  # the sender's link will reconnect and retransmit
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, src: int, message: dict[str, Any]) -> None:
        tag = message.get("t")
        if tag == "hb":
            return
        instance = message.get("i")
        round_number = int(message.get("r", 0))
        if tag == "data":
            self.stats.messages_delivered += 1
            participant = self.participants.get(instance)
            if participant is not None:
                participant.on_data(
                    src, round_number, decode_payload(message["p"])
                )
            # Ack every data delivery, duplicates included — the sender's
            # earlier ack may have been lost (the reliable overlay's rule).
            # Acks go out in arrival order and echo ``s``: the sender's
            # ack-gap detection relies on both.
            link = self.links.get(src)
            if link is not None:
                await link.send({
                    "t": "ack", "i": instance, "r": round_number,
                    "s": message.get("s"),
                })
        elif tag == "ack":
            participant = self.participants.get(instance)
            if participant is not None:
                participant.on_ack(src, round_number)
            s = message.get("s")
            if s is not None:
                await self._resend_lost(src, self.outstanding.acked(src, s))

    async def _resend_lost(self, dst: int, lost: list[dict[str, Any]]) -> None:
        """Resend the transmissions an ack proved lost, once per
        ``(instance, round)``, skipping what ``dst`` has acked since and
        instances that have finished."""
        resent: set[tuple[str, int]] = set()
        for doc in lost:
            key = (doc["i"], doc["r"])
            participant = self.participants.get(key[0])
            if (
                participant is None
                or key in resent
                or dst in participant.acks.get(key[1], ())
                or self.runtime.stopping
            ):
                continue
            resent.add(key)
            await self.send_data(dst, doc, resend="ack-gap")

    # ------------------------------------------------------------ outbound

    async def broadcast_data(
        self, instance: str, round_number: int, payload: Any
    ) -> dict[str, Any]:
        """Send one round message to every peer; returns the encoded
        message for resends."""
        doc = {
            "t": "data", "i": instance, "r": round_number,
            "p": encode_payload(payload),
        }
        for dst in self.links:
            await self.send_data(dst, doc)
        return doc

    async def send_data(
        self, dst: int, doc: dict[str, Any], *, resend: str | None = None
    ) -> None:
        """Transmit data message ``doc`` to ``dst`` under the link's next
        ``s`` and track it in :attr:`outstanding` until acked.

        ``resend`` names why a round message goes out again (``"timer"``
        or ``"ack-gap"``); it is counted and traced as a retransmission.
        """
        link = self.links.get(dst)
        if link is None:
            return
        stamped = link.stamp(doc)
        self.outstanding.sent(dst, stamped["s"], doc)
        if resend is not None:
            self.stats.retransmissions += 1
            if resend == "ack-gap":
                self.stats.fast_retransmissions += 1
            tracer = obs.current_tracer()
            if tracer.enabled:
                tracer.event(
                    "service.retransmit",
                    reason=resend, instance=doc["i"], pid=self.pid, dst=dst,
                    round=doc["r"], s=stamped["s"],
                )
        await link.send(stamped)


# ---------------------------------------------------------------------------
# the runtime


class ServiceRuntime:
    """``n`` live endpoints plus the instance driver.

    Usage::

        runtime = ServiceRuntime(ServiceConfig(n=4, f=1))
        await runtime.start()
        result = await runtime.run_instance(
            InstanceSpec("c0", "consensus", inputs=(3, 1, 4, 1)))
        await runtime.stop()

    or synchronously via :func:`run_service`.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.endpoints = [
            ServiceEndpoint(self, pid) for pid in range(config.n)
        ]
        self.degradations = DegradationReport()
        # instance name → cc TraceRecorder; participants pick theirs up at
        # spawn time (see _Participant.recorder).  Populated either
        # directly or via run_instance_recorded().
        self.recorders: dict[str, Any] = {}
        self.stopping = False
        self._t0: float | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    def clock(self) -> float:
        """Seconds since :meth:`start` — the plan's time axis."""
        if self._t0 is None or self._loop is None:
            return 0.0
        return self._loop.time() - self._t0

    @property
    def stats(self) -> ServiceStats:
        """All endpoints' counters merged (the ``service.*`` rollup)."""
        total = ServiceStats()
        for endpoint in self.endpoints:
            total.merge(endpoint.stats)
        return total

    @property
    def killed(self) -> frozenset[int]:
        return frozenset(
            e.pid for e in self.endpoints if e.killed
        )

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        for endpoint in self.endpoints:
            await endpoint.start_server()
        for endpoint in self.endpoints:
            endpoint.open_links()
        for endpoint in self.endpoints:
            endpoint.start_heartbeats()
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.event(
                "service.start",
                n=self.config.n, f=self.config.f,
                ports=[e.port for e in self.endpoints],
            )

    async def stop(self) -> None:
        self.stopping = True
        for endpoint in self.endpoints:
            await endpoint.close()
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.event("service.stop", **self.stats.snapshot())

    async def kill(self, pid: int) -> None:
        """Hard-kill one process mid-run: server gone, links dead, silence.

        Peers observe exactly what a real crash looks like — connections
        reset and heartbeats stop — and must recover via suspicion.
        """
        endpoint = self.endpoints[pid]
        await endpoint.close()
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.event("service.kill", pid=pid, time=self.clock())

    async def __aenter__(self) -> "ServiceRuntime":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # ----------------------------------------------------------- instances

    async def run_instance(self, spec: InstanceSpec) -> InstanceResult:
        """Drive one instance to termination on every live endpoint.

        Termination is structural: every round is deadline-bounded and the
        round count is finite, so the await below is as well (a generous
        backstop guards against runtime bugs, not protocol behaviour).
        """
        if len(spec.inputs) != self.config.n:
            raise ValueError(
                f"instance {spec.name!r}: {len(spec.inputs)} inputs for "
                f"n={self.config.n} processes"
            )
        protocol, max_rounds = resolve_protocol(
            spec.protocol, f=self.config.f, k=spec.k
        )
        started = self.clock()
        participants: list[_Participant] = []
        for endpoint in self.endpoints:
            if endpoint.killed:
                continue
            if spec.name in endpoint.participants:
                raise ValueError(f"instance {spec.name!r} already running")
            participant = _Participant(
                endpoint,
                spec,
                protocol.spawn(endpoint.pid, self.config.n, spec.inputs[endpoint.pid]),
                max_rounds,
            )
            endpoint.participants[spec.name] = participant
            participants.append(participant)
        backstop = (max_rounds + 2) * self.config.round_deadline * 3 + 30.0
        tasks = [
            asyncio.get_running_loop().create_task(
                p.run(), name=f"instance-{spec.name}-p{p.pid}"
            )
            for p in participants
        ]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=backstop)
            for task in pending:  # only reachable on a runtime bug
                task.cancel()
        finished = self.clock()
        records: dict[int, ParticipantRecord] = {}
        for participant in participants:
            participant.cancel_side_tasks()
            endpoint = self.endpoints[participant.pid]
            endpoint.participants.pop(spec.name, None)
            endpoint.outstanding.forget(spec.name)
            records[participant.pid] = participant.record(
                crashed=endpoint.killed
            )
        for pid in range(self.config.n):
            if pid not in records:  # killed before the instance started
                records[pid] = ParticipantRecord(
                    pid=pid, views=[], emissions={},
                    process=_GhostProcess(), crashed=True,
                )
        ordered = [records[pid] for pid in range(self.config.n)]
        result = InstanceResult(
            spec=spec,
            n=self.config.n,
            f=self.config.f,
            records=ordered,
            degradations=self.degradations.for_instance(spec.name),
            crashed=self.killed | frozenset(
                r.pid for r in ordered if r.crashed
            ),
            started=started,
            finished=finished,
        )
        for record in result.records:
            if record.process.decided and not record.crashed:
                self.endpoints[record.pid].stats.instances_decided += 1
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.event(
                "service.instance_done",
                instance=spec.name,
                outcome=result.outcome.value,
                latency=result.latency,
                decisions=[repr(d) for d in result.decisions],
            )
        return result

    async def run_instance_recorded(self, spec: InstanceSpec):
        """Run one instance with a cc event recorder attached.

        Returns ``(result, async_trace)`` where the trace is a
        :class:`repro.cc.trace.AsyncTrace` of every tagged send, delivery,
        boundary-crossing discard, round advance and decision the live run
        produced — ready for :func:`repro.cc.certify.certify`.
        """
        from repro.cc.trace import TraceRecorder

        recorder = TraceRecorder()
        self.recorders[spec.name] = recorder
        try:
            result = await self.run_instance(spec)
        finally:
            self.recorders.pop(spec.name, None)
        end = self.clock()
        for record in result.records:
            if record.process.decided:
                recorder.on_decide(record.pid, record.process.decision, end)
        trace = recorder.build(
            n=self.config.n,
            f=self.config.f,
            inputs=spec.inputs,
            protocol=spec.protocol,
            crashed=result.crashed,
            source="service",
        )
        return result, trace

    async def run_instances(
        self, specs: Sequence[InstanceSpec]
    ) -> list[InstanceResult]:
        """Run many instances concurrently, multiplexed over the links."""
        return list(
            await asyncio.gather(*(self.run_instance(spec) for spec in specs))
        )


def run_service(
    config: ServiceConfig, specs: Sequence[InstanceSpec]
) -> tuple[ServiceStats, DegradationReport, list[InstanceResult]]:
    """Synchronous convenience: start, run ``specs``, stop, report."""

    async def _run() -> tuple[ServiceStats, DegradationReport, list[InstanceResult]]:
        runtime = ServiceRuntime(config)
        await runtime.start()
        try:
            results = await runtime.run_instances(specs)
        finally:
            await runtime.stop()
        return runtime.stats, runtime.degradations, results

    return asyncio.run(_run())
