"""Live transport: framing, backoff, fault injection, resilient peer links.

The wire format is length-prefixed JSON: a 4-byte big-endian length followed
by a UTF-8 JSON document.  Protocol payloads pass through a tagged encoding
(:func:`encode_payload` / :func:`decode_payload`) that survives the
JSON round trip losslessly for the payload shapes the catalog emits —
tuples, frozensets, and dicts with non-string keys all come back as the
exact Python values the sender emitted, which is what lets
:mod:`repro.core.audit` check communication closure (*payload equality*)
on live runs.

:class:`PeerLink` is one ordered-pair connection ``src → dst`` shared by
every protocol instance (and the heartbeat stream): a bounded send queue
with backpressure, a writer task that batches ready messages into a single
frame, per-message write timeouts, and reconnection with capped exponential
backoff plus jitter when the connection drops mid-stream.

Message kinds inside a frame: ``hb`` (heartbeat), ``data`` (instance
``i``, round ``r``, payload ``p``, per-link sequence number ``s``) and
``ack`` (``i``, ``r`` and the acked transmission's ``s``, echoed).
:meth:`PeerLink.stamp` numbers every data transmission — originals and
resends alike — before the fault plan sees it, so an injected drop leaves
the same gap in the echoed ``s`` values as a loss on the wire; the runtime
reads those gaps to resend lost round messages (see
:mod:`repro.service.runtime`).

:class:`FaultInjector` adapts a
:class:`~repro.substrates.messaging.chaos.FaultPlan` to live connections:
the same drop/dup/jitter/spike/partition/crash-window vocabulary the
simulated :class:`~repro.substrates.messaging.chaos.ChaosNetwork` executes,
applied at send/receive time against the service's monotonic clock.  All
chaos decisions draw from one seeded ``random.Random``, so the *decisions*
(not the timings) of a live run are reproducible.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro import obs
from repro.substrates.messaging.chaos import FaultPlan

__all__ = [
    "FrameError",
    "MAX_FRAME",
    "encode_frame",
    "read_frame",
    "encode_payload",
    "decode_payload",
    "Backoff",
    "FaultInjector",
    "ServiceStats",
    "PeerLink",
]

#: Default ceiling on a single frame's JSON body (1 MiB).
MAX_FRAME = 1 << 20

_LEN = struct.Struct(">I")


class FrameError(ValueError):
    """A frame violated the wire format (oversized, truncated, not JSON)."""


# ---------------------------------------------------------------------------
# framing


def encode_frame(doc: dict[str, Any], *, max_frame: int = MAX_FRAME) -> bytes:
    """``doc`` as one length-prefixed JSON frame."""
    body = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > max_frame:
        raise FrameError(f"frame of {len(body)} bytes exceeds max {max_frame}")
    return _LEN.pack(len(body)) + body


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame: int = MAX_FRAME
) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(header)
    if length > max_frame:
        raise FrameError(f"incoming frame of {length} bytes exceeds max {max_frame}")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None  # connection died mid-frame; caller reconnect logic owns it
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise FrameError(f"frame body is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FrameError(f"frame body must be an object, got {type(doc).__name__}")
    return doc


# ---------------------------------------------------------------------------
# payload codec — protocol payloads must survive JSON bit-exactly

_TAG = "!"


def encode_payload(value: Any) -> Any:
    """A JSON-safe encoding of a protocol payload.

    Scalars pass through; containers are tagged so tuples stay tuples,
    frozensets stay frozensets and dict keys keep their types on decode —
    the catalog's emissions (``("commit", v)`` tuples, view dicts keyed by
    int pid, suspicion frozensets) must round-trip *equal*, or the live
    communication-closure audit would flag every relayed payload.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TAG: "t", "v": [encode_payload(v) for v in value]}
    if isinstance(value, list):
        return {_TAG: "l", "v": [encode_payload(v) for v in value]}
    if isinstance(value, (frozenset, set)):
        items = [encode_payload(v) for v in value]
        items.sort(key=lambda e: json.dumps(e, sort_keys=True))
        return {_TAG: "fs" if isinstance(value, frozenset) else "s", "v": items}
    if isinstance(value, dict):
        return {
            _TAG: "d",
            "v": [[encode_payload(k), encode_payload(v)] for k, v in value.items()],
        }
    raise FrameError(
        f"payload of type {type(value).__name__} is not wire-encodable"
    )


def decode_payload(value: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    if not isinstance(value, dict):
        if isinstance(value, list):  # only produced by hand-built frames
            return [decode_payload(v) for v in value]
        return value
    tag = value.get(_TAG)
    items = value.get("v", ())
    if tag == "t":
        return tuple(decode_payload(v) for v in items)
    if tag == "l":
        return [decode_payload(v) for v in items]
    if tag == "fs":
        return frozenset(decode_payload(v) for v in items)
    if tag == "s":
        return {decode_payload(v) for v in items}
    if tag == "d":
        return {decode_payload(k): decode_payload(v) for k, v in items}
    raise FrameError(f"unknown payload tag {tag!r}")


# ---------------------------------------------------------------------------
# backoff


@dataclass
class Backoff:
    """Capped exponential backoff with multiplicative jitter.

    ``delay(attempt)`` for attempt 1, 2, ... is
    ``min(base * factor**(attempt-1), cap) * (1 + jitter * u)`` with
    ``u ~ U[0, 1)`` from the owned generator — jitter only ever *adds*, so
    a delay is never shorter than the deterministic schedule, and
    simultaneous retriers cannot stay phase-locked into retry storms.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.25
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def __post_init__(self) -> None:
        if self.base <= 0 or self.factor < 1 or self.cap < self.base:
            raise ValueError(
                f"need base > 0, factor ≥ 1, cap ≥ base; got "
                f"{self.base}, {self.factor}, {self.cap}"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be ≥ 0, got {self.jitter}")

    def delay(self, attempt: int) -> float:
        if attempt < 1:
            raise ValueError(f"attempt numbers start at 1, got {attempt}")
        raw = min(self.base * self.factor ** (attempt - 1), self.cap)
        if self.jitter:
            raw *= 1.0 + self.jitter * self.rng.random()
        return raw


# ---------------------------------------------------------------------------
# fault injection against live connections


class FaultInjector:
    """A :class:`FaultPlan` executed against the live transport.

    The plan's time axis is interpreted on the service clock (seconds since
    the runtime started).  The decision pipeline per message mirrors the
    simulated :class:`~repro.substrates.messaging.chaos.ChaosNetwork`:
    crash window (sender), partition, drop, duplication, then per-copy
    extra latency (jitter + spike).  ``admit`` returns the list of copies
    to actually transmit, as per-copy extra delays — empty means the
    message is lost.
    """

    def __init__(
        self,
        plan: FaultPlan | None,
        *,
        seed: int = 0,
        clock: Callable[[], float],
    ) -> None:
        self.plan = plan or FaultPlan()
        self.rng = random.Random(seed)
        self.clock = clock

    def crashed(self, pid: int) -> bool:
        """Is ``pid`` inside one of its crash windows right now?"""
        now = self.clock()
        return any(
            w.covers(now) for w in self.plan.crashes.get(pid, ())
        )

    def admit(self, src: int, dst: int, stats: "ServiceStats") -> list[float]:
        """Fault-decide one ``src → dst`` message; returns per-copy delays."""
        now = self.clock()
        if self.crashed(src):
            stats.messages_dropped_crash += 1
            return []
        if self.plan.blocked(src, dst, now):
            stats.messages_partition_blocked += 1
            return []
        faults = self.plan.faults_for(src, dst)
        if faults.drop_prob and self.rng.random() < faults.drop_prob:
            stats.messages_dropped_chaos += 1
            return []
        copies = 1
        if faults.dup_prob and self.rng.random() < faults.dup_prob:
            copies = 2
            stats.messages_duplicated += 1
        delays = []
        for _ in range(copies):
            extra = 0.0
            if faults.jitter:
                extra += self.rng.uniform(0.0, faults.jitter)
            if faults.spike_prob and self.rng.random() < faults.spike_prob:
                extra += faults.spike
                stats.delay_spikes += 1
            if extra:
                stats.messages_delayed += 1
            delays.append(extra)
        return delays

    def deliverable(self, dst: int, stats: "ServiceStats") -> bool:
        """Receive-side check: a crashed process hears nothing."""
        if self.crashed(dst):
            stats.messages_dropped_crash += 1
            return False
        return True


# ---------------------------------------------------------------------------
# stats — the shared obs field-snapshot/merge/publish contract


@dataclass
class ServiceStats:
    """Live-transport and runtime counters (the ``service.*`` family).

    Plain int fields on the hot path; exported through the shared
    :mod:`repro.obs.metrics` field contract, so ``--metrics`` reports them
    exactly like ``overlay.*`` / ``chaos.*``.  ``queue_high_water`` is a
    high-water mark, not a counter — it merges by ``max`` and publishes as
    a gauge, outside the counter fields.  ``retransmissions`` counts every
    round-message resend; ``fast_retransmissions`` is the part of it that
    ack-gap loss detection sent (the rest are retransmit-timer resends).
    """

    frames_sent: int = 0
    frames_received: int = 0
    batches_sent: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_chaos: int = 0
    messages_dropped_crash: int = 0
    messages_partition_blocked: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    delay_spikes: int = 0
    retries: int = 0
    retransmissions: int = 0
    fast_retransmissions: int = 0
    reconnects: int = 0
    send_failures: int = 0
    heartbeats_sent: int = 0
    suspicions_raised: int = 0
    suspicions_cleared: int = 0
    timeout_bumps: int = 0
    degraded_rounds: int = 0
    parked_instances: int = 0
    instances_decided: int = 0

    queue_high_water: int = field(default=0, compare=False)

    _COUNTER_FIELDS = (
        "frames_sent", "frames_received", "batches_sent", "messages_sent",
        "messages_delivered", "messages_dropped_chaos",
        "messages_dropped_crash", "messages_partition_blocked",
        "messages_duplicated", "messages_delayed", "delay_spikes", "retries",
        "retransmissions", "fast_retransmissions", "reconnects",
        "send_failures", "heartbeats_sent",
        "suspicions_raised", "suspicions_cleared", "timeout_bumps",
        "degraded_rounds", "parked_instances", "instances_decided",
    )

    def snapshot(self) -> dict[str, int]:
        """Plain picklable snapshot (the shared obs contract), including
        the high-water mark under its own key."""
        snap = obs.field_snapshot(self, self._COUNTER_FIELDS)
        snap["queue_high_water"] = self.queue_high_water
        return snap

    def merge(self, other: "ServiceStats | dict[str, int]") -> None:
        """Counters add; the queue high-water mark merges by ``max``."""
        snap = other.snapshot() if isinstance(other, ServiceStats) else other
        obs.merge_field_snapshots(self, snap, self._COUNTER_FIELDS)
        self.queue_high_water = max(
            self.queue_high_water, snap.get("queue_high_water", 0)
        )

    def publish(self, metrics: "obs.Metrics", prefix: str = "service") -> None:
        """Counters as ``{prefix}.{field}``; high-water as a gauge."""
        obs.publish_fields(metrics, prefix, self, self._COUNTER_FIELDS)
        if metrics.enabled:
            gauge = metrics.gauge(f"{prefix}.queue_high_water")
            gauge.set(max(self.queue_high_water, gauge.value or 0))


# ---------------------------------------------------------------------------
# the resilient peer link


class PeerLink:
    """One ordered-pair connection ``src → dst``, shared by all instances.

    Messages enter through :meth:`send` into a *bounded* queue —
    ``await``-ing the put is the backpressure: a producer flooding a slow
    link is slowed to the link's pace instead of ballooning memory.  A
    writer task drains the queue; consecutive ready messages coalesce into
    one ``batch`` frame (round batching across the instances multiplexed on
    the link).  Writes run under a per-message timeout; on timeout or
    connection failure the link reconnects with capped exponential backoff
    plus jitter and retransmits the in-flight batch.  A message is dropped
    (counted in ``send_failures``) only after ``max_retries`` failed
    transmission attempts — loss beyond that budget is the round layer's
    (retransmit + suspicion) problem, by design.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        *,
        connect: Callable[[], Awaitable[tuple[asyncio.StreamReader, asyncio.StreamWriter]]],
        injector: FaultInjector,
        stats: ServiceStats,
        backoff: Backoff,
        queue_capacity: int = 1024,
        batch_max: int = 64,
        write_timeout: float = 5.0,
        max_retries: int = 8,
        max_frame: int = MAX_FRAME,
    ) -> None:
        self.src = src
        self.dst = dst
        self._connect = connect
        self.injector = injector
        self.stats = stats
        self.backoff = backoff
        self.batch_max = batch_max
        self.write_timeout = write_timeout
        self.max_retries = max_retries
        self.max_frame = max_frame
        self.queue: asyncio.Queue[tuple[dict[str, Any], float]] = asyncio.Queue(
            maxsize=queue_capacity
        )
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        self._ever_connected = False
        self._next_seq = 0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._drain(), name=f"link-{self.src}->{self.dst}"
        )

    async def close(self) -> None:
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None
        await self._close_writer()

    async def _close_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # ----------------------------------------------------------------- send

    def stamp(self, doc: dict[str, Any]) -> dict[str, Any]:
        """A copy of data ``doc`` carrying this link's next sequence
        number ``s`` (0, 1, 2, ... per link).  Call it just before
        :meth:`send`: the number is taken before the fault plan decides
        the message's fate."""
        stamped = {**doc, "s": self._next_seq}
        self._next_seq += 1
        return stamped

    async def send(self, doc: dict[str, Any]) -> None:
        """Enqueue ``doc`` for transmission, applying the fault plan.

        Blocks (backpressure) when the bounded queue is full.  Dropped /
        blocked / crashed messages are consumed here and never reach the
        wire, exactly like the simulated chaos network's send path.
        """
        self.stats.messages_sent += 1
        for delay in self.injector.admit(self.src, self.dst, self.stats):
            await self.queue.put((doc, delay))
            size = self.queue.qsize()
            if size > self.stats.queue_high_water:
                self.stats.queue_high_water = size

    def send_nowait(self, doc: dict[str, Any]) -> bool:
        """Best-effort :meth:`send` for traffic that must never block the
        caller (heartbeats): a full queue drops the message instead of
        exerting backpressure, because a heartbeat delayed behind a stuck
        queue is worthless anyway.  Returns whether it was enqueued."""
        self.stats.messages_sent += 1
        enqueued = False
        for delay in self.injector.admit(self.src, self.dst, self.stats):
            try:
                self.queue.put_nowait((doc, delay))
            except asyncio.QueueFull:
                self.stats.send_failures += 1
                continue
            enqueued = True
            size = self.queue.qsize()
            if size > self.stats.queue_high_water:
                self.stats.queue_high_water = size
        return enqueued

    # --------------------------------------------------------------- writer

    async def _drain(self) -> None:
        while not self._closed:
            doc, delay = await self.queue.get()
            if delay > 0:
                # Injected extra latency (jitter / spike).  Applied in-line:
                # the link models one TCP stream, so delaying a message
                # delays what is queued behind it, like a real slow link.
                await asyncio.sleep(delay)
            batch = [doc]
            while len(batch) < self.batch_max:
                try:
                    extra_doc, extra_delay = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra_delay > 0:
                    # keep delayed messages one-per-write so their latency
                    # is honoured; re-queue would reorder, so just flush
                    # the current batch first and sleep on the next loop.
                    batch.append(extra_doc)
                    await self._transmit(batch)
                    batch = []
                    await asyncio.sleep(extra_delay)
                    break
                batch.append(extra_doc)
            if batch:
                await self._transmit(batch)

    async def _transmit(self, batch: list[dict[str, Any]]) -> None:
        if len(batch) == 1:
            frame = encode_frame(
                {"kind": "m", "src": self.src, "m": batch[0]},
                max_frame=self.max_frame,
            )
        else:
            frame = encode_frame(
                {"kind": "batch", "src": self.src, "m": batch},
                max_frame=self.max_frame,
            )
            self.stats.batches_sent += 1
        for attempt in range(1, self.max_retries + 1):
            try:
                writer = await self._ensure_writer()
                writer.write(frame)
                await asyncio.wait_for(writer.drain(), self.write_timeout)
                self.stats.frames_sent += 1
                return
            except (ConnectionError, OSError, asyncio.TimeoutError):
                await self._close_writer()
                self.stats.retries += 1
                tracer = obs.current_tracer()
                if tracer.enabled:
                    tracer.event(
                        "service.retry",
                        src=self.src, dst=self.dst, attempt=attempt,
                    )
                if attempt < self.max_retries:
                    await asyncio.sleep(self.backoff.delay(attempt))
        self.stats.send_failures += len(batch)

    async def _ensure_writer(self) -> asyncio.StreamWriter:
        # One attempt only — _transmit owns the retry/backoff budget, so a
        # hard-down peer costs max_retries attempts total, not squared.
        if self._writer is not None:
            return self._writer
        _, writer = await asyncio.wait_for(self._connect(), self.write_timeout)
        hello = encode_frame({"kind": "hello", "src": self.src})
        writer.write(hello)
        await asyncio.wait_for(writer.drain(), self.write_timeout)
        self._writer = writer
        if self._ever_connected:
            self.stats.reconnects += 1
            tracer = obs.current_tracer()
            if tracer.enabled:
                tracer.event("service.reconnect", src=self.src, dst=self.dst)
        self._ever_connected = True
        return writer
