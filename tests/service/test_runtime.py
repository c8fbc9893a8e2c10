"""The live asyncio runtime over real localhost sockets.

These tests run real servers, links, heartbeats and instances.  Timeouts are
kept tight (fault-free rounds complete in milliseconds) but every assertion
is on *structure* — outcomes, views, audit verdicts — never on wall-clock
numbers, so a loaded CI machine cannot flake them.
"""

import asyncio

import pytest

from repro import obs
from repro.core.replay import verify_trace_consistency
from repro.obs import validate_events
from repro.service.loadgen import make_specs, run_load
from repro.service.runtime import (
    InstanceOutcome,
    InstanceSpec,
    OutstandingTable,
    ServiceConfig,
    ServiceRuntime,
    audit_instance,
    resolve_protocol,
    run_service,
)
from repro.service.transport import Backoff, PeerLink
from repro.substrates.messaging.chaos import (
    CrashWindow,
    FaultPlan,
    LinkFaults,
    Partition,
)


class TestResolveProtocol:
    def test_catalog(self):
        protocol, rounds = resolve_protocol("consensus", f=2)
        assert rounds == 3
        assert protocol.name.startswith("floodset")
        _, rounds = resolve_protocol("kset", f=4, k=2)
        assert rounds == 3
        _, rounds = resolve_protocol("adopt-commit", f=1)
        assert rounds == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_protocol("paxos", f=1)


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(n=3, f=3)
        with pytest.raises(ValueError):
            ServiceConfig(n=3, f=-1)
        with pytest.raises(ValueError):
            ServiceConfig(n=3, f=1, heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(n=3, f=1, round_deadline=-1.0)

    @pytest.mark.parametrize("knobs", [
        # each used to construct fine and fail (or misbehave) only later
        {"retransmit_cap": 0.05},  # < retransmit_base: Backoff raised mid-run
        {"retransmit_retries": -1},  # silently disabled retransmission
        {"max_retries": -1},
        {"backoff_cap": 0.01},  # < connect_base
        {"connect_base": 0.0},
        {"backoff_jitter": -0.1},
    ])
    def test_backoff_knobs_rejected_at_construction(self, knobs):
        with pytest.raises(ValueError):
            ServiceConfig(n=4, f=1, **knobs)

    def test_boundary_knobs_accepted(self):
        ServiceConfig(n=4, f=1, retransmit_cap=0.1, retransmit_retries=0,
                      max_retries=0, backoff_cap=0.05, backoff_jitter=0.0)


class TestFaultFreeRun:
    def test_consensus_decides_and_certifies(self):
        """The headline acceptance check: a fault-free live run must decide,
        and its projected trace must pass the simulator-grade audit —
        communication closure included — plus replay consistency."""
        config = ServiceConfig(n=4, f=1, seed=7)
        stats, degradations, (result,) = run_service(
            config, [InstanceSpec("c0", "consensus", inputs=(1, 0, 1, 1))]
        )
        assert result.outcome is InstanceOutcome.DECIDED
        assert len(set(result.decisions)) == 1
        assert len(degradations) == 0

        report = audit_instance(result)
        assert report.ok, report.violations
        assert report.views_checked == 4 * 2  # n=4, f+1=2 rounds

        trace = result.to_trace()
        assert len(trace.rounds) == 2
        verify_trace_consistency(trace)

        assert stats.instances_decided == 4

    def test_adopt_commit_unanimous_commits(self):
        _, _, (result,) = run_service(
            ServiceConfig(n=3, f=1),
            [InstanceSpec("ac", "adopt-commit", inputs=(5, 5, 5))],
        )
        assert result.outcome is InstanceOutcome.DECIDED
        for decision in result.decisions:
            assert decision.committed
            assert decision.value == 5
        assert audit_instance(result).ok

    def test_kset_respects_k(self):
        _, _, (result,) = run_service(
            ServiceConfig(n=5, f=2),
            [InstanceSpec("k0", "kset", inputs=(4, 2, 3, 1, 0), k=2)],
        )
        assert result.outcome is InstanceOutcome.DECIDED
        assert len(set(result.decisions)) <= 2
        assert audit_instance(result).ok

    def test_concurrent_instances_multiplex_one_runtime(self):
        specs = [
            InstanceSpec(f"c{i}", "consensus", inputs=(i % 2, 1, 0, 1))
            for i in range(10)
        ]
        stats, _, results = run_service(ServiceConfig(n=4, f=1), specs)
        assert all(r.outcome is InstanceOutcome.DECIDED for r in results)
        for result in results:
            assert audit_instance(result).ok
        assert stats.instances_decided == 40

    def test_input_arity_checked(self):
        with pytest.raises(ValueError):
            run_service(
                ServiceConfig(n=4, f=1),
                [InstanceSpec("bad", "consensus", inputs=(1, 2))],
            )


class TestChaosRuns:
    def test_lossy_links_still_decide(self):
        """Retransmission + acks mask a 20% loss rate completely."""
        config = ServiceConfig(
            n=4, f=1, seed=3,
            plan=FaultPlan(default=LinkFaults(drop_prob=0.2, dup_prob=0.1)),
        )
        stats, _, results = run_service(
            config,
            [
                InstanceSpec(f"c{i}", "consensus", inputs=(1, 0, 1, 0))
                for i in range(5)
            ],
        )
        for result in results:
            assert result.outcome in (
                InstanceOutcome.DECIDED, InstanceOutcome.DEGRADED
            )
            assert audit_instance(result).ok
        assert stats.messages_dropped_chaos > 0

    def test_crash_window_process_reported_crashed_not_parked(self):
        """A plan-crashed process that misses a round is recorded as
        crashed — parking it would misreport downtime as degradation."""
        config = ServiceConfig(
            n=4, f=1, seed=1,
            round_deadline=0.6,
            initial_timeout=0.15,
            timeout_bump=0.1,
            heartbeat_interval=0.03,
            plan=FaultPlan(crashes={2: [CrashWindow(down=0.0, up=30.0)]}),
        )
        _, _, results = run_service(
            config, [InstanceSpec("c0", "consensus", inputs=(0, 1, 1, 1))]
        )
        (result,) = results
        assert 2 in result.crashed
        assert not result.records[2].parked
        # The survivors close their rounds with 2 in D and still agree.
        live = [r for r in result.records if r.pid != 2]
        assert all(r.process.decided for r in live)
        assert len({r.process.decision for r in live}) == 1
        assert audit_instance(result).ok

    def test_partition_beyond_budget_parks_honestly(self):
        """A 2|2 split exceeds f=1: advancing would break |D| ≤ f, so
        participants park (structured, audited) instead of hanging."""
        config = ServiceConfig(
            n=4, f=1, seed=5,
            round_deadline=0.4,
            retransmit_retries=3,
            retransmit_cap=0.2,
            plan=FaultPlan(partitions=[
                Partition(start=0.0, end=30.0,
                          groups=(frozenset({0, 1}), frozenset({2, 3})))
            ]),
        )
        _, degradations, (result,) = run_service(
            config, [InstanceSpec("c0", "consensus", inputs=(0, 1, 1, 1))]
        )
        assert result.outcome is InstanceOutcome.PARKED
        assert degradations.parks > 0
        # Parked views that were recorded still satisfy the predicates.
        assert audit_instance(result).ok


async def _kill_in_round_one(runtime, name, victim):
    """Kill ``victim`` once its participant in instance ``name`` has
    emitted round 1, before it closes it.

    Polled on every event-loop turn: a round cannot close in the turn its
    messages are emitted (they must cross sockets first), so the victim
    never sends round 2, however fast loss is repaired.
    """
    while True:
        participant = runtime.endpoints[victim].participants.get(name)
        if participant is not None and participant.emissions:
            break
        await asyncio.sleep(0)
    await runtime.kill(victim)


class TestKillMidRun:
    def test_kill_yields_suspicion_then_decision(self):
        """Killing a process mid-run: survivors suspect it (it lands in D)
        and still decide — the acceptance scenario, as a test."""

        async def scenario():
            config = ServiceConfig(
                n=4, f=1, seed=2,
                round_deadline=1.5,
                initial_timeout=0.12,
                timeout_bump=0.08,
                heartbeat_interval=0.025,
                plan=FaultPlan(default=LinkFaults(drop_prob=0.4)),
            )
            async with ServiceRuntime(config) as runtime:
                task = asyncio.get_running_loop().create_task(
                    runtime.run_instance(
                        InstanceSpec("c0", "consensus", inputs=(1, 1, 1, 0))
                    )
                )
                # Killed inside round 1: pid 3 never sends round 2.
                await _kill_in_round_one(runtime, "c0", victim=3)
                return await task, runtime.stats

        result, stats = asyncio.run(scenario())
        assert 3 in result.crashed
        survivors = [r for r in result.records if r.pid != 3]
        for record in survivors:
            assert record.process.decided
            # The kill happened before round 1 could complete cleanly, so
            # the dead peer must appear in some survivor's suspicion set.
            assert any(3 in view.suspected for view in record.views)
        assert len({r.process.decision for r in survivors}) == 1
        assert stats.suspicions_raised >= 1
        assert audit_instance(result).ok

    def test_kill_mid_round_keeps_survivor_rounds_in_trace(self):
        """Regression: ``to_overlay_result().to_trace()`` used to truncate
        to the common prefix over *all* records — a kill() during round r
        silently dropped the survivors' completed round r (and a process
        killed before the instance started zeroed the whole trace).  The
        projection must keep the live common prefix, crash-pad the victim,
        and still satisfy the replay-consistency and core.audit checks."""

        async def scenario():
            config = ServiceConfig(
                n=4, f=1, seed=5,
                round_deadline=1.5,
                initial_timeout=0.12,
                timeout_bump=0.08,
                heartbeat_interval=0.025,
                plan=FaultPlan(default=LinkFaults(drop_prob=0.4)),
            )
            async with ServiceRuntime(config) as runtime:
                task = asyncio.get_running_loop().create_task(
                    runtime.run_instance(
                        InstanceSpec("k1", "consensus", inputs=(2, 0, 1, 3))
                    )
                )
                # Killed inside round 1: its view count stays 0 while the
                # survivors close round 1 and go on.
                await _kill_in_round_one(runtime, "k1", victim=3)
                return await task

        result = asyncio.run(scenario())
        assert 3 in result.crashed
        survivors = [r for r in result.records if r.pid != 3]
        live_depth = min(len(r.views) for r in survivors)
        assert live_depth >= 1  # survivors completed rounds after the kill
        trace = result.to_trace()
        # The survivors' completed rounds are all present, not silently
        # dropped down to the victim's (possibly empty) view count.
        assert trace.num_rounds == live_depth
        assert live_depth > len(result.records[3].views)
        verify_trace_consistency(trace)
        # The victim's padded rows attribute the crash rounds explicitly.
        for r in range(len(result.records[3].views), live_depth):
            padded = trace.rounds[r].views[3]
            assert padded.suspected == frozenset({0, 1, 2})
            assert set(padded.messages) == {3}
        # Survivor decisions survive the projection, and the audited views
        # (the *real* recorded ones, not the padding) stay clean.
        for record in survivors:
            assert trace.decisions[record.pid] == record.process.decision
        assert audit_instance(result).ok


class TestRuntimeLifecycle:
    def test_double_instance_name_rejected(self):
        async def scenario():
            async with ServiceRuntime(ServiceConfig(n=3, f=1)) as runtime:
                spec = InstanceSpec("dup", "consensus", inputs=(1, 2, 3))
                task = asyncio.get_running_loop().create_task(
                    runtime.run_instance(spec)
                )
                await asyncio.sleep(0)  # let it register
                with pytest.raises(ValueError):
                    await runtime.run_instance(spec)
                await task

        asyncio.run(scenario())

    def test_stats_rollup_merges_endpoints(self):
        stats, _, _ = run_service(
            ServiceConfig(n=3, f=1),
            [InstanceSpec("c0", "consensus", inputs=(1, 2, 3))],
        )
        snap = stats.snapshot()
        assert snap["frames_sent"] > 0
        assert snap["messages_delivered"] > 0
        assert snap["queue_high_water"] >= 1


def _data(instance, round_number):
    return {"t": "data", "i": instance, "r": round_number, "p": 0}


class TestOutstandingTable:
    def test_ack_returns_exactly_the_earlier_entries_to_that_peer(self):
        table = OutstandingTable()
        for s in range(4):
            table.sent(1, s, _data("x", s + 1))
        table.sent(2, 0, _data("x", 1))
        lost = table.acked(1, 3)
        assert [doc["r"] for doc in lost] == [1, 2, 3]
        assert len(table) == 1  # only peer 2's transmission is left
        assert table.acked(2, 0) == []
        assert len(table) == 0

    def test_acked_entries_never_come_back(self):
        table = OutstandingTable()
        for s in range(3):
            table.sent(1, s, _data("x", s + 1))
        assert table.acked(1, 0) == []
        assert [doc["r"] for doc in table.acked(1, 2)] == [2]
        # duplicate acks, the newest and an older one, are no-ops
        assert table.acked(1, 2) == []
        assert table.acked(1, 0) == []

    def test_forget_drops_a_finished_instance(self):
        table = OutstandingTable()
        table.sent(1, 0, _data("x", 1))
        table.sent(1, 1, _data("y", 1))
        table.sent(2, 0, _data("x", 1))
        table.forget("x")
        assert len(table) == 1
        assert table.acked(1, 5)[0]["i"] == "y"


class _StandIn:
    """The slice of a participant the ack dispatch reads."""

    def __init__(self):
        self.acks = {}

    def on_ack(self, src, round_number):
        self.acks.setdefault(round_number, set()).add(src)


class TestAckGapDispatch:
    """A hand-fed ack stream through one endpoint's real dispatch path."""

    @staticmethod
    def _endpoint():
        runtime = ServiceRuntime(ServiceConfig(n=3, f=1))
        endpoint = runtime.endpoints[0]

        async def refuse():
            raise ConnectionError("never started")

        for dst in (1, 2):
            endpoint.links[dst] = PeerLink(
                0, dst, connect=refuse, injector=endpoint.injector,
                stats=endpoint.stats, backoff=Backoff(),
            )
        endpoint.participants["x"] = _StandIn()
        return endpoint

    @staticmethod
    def _queued(link):
        return [(doc["r"], doc["s"]) for doc, _ in list(link.queue._queue)]

    def test_ack_gap_resends_only_what_the_peer_still_lacks(self):
        async def scenario():
            endpoint = self._endpoint()
            link1, link2 = endpoint.links[1], endpoint.links[2]
            for r in (1, 2, 3, 4):  # s = 0..3 on link 1
                await endpoint.send_data(1, _data("x", r))
            await endpoint.send_data(2, _data("x", 1))  # s = 0 on link 2
            ack = lambda r, s: {"t": "ack", "i": "x", "r": r, "s": s}

            await endpoint._dispatch(1, ack(1, 0))
            assert self._queued(link1) == [(1, 0), (2, 1), (3, 2), (4, 3)]
            # s=3 acked: s=1 and s=2 were lost; resent at once, renumbered
            await endpoint._dispatch(1, ack(4, 3))
            assert self._queued(link1)[4:] == [(2, 4), (3, 5)]
            assert self._queued(link2) == [(1, 0)]  # other peer untouched
            assert endpoint.stats.fast_retransmissions == 2

            # duplicate acks (the injector's dup copies) change nothing
            await endpoint._dispatch(1, ack(4, 3))
            await endpoint._dispatch(1, ack(1, 0))
            assert len(self._queued(link1)) == 6

            # the timer resends round 2 (s=6) and that copy is acked: s=4
            # (round 2) and s=5 (round 3) are proven lost, but the peer now
            # has round 2, so only round 3 goes out again
            await endpoint.send_data(1, _data("x", 2), resend="timer")
            await endpoint._dispatch(1, ack(2, 6))
            assert self._queued(link1)[6:] == [(2, 6), (3, 7)]
            await endpoint._dispatch(1, ack(3, 5))  # stale: s=5 < s=6
            assert len(self._queued(link1)) == 8
            assert endpoint.stats.fast_retransmissions == 3
            assert endpoint.stats.retransmissions == 4  # includes the timer's

            # a finished instance is never resent
            await endpoint.send_data(1, _data("x", 5))
            await endpoint.send_data(1, _data("x", 6))
            del endpoint.participants["x"]
            await endpoint._dispatch(1, ack(6, 9))
            assert len(self._queued(link1)) == 10
            assert endpoint.stats.fast_retransmissions == 3
            assert len(endpoint.outstanding) == 1  # link 2's s=0
            endpoint.outstanding.forget("x")
            assert len(endpoint.outstanding) == 0

        asyncio.run(scenario())


class TestAckGapRuntime:
    def test_fault_free_burst_detects_no_loss(self):
        result = run_load(n=4, f=1, instances=200, protocol="mix",
                          plan="none", seed=0)
        assert result.count(InstanceOutcome.DECIDED) == 200
        assert result.violations == 0
        assert result.stats.fast_retransmissions == 0

    def test_lossy_plan_repairs_by_ack_gap(self):
        result = run_load(n=4, f=1, instances=40, protocol="mix",
                          plan="drop", seed=3)
        assert result.stats.fast_retransmissions > 0
        assert result.stats.retransmissions >= result.stats.fast_retransmissions
        assert result.count(InstanceOutcome.DECIDED) == 40
        assert all(audit.ok for audit in result.audits)

    @staticmethod
    def _lossy_run_with_kill(tracer=None):
        """Two lossy batches, the second with pid 3 killed mid-run;
        returns the outstanding-table sizes after each batch."""

        async def scenario():
            # Default detector timing: suspecting the victim takes longer
            # than the first retransmit-timer step, so the timer resends
            # to the victim (which acks nothing) before the survivors move on.
            config = ServiceConfig(
                n=4, f=1, seed=4,
                plan=FaultPlan(default=LinkFaults(drop_prob=0.2, dup_prob=0.1)),
            )
            async with ServiceRuntime(config) as runtime:
                first = await runtime.run_instances(make_specs(10, 4, "mix", 1, 1))
                sizes = [sum(len(e.outstanding) for e in runtime.endpoints)]
                task = asyncio.get_running_loop().create_task(
                    runtime.run_instances(make_specs(10, 4, "mix", 1, 2))
                )
                await _kill_in_round_one(runtime, "i0000-consensus", victim=3)
                second = await task
                sizes.append(sum(len(e.outstanding) for e in runtime.endpoints))
                return first + second, sizes, runtime.stats

        with obs.tracing(tracer):
            return asyncio.run(scenario())

    def test_outstanding_table_empties_including_after_kill(self):
        results, sizes, _ = self._lossy_run_with_kill()
        assert sizes == [0, 0]
        assert all(audit_instance(r).ok for r in results)

    def test_retransmit_events_name_their_reason(self, tmp_path):
        tracer = obs.Tracer()
        _, _, stats = self._lossy_run_with_kill(tracer)
        path = tracer.save(tmp_path / "events.jsonl")
        assert validate_events(path.read_text().splitlines()) == []
        events = [r for r in tracer.records if r.name == "service.retransmit"]
        for event in events:
            assert set(event.attrs) == {
                "reason", "instance", "pid", "dst", "round", "s"
            }
        reasons = [event.attrs["reason"] for event in events]
        # resends to the killed peer can only come from the timer
        assert set(reasons) == {"ack-gap", "timer"}
        assert len(events) == stats.retransmissions
        assert reasons.count("ack-gap") == stats.fast_retransmissions
