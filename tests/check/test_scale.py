"""The scale-out layer: work-stealing scheduler, shared table, BFS/resume.

The determinism contract under test, in three layers:

- **cross-scheduler** (serial DFS vs steal vs BFS): identical histories /
  executions / pruned / skipped_symmetric and identical violation sets.
  ``visited`` / ``rounds_executed`` are *work* counters and legitimately
  differ between schedulers (the task builder absorbs interior-node work
  and every task replays its prefix).
- **cross-worker-count** (steal at 1/2/4 workers): *every* deterministic
  counter, the violation list in exact DFS order, and the absorbed obs
  event stream are bit-identical — the task decomposition is fixed and
  worker-count-independent.
- **resume** (BFS): a budget-interrupted checkpointed run continued with
  ``resume=True`` converges to exactly the uninterrupted result.
"""

import pytest

from repro import obs
from repro.check.explore import explore
from repro.check.scale import (
    CHECKPOINT_VERSION,
    SharedMemoTable,
    TARGET_TASKS,
    explore_bfs,
)
from repro.check.spec import _REGISTRY, all_specs, get_spec, register
from repro.check.specs import kset_k
from repro.core.predicates import CrashSync, KSetDetector


def _search_sig(result):
    """The cross-scheduler deterministic signature."""
    return (
        result.histories,
        result.executions,
        result.pruned,
        result.skipped_symmetric,
        _violation_keys(result),
    )


def _full_sig(result):
    """Every deterministic counter — the cross-worker-count signature."""
    return _search_sig(result) + (result.visited, result.rounds_executed)


def _violation_keys(result):
    # frozensets order partially, so compare violations as a frozenset of
    # hashable keys instead of sorting.
    return frozenset(
        (
            violation.inputs,
            violation.history,
            tuple((f.invariant, f.message) for f in violation.failures),
        )
        for violation in result.violations
    )


@pytest.fixture
def weak_kset():
    weak = get_spec("kset").weakened(
        lambda n: CrashSync(n, n - 1), suffix="scale-test"
    )
    register(weak)
    try:
        yield weak
    finally:
        del _REGISTRY[weak.name]


class TestStealDifferential:
    def test_every_spec_matches_serial_both_prune_modes(self):
        """The acceptance gate: byte-identical verdicts at n<=3."""
        for spec in all_specs():
            if not spec.supports_exhaustive:
                continue
            n = min(spec.exhaustive_n, 3)
            for prune in (False, True):
                serial = explore(spec.name, n=n, prune_decided=prune)
                steal = explore(
                    spec.name, n=n, prune_decided=prune, scheduler="steal"
                )
                assert _search_sig(steal) == _search_sig(serial), (
                    spec.name, n, prune,
                )

    def test_matches_serial_at_n4(self):
        serial = explore("kset", n=4, prune_decided=True)
        steal = explore(
            "kset", n=4, prune_decided=True, workers=2, scheduler="steal"
        )
        assert _search_sig(steal) == _search_sig(serial)
        assert steal.histories == 4235

    def test_violations_in_exact_serial_dfs_order(self, weak_kset):
        serial = explore(weak_kset, n=3)
        steal = explore(weak_kset.name, n=3, workers=2, scheduler="steal")
        assert serial.violations  # the weakening must actually bite
        assert [
            (v.inputs, v.history) for v in steal.violations
        ] == [(v.inputs, v.history) for v in serial.violations]

    def test_symmetry_route_matches_serial(self):
        serial = explore("kset", n=3, prune_decided=True, symmetry=True)
        steal = explore(
            "kset", n=3, prune_decided=True, symmetry=True,
            workers=2, scheduler="steal",
        )
        assert serial.symmetry and steal.symmetry
        assert _search_sig(steal) == _search_sig(serial)

    def test_set_path_and_replay_route_match_serial(self):
        class BridgedKSet(KSetDetector):  # exact-type guard: the bridge runs
            pass

        bridged = get_spec("kset").weakened(
            lambda n: BridgedKSet(n, kset_k(n)), suffix="scale-bridged"
        )
        assert not bridged.predicate(3).packed().fast
        for prune in (False, True):
            serial = explore("kset", n=3, prune_decided=prune)
            steal = explore(
                bridged, n=3, prune_decided=prune, scheduler="steal"
            )
            assert _search_sig(steal) == _search_sig(serial), prune
        serial = explore("kset", n=3, engine="replay")
        steal = explore("kset", n=3, engine="replay", scheduler="steal")
        assert _search_sig(steal) == _search_sig(serial)

    def test_max_violations_truncates_like_serial(self, weak_kset):
        serial = explore(weak_kset, n=3, max_violations=3)
        steal = explore(
            weak_kset.name, n=3, max_violations=3,
            workers=2, scheduler="steal",
        )
        assert len(steal.violations) == len(serial.violations) == 3
        assert [
            (v.inputs, v.history) for v in steal.violations
        ] == [(v.inputs, v.history) for v in serial.violations]


class TestWorkerCountInvariance:
    def test_counters_and_events_bit_identical_at_1_2_4(self):
        signatures = []
        streams = []
        for workers in (1, 2, 4):
            tracer = obs.Tracer()
            with obs.tracing(tracer):
                result = explore(
                    "kset", n=4, prune_decided=True,
                    workers=workers, scheduler="steal",
                )
            signatures.append(_full_sig(result))
            streams.append(tuple(
                (rec.kind, rec.name, rec.depth,
                 tuple(sorted(rec.attrs.items())))
                for rec in tracer.records
            ))
        assert signatures[1] == signatures[0]
        assert signatures[2] == signatures[0]
        assert streams[1] == streams[0]
        assert streams[2] == streams[0]

    def test_scale_bookkeeping_reported(self):
        result = explore(
            "kset", n=4, prune_decided=True, workers=2, scheduler="steal"
        )
        assert result.scheduler == "steal"
        assert result.scale["tasks"] == result.scale["tasks_done"] > 1
        assert result.scale["frontier_depth"] >= 1
        # /dev/shm may be unavailable in constrained sandboxes; when the
        # table does come up, the builder pre-seeds it so every task's
        # frontier load is a cross-worker hit.
        if result.scale["shared_table"]:
            assert result.scale["shared_hits"] > 0


class TestSmallFrontierUtilization:
    def test_small_frontier_expands_past_round_one(self):
        """A round-1-only split would idle workers: floodset n=3 has a
        10-prefix round-1 frontier, but the steal builder deepens the
        expansion until there is real work for every worker."""
        serial = explore("floodset", n=3)
        steal = explore("floodset", n=3, workers=16, scheduler="steal")
        assert steal.scale["tasks"] > 10
        assert steal.scale["frontier_depth"] >= 2
        assert _search_sig(steal) == _search_sig(serial)

    def test_unregistered_single_task_runs_in_process(self):
        solo = get_spec("kset").weakened(
            lambda n: CrashSync(n, 0), suffix="scale-solo"
        )
        # One admissible round-1 family -> one task -> no pool, so the
        # unregistered spec is fine and reports the single worker used.
        result = explore(solo, n=3, workers=4, scheduler="steal")
        assert result.workers == 1
        assert result.histories == 1

    def test_unregistered_multi_task_spec_rejected(self):
        weak = get_spec("kset").weakened(
            lambda n: CrashSync(n, 1), suffix="scale-unregistered"
        )
        with pytest.raises(ValueError, match="registered"):
            explore(weak, n=3, workers=2, scheduler="steal")


class TestProgressHeartbeat:
    def test_progress_emits_check_progress_events(self, capsys):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            explore(
                "kset", n=3, prune_decided=True,
                scheduler="steal", progress=True, progress_interval=0.0,
            )
        beats = [rec for rec in tracer.records if rec.name == "check.progress"]
        assert beats
        attrs = beats[-1].attrs
        assert attrs["tasks_done"] == attrs["tasks_total"]
        assert attrs["histories"] == 61  # kset n=3 pruned frontier
        assert "elapsed_s" not in attrs  # wall clock is environmental
        assert "[check]" in capsys.readouterr().err


class TestBfs:
    def test_bfs_matches_serial_both_prune_modes(self):
        for prune in (False, True):
            serial = explore("kset", n=3, prune_decided=prune)
            bfs = explore_bfs(
                get_spec("kset"), n=3, prune_decided=prune, segment_size=64
            )
            assert _search_sig(bfs) == _search_sig(serial), prune

    def test_bfs_every_spec_matches_serial(self):
        for spec in all_specs():
            if not spec.supports_exhaustive:
                continue
            n = min(spec.exhaustive_n, 3)
            serial = explore(spec.name, n=n, prune_decided=True)
            bfs = explore_bfs(spec, n=n, prune_decided=True)
            assert _search_sig(bfs) == _search_sig(serial), spec.name

    def test_bfs_finds_the_same_violations(self, weak_kset):
        serial = explore(weak_kset, n=3)
        bfs = explore_bfs(weak_kset, n=3, segment_size=32)
        assert serial.violations
        assert _violation_keys(bfs) == _violation_keys(serial)

    def test_interrupt_and_resume_converges(self, tmp_path, weak_kset):
        """The kill-and-resume acceptance test: a budget-stopped
        checkpointed run, resumed, equals the uninterrupted result."""
        serial = explore(weak_kset, n=3)
        ckpt = tmp_path / "ckpt"
        partial = explore_bfs(
            weak_kset, n=3, checkpoint=str(ckpt),
            segment_size=32, max_tasks=2,
        )
        assert partial.partial
        assert partial.histories < serial.histories
        resumed = explore_bfs(
            weak_kset, n=3, checkpoint=str(ckpt),
            resume=True, segment_size=32,
        )
        assert not resumed.partial
        assert _search_sig(resumed) == _search_sig(serial)
        # Resuming a finished run is the identity.
        again = explore_bfs(
            weak_kset, n=3, checkpoint=str(ckpt),
            resume=True, segment_size=32,
        )
        assert _search_sig(again) == _search_sig(serial)

    def test_resume_rejects_mismatched_parameters(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(ckpt),
            segment_size=32, max_tasks=1,
        )
        with pytest.raises(ValueError, match="different parameters"):
            explore_bfs(
                get_spec("kset"), n=3, prune_decided=True,
                checkpoint=str(ckpt), resume=True, segment_size=32,
            )

    def test_fresh_run_refuses_existing_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(ckpt),
            segment_size=32, max_tasks=1,
        )
        with pytest.raises(ValueError, match="resume"):
            explore_bfs(get_spec("kset"), n=3, checkpoint=str(ckpt))

    def test_resume_requires_a_checkpoint_directory(self):
        with pytest.raises(ValueError, match="checkpoint"):
            explore_bfs(get_spec("kset"), n=3, resume=True)

    def test_checkpoint_writes_are_fsynced(self, tmp_path, monkeypatch):
        """Every manifest/segment/result write fsyncs the temp file before
        the rename and the directory after it."""
        import os
        import stat

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(tmp_path / "ckpt"),
            segment_size=32,
        )
        replaced = [
            (i, name) for i, (op, name) in enumerate(events)
            if op == "replace"
        ]
        names = [name for _, name in replaced]
        assert names.count("manifest.json") > 1
        assert any(name.startswith("seg_") for name in names)
        assert any(name.startswith("res_") for name in names)
        for i, name in replaced:
            assert events[i - 1] == ("fsync", "file"), name
            assert events[i + 1] == ("fsync", "dir"), name
        assert len(events) == 3 * len(replaced)

    def test_checkpoint_version_recorded(self, tmp_path):
        import json

        ckpt = tmp_path / "ckpt"
        explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(ckpt),
            segment_size=32, max_tasks=1,
        )
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert manifest["version"] == CHECKPOINT_VERSION


class TestSharedMemoTable:
    def test_put_get_roundtrip(self):
        table = SharedMemoTable.create(slots=64, blob_bytes=1 << 16)
        try:
            key = ("frontier", (1, 2, 3))
            assert table.get(key) is None
            assert table.put(key, [10, 20, 30])
            assert table.get(key) == [10, 20, 30]
        finally:
            table.destroy()

    def test_full_key_verified_not_just_fingerprint(self):
        """Collision safety: a fingerprint hit with a different canonical
        key must read as a miss, never as the other key's value."""
        import pickle

        from repro.check.scale import _SLOT

        table = SharedMemoTable.create(slots=64, blob_bytes=1 << 16)
        try:
            assert table.put(("a", 1), "value-a")
            fp_a = table._fingerprint(pickle.dumps(("a", 1), protocol=4))
            off_a = None
            slot_a = None
            for i in range(table.slots):
                slot_fp, slot_off = _SLOT.unpack_from(
                    table._index.buf, i * _SLOT.size
                )
                if slot_fp == fp_a:
                    slot_a, off_a = i, slot_off
            assert off_a is not None
            # Forge a 64-bit collision: key B's fingerprint slot points at
            # key A's payload, exactly what a hash collision would produce.
            forged = next(
                ("b", i) for i in range(1000)
                if table._fingerprint(
                    pickle.dumps(("b", i), protocol=4)
                ) % table.slots != slot_a
            )
            fp_b = table._fingerprint(pickle.dumps(forged, protocol=4))
            _SLOT.pack_into(
                table._index.buf, (fp_b % table.slots) * _SLOT.size,
                fp_b, off_a,
            )
            assert table.get(forged) is None  # full-key mismatch -> miss
            assert table.get(("a", 1)) == "value-a"
        finally:
            table.destroy()

    def test_attach_shares_entries(self):
        table = SharedMemoTable.create(slots=64, blob_bytes=1 << 16)
        try:
            table.put(("shared", 7), {"deep": [1, 2]})
            other = SharedMemoTable.attach(table.handles(), table.lock)
            try:
                assert other.get(("shared", 7)) == {"deep": [1, 2]}
            finally:
                other.close()
        finally:
            table.destroy()

    def test_capacity_exhaustion_degrades_to_false(self):
        table = SharedMemoTable.create(slots=4, blob_bytes=256)
        try:
            stored = sum(
                1 for i in range(32) if table.put(("k", i), "x" * 40)
            )
            assert stored < 32  # ran out of slots/blob, no exception
        finally:
            table.destroy()


class TestTaskDecomposition:
    def test_target_task_count_reached_on_large_frontiers(self):
        result = explore(
            "kset", n=4, prune_decided=True, workers=2, scheduler="steal"
        )
        assert result.scale["tasks"] == TARGET_TASKS
