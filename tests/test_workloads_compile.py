"""Tests for the trace compiler: binning, segmentation, replay."""

import tracemalloc

import numpy as np
import pytest

from repro.harness.experiments import StandardSetup
from repro.harness.runner import run_experiment
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.process import SimProcess
from repro.workloads import compile as compile_module
from repro.workloads.base import TraceWorkload
from repro.workloads.compile import (
    CompiledTrace,
    StationaryTableWorkload,
    compile_event_stream,
    compile_events,
    compile_trace_file,
    compile_windows,
    intern_distribution,
    read_event_csv,
    read_event_npz,
    segment_windows,
    synthetic_event_stream,
)
from repro.workloads.trace_io import TraceRecorder, save_trace


def two_phase_events(n_events=4_000, n_pages=16, window_ns=SECOND):
    """Deterministic two-phase event arrays: pages 0-3 then 8-11."""
    rng = np.random.default_rng(1)
    half = n_events // 2
    timestamps = np.linspace(
        0, 8 * window_ns - 1, n_events
    ).astype(np.int64)
    vpns = np.where(
        np.arange(n_events) < half,
        rng.integers(0, 4, n_events),
        rng.integers(8, 12, n_events),
    ).astype(np.int64)
    pids = np.zeros(n_events, dtype=np.int64)
    is_write = np.zeros(n_events, dtype=bool)
    return timestamps, pids, vpns, is_write


class TestBinning:
    def test_counts_land_in_the_right_window_and_page(self):
        timestamps = np.array([0, 1, SECOND, 3 * SECOND])
        pids = np.zeros(4, dtype=np.int64)
        vpns = np.array([2, 2, 0, 1])
        compiled = compile_events(
            timestamps, pids, vpns, [False] * 4,
            n_pages=4, window_ns=SECOND, threshold=2.0,
        )[0]
        assert compiled.n_events == 4
        assert compiled.n_windows == 4
        assert compiled.n_idle_windows == 1
        # threshold=2.0 pools busy windows, but the empty window at
        # t=2s splits the run: phases never straddle an idle gap.
        busy = [w for _, w in compiled.phases if w.sum() > 0]
        assert len(busy) == 2
        np.testing.assert_allclose(
            busy[0], np.array([1, 0, 2, 0]) / 3.0
        )
        np.testing.assert_allclose(busy[1], [0.0, 1.0, 0.0, 0.0])

    def test_write_fraction_measured_from_events(self):
        timestamps, pids, vpns, is_write = two_phase_events(1_000)
        is_write[:250] = True
        compiled = compile_events(
            timestamps, pids, vpns, is_write, n_pages=16
        )[0]
        assert compiled.write_fraction == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "events, n_pages, chunk",
        [
            (two_phase_events(), 16, 313),
            (two_phase_events(), None, 313),
            # The top page first appears in the last chunk: inferring
            # n_pages from the first chunk alone rejected this stream.
            (([0, 1, 2, 3], [0] * 4, [0, 1, 5, 7], [False] * 4), None, 2),
        ],
    )
    def test_streaming_equals_one_shot(self, events, n_pages, chunk):
        timestamps, pids, vpns, is_write = map(np.asarray, events)
        one_shot = compile_events(
            timestamps, pids, vpns, is_write, n_pages=n_pages
        )[0]
        chunks = [
            (timestamps[i:i + chunk], pids[i:i + chunk],
             vpns[i:i + chunk], is_write[i:i + chunk])
            for i in range(0, timestamps.size, chunk)
        ]
        streamed = compile_event_stream(iter(chunks), n_pages=n_pages)[0]
        rechunked = compile_events(
            timestamps, pids, vpns, is_write, n_pages=n_pages,
            chunk_events=chunk,
        )[0]
        for compiled in (streamed, rechunked):
            assert compiled.n_pages == one_shot.n_pages
            assert compiled.n_phases == one_shot.n_phases
            for (d1, p1), (d2, p2) in zip(
                compiled.phases, one_shot.phases
            ):
                assert d1 == d2
                np.testing.assert_array_equal(p1, p2)
        if n_pages is None:
            assert one_shot.n_pages == int(vpns.max()) + 1

    def test_per_pid_separation(self):
        timestamps = np.arange(4, dtype=np.int64)
        pids = np.array([1, 1, 2, 2])
        vpns = np.array([0, 0, 3, 3])
        compiled = compile_events(
            timestamps, pids, vpns, [False] * 4, n_pages=4
        )
        assert set(compiled) == {1, 2}
        assert compiled[1].phases[0][1][0] == pytest.approx(1.0)
        assert compiled[2].phases[0][1][3] == pytest.approx(1.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            compile_event_stream(iter([]), n_pages=4)

    def test_out_of_range_vpn_rejected(self):
        with pytest.raises(ValueError):
            compile_events([0], [0], [9], [False], n_pages=4)

    def test_window_count_overflow_rejected(self, monkeypatch):
        """Page counts are uint32: a window whose events could push one
        past the limit fails loudly instead of wrapping."""
        monkeypatch.setattr(compile_module, "MAX_WINDOW_EVENTS", 3)
        # Six events over two windows: past the limit in total, within
        # it per window, so nothing can overflow.
        spread = compile_events(
            [0, 1, 2, SECOND, SECOND + 1, SECOND + 2], [0] * 6,
            [0] * 6, [False] * 6, chunk_events=2,
        )[0]
        assert spread.n_events == 6
        with pytest.raises(ValueError, match="overflow"):
            compile_events(
                [0, 1, 2, 3], [0] * 4, [1] * 4, [False] * 4,
                chunk_events=2,
            )


class TestSegmentation:
    def test_detects_the_phase_boundary(self):
        hot_a = np.tile([10.0, 10.0, 0.0, 0.0], (4, 1))
        hot_b = np.tile([0.0, 0.0, 10.0, 10.0], (4, 1))
        segments = segment_windows(np.vstack([hot_a, hot_b]))
        assert [(s.start, s.end) for s in segments] == [(0, 4), (4, 8)]

    def test_idle_windows_form_their_own_segments(self):
        busy = np.tile([5.0, 5.0], (2, 1))
        idle = np.zeros((3, 2))
        segments = segment_windows(np.vstack([busy, idle, busy]))
        assert [s.idle for s in segments] == [False, True, False]
        assert (segments[1].start, segments[1].end) == (2, 5)

    def test_stable_stream_is_one_segment(self):
        windows = np.tile([3.0, 1.0, 0.0], (10, 1))
        assert len(segment_windows(windows)) == 1

    def test_known_phase_count_recovered(self):
        compiled = compile_event_stream(
            synthetic_event_stream(
                50_000, n_pages=64, n_phases=3, windows_per_phase=4
            ),
            n_pages=64,
        )[0]
        assert compiled.n_phases == 3


class TestCompiledTrace:
    def test_single_phase_becomes_stationary_table(self):
        compiled = compile_windows(
            np.tile([1.0, 3.0], (5, 1)), SECOND
        )
        workload = compiled.to_workload()
        assert isinstance(workload, StationaryTableWorkload)
        # Same frozen object every call: the fusion witness's identity.
        assert workload.access_distribution() is (
            workload.access_distribution()
        )
        assert workload.stable_until_ns(0) is None

    def test_multi_phase_becomes_trace_workload(self):
        windows = np.vstack([
            np.tile([9.0, 1.0], (3, 1)),
            np.tile([1.0, 9.0], (3, 1)),
        ])
        compiled = compile_windows(windows, SECOND)
        workload = compiled.to_workload()
        assert isinstance(workload, TraceWorkload)
        assert workload.stable_until_ns(0) == 3 * SECOND
        assert compiled.total_ns == 6 * SECOND

    def test_idle_windows_compile_to_zero_phases(self):
        windows = np.vstack([
            np.tile([4.0, 0.0], (2, 1)),
            np.zeros((3, 2)),
            np.tile([0.0, 4.0], (2, 1)),
        ])
        compiled = compile_windows(windows, SECOND)
        assert compiled.n_idle_windows == 3
        durations = [d for d, _ in compiled.phases]
        masses = [float(p.sum()) for _, p in compiled.phases]
        assert durations == [2 * SECOND, 3 * SECOND, 2 * SECOND]
        assert masses[1] == 0.0
        # The compiled cycle keeps the recording's wall-clock shape.
        assert compiled.total_ns == 7 * SECOND

    def test_zero_traffic_trace_rejected(self):
        with pytest.raises(ValueError):
            compile_windows(np.zeros((3, 4)), SECOND)

    def test_identical_histograms_share_one_table(self):
        a = compile_windows(np.tile([2.0, 6.0], (4, 1)), SECOND)
        b = compile_windows(np.tile([1.0, 3.0], (2, 1)), SECOND)
        # Different counts, same normalized content: one frozen array.
        assert a.phases[0][1] is b.phases[0][1]
        assert not a.phases[0][1].flags.writeable

    @pytest.mark.parametrize(
        "probs, valid",
        [
            ([0.5, 0.5 + 5e-6], True),  # within np.isclose's tolerance
            ([0.5, 0.5 + 2e-5], False),
            ([0.5, 0.4], False),
            ([0.5, np.nan], False),
        ],
    )
    def test_stationary_table_must_sum_to_one(self, probs, valid):
        if valid:
            StationaryTableWorkload(np.array(probs))
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                StationaryTableWorkload(np.array(probs))

    def test_intern_distribution_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            intern_distribution(np.zeros(4))


class TestTraceFiles:
    def test_compile_recorder_npz(self, tmp_path):
        path = tmp_path / "rec.npz"
        save_trace(
            path,
            [np.array([1.0, 0.0]), np.zeros(2), np.array([0.0, 2.0])],
            SECOND,
            write_fraction=0.2,
        )
        compiled = compile_trace_file(path)[0]
        assert compiled.n_windows == 3
        assert compiled.n_idle_windows == 1
        assert compiled.write_fraction == pytest.approx(0.2)

    def test_window_format_rejects_rebinning(self, tmp_path):
        path = tmp_path / "rec.npz"
        save_trace(path, [np.ones(2)], SECOND)
        with pytest.raises(ValueError):
            compile_trace_file(path, window_ns=SECOND // 2)

    def test_compile_event_npz(self, tmp_path):
        timestamps, pids, vpns, is_write = two_phase_events(2_000)
        path = tmp_path / "events.npz"
        np.savez_compressed(
            path,
            timestamp_ns=timestamps,
            pid=pids,
            vpn=vpns,
            is_write=is_write,
        )
        compiled = compile_trace_file(path)[0]
        assert compiled.n_events == 2_000
        assert compiled.n_phases == 2

    def test_compile_event_csv(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = ["timestamp_ns,pid,vpn,is_write"]
        rows += [f"{t},0,{t % 4},0" for t in range(100)]
        path.write_text("\n".join(rows) + "\n")
        compiled = compile_trace_file(path)[0]
        assert compiled.n_events == 100
        assert compiled.n_pages == 4

    def test_csv_stream_widens_to_a_later_top_page(self, tmp_path):
        """CSV rows stream in chunks; a page first seen in a later chunk
        (here by another pid) widens every pid's counts to max vpn + 1."""
        rows = [(t, 0, t % 4, 0) for t in range(6)]
        rows += [(t, 1, 9 - t % 3, 1) for t in range(6, 12)]
        path = tmp_path / "events.csv"
        path.write_text("\n".join(",".join(map(str, r)) for r in rows))
        streamed = compile_event_stream(read_event_csv(path, chunk_events=4))
        one_shot = compile_events(*np.array(rows).T)
        assert_same_compile(streamed, one_shot)
        assert {c.n_pages for c in streamed.values()} == {10}

    def test_event_npz_members_must_share_one_length(self, tmp_path):
        path = tmp_path / "events.npz"
        np.savez(
            path, timestamp_ns=np.arange(4), pid=np.zeros(4, np.int8),
            vpn=np.zeros(3, np.int32), is_write=np.zeros(4, bool),
        )
        with pytest.raises(ValueError, match="one length"):
            compile_trace_file(path)

    def test_event_npz_members_must_be_1d(self, tmp_path):
        path = tmp_path / "events.npz"
        np.savez(
            path, timestamp_ns=np.zeros((2, 2), np.int64),
            pid=np.zeros(4, np.int8), vpn=np.zeros(4, np.int32),
            is_write=np.zeros(4, bool),
        )
        with pytest.raises(ValueError, match="1-D"):
            compile_trace_file(path)

    def test_npz_reader_keeps_stored_dtypes(self, tmp_path, monkeypatch):
        path = tmp_path / "events.npz"
        columns = dict(
            timestamp_ns=np.arange(10, dtype=np.int64),
            pid=np.arange(10, dtype=np.int8),
            vpn=np.arange(10, dtype=np.int32),
            is_write=np.arange(10) % 2 == 0,
        )
        np.savez_compressed(path, **columns)
        monkeypatch.setattr(compile_module, "DEFAULT_CHUNK_EVENTS", 4)
        chunks = list(read_event_npz(path))
        assert [len(chunk[0]) for chunk in chunks] == [4, 4, 2]
        for index, key in enumerate(compile_module.EVENT_KEYS):
            joined = np.concatenate([chunk[index] for chunk in chunks])
            assert joined.dtype == columns[key].dtype
            np.testing.assert_array_equal(joined, columns[key])

    def test_checked_in_fixtures_compile(self):
        import pathlib

        data = pathlib.Path(__file__).parent / "data"
        npz = compile_trace_file(data / "sample_trace.npz")[0]
        assert npz.n_phases >= 2
        assert npz.n_idle_windows >= 1
        csv = compile_trace_file(data / "sample_events.csv")[0]
        assert csv.n_events > 0


def mixed_events(n_events=24_000, n_pids=3, seed=5):
    """Interleaved pids, a phase change and an idle gap per pid: windows
    0-3 favour low pages, 4-5 are idle, 6-9 favour high pages."""
    rng = np.random.default_rng(seed)
    pids = rng.integers(0, n_pids, n_events).astype(np.int8)
    windows = rng.choice([0, 1, 2, 3, 6, 7, 8, 9], n_events)
    timestamps = windows * SECOND + rng.integers(0, SECOND, n_events)
    base = np.where(windows < 4, 0, 40) + 3 * pids
    vpns = (base + rng.zipf(1.5, n_events) % 24).astype(np.int32)
    is_write = rng.random(n_events) < 0.1 + 0.1 * pids
    return timestamps.astype(np.int64), pids, vpns, is_write


def float64_reference(timestamps, pids, vpns, is_write):
    """The float64 window-matrix compile the uint32 binner must match
    bit for bit: one ``np.add.at`` pass per pid."""
    n_pages = int(vpns.max()) + 1
    windows = timestamps // SECOND
    compiled = {}
    for pid in np.unique(pids).tolist():
        mask = pids == pid
        matrix = np.zeros((int(windows[mask].max()) + 1, n_pages))
        np.add.at(matrix, (windows[mask], vpns[mask]), 1.0)
        compiled[pid] = compile_windows(
            matrix, SECOND,
            write_fraction=int(is_write[mask].sum()) / int(mask.sum()),
            n_events=int(mask.sum()),
        )
    return compiled


def assert_same_compile(got, want):
    assert sorted(got) == sorted(want)
    for pid in want:
        a, b = got[pid], want[pid]
        assert a.n_pages == b.n_pages
        assert a.n_events == b.n_events
        assert a.n_windows == b.n_windows
        assert a.n_idle_windows == b.n_idle_windows
        assert a.boundaries == b.boundaries
        assert a.write_fraction == b.write_fraction
        assert [d for d, _ in a.phases] == [d for d, _ in b.phases]
        for (_, p1), (_, p2) in zip(a.phases, b.phases):
            # interned: equal tables are one array, equal bit for bit
            assert p1 is p2 or (not p1.any() and not p2.any())
            np.testing.assert_array_equal(p1, p2)


class TestStreamedEventFile:
    @pytest.mark.parametrize("compressed", [False, True])
    @pytest.mark.parametrize("time_sorted", [False, True])
    def test_chunked_file_matches_one_shot(
        self, tmp_path, monkeypatch, compressed, time_sorted
    ):
        """An event file read in 16 chunks compiles bit-identically to
        the events compiled as one chunk and to the float64 matrix.
        Time-sorted, the high pages arrive only in later chunks, so the
        page dimension widens mid-stream."""
        timestamps, pids, vpns, is_write = mixed_events()
        if time_sorted:
            order = np.argsort(timestamps, kind="stable")
            timestamps, pids, vpns, is_write = (
                timestamps[order], pids[order], vpns[order],
                is_write[order],
            )
        path = tmp_path / "events.npz"
        save = np.savez_compressed if compressed else np.savez
        save(path, timestamp_ns=timestamps, pid=pids, vpn=vpns,
             is_write=is_write)
        monkeypatch.setattr(compile_module, "DEFAULT_CHUNK_EVENTS", 1_500)
        streamed = compile_trace_file(path)
        one_shot = compile_events(
            timestamps, pids, vpns, is_write,
            chunk_events=timestamps.size,
        )
        assert_same_compile(streamed, one_shot)
        assert_same_compile(
            streamed, float64_reference(timestamps, pids, vpns, is_write)
        )
        assert len(streamed) == 3
        assert all(c.n_idle_windows == 2 for c in streamed.values())

    def test_memory_bounded_by_chunk_and_counts(
        self, tmp_path, monkeypatch
    ):
        """Compiling a 32-chunk event file allocates at most a bound set
        by the chunk size and windows x pages; the event count does not
        enter it (the whole file upcast to int64 would exceed it)."""
        chunk, n_chunks, n_pages, n_windows = 4_096, 32, 2_048, 8
        n_events = chunk * n_chunks
        rng = np.random.default_rng(3)
        path = tmp_path / "events.npz"
        np.savez(
            path,
            timestamp_ns=np.sort(
                rng.integers(0, n_windows * SECOND, n_events)
            ),
            pid=rng.integers(0, 2, n_events).astype(np.int8),
            vpn=rng.integers(0, n_pages, n_events).astype(np.int32),
            is_write=rng.random(n_events) < 0.2,
        )
        monkeypatch.setattr(compile_module, "DEFAULT_CHUNK_EVENTS", chunk)
        bound = 128 * chunk + 32 * n_windows * n_pages
        tracemalloc.start()
        try:
            compiled = compile_trace_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(c.n_events for c in compiled.values()) == n_events
        assert peak <= bound, (peak, bound)


def replay_result(workload, fusion, duration_ns):
    setup = StandardSetup(duration_ns=duration_ns)
    process = SimProcess(
        pid=0,
        workload=workload,
        rng=RngStreams(11).spawn("replay").get("access"),
    )
    policy = setup.build_policy("chrono")
    return run_experiment(
        [process], policy, setup.run_config(fusion=fusion)
    )


class TestReplay:
    def test_fusion_engages_on_phase_stable_trace(self):
        compiled = compile_event_stream(
            synthetic_event_stream(
                30_000, n_pages=128, n_phases=2, windows_per_phase=6
            ),
            n_pages=128,
        )[0]
        result = replay_result(
            compiled.to_workload(), fusion=True,
            duration_ns=compiled.total_ns,
        )
        engine = result.engine
        assert engine.fused_quanta / engine.quanta_run > 0.0

    def test_record_compile_replay_equivalence(self):
        """A compiled re-recording replays within the arena suite's
        statistical-equivalence bounds of the original run."""
        from tests.conftest import make_kernel, make_process
        from repro.harness.engine import QuantumEngine
        from repro.harness.runner import summarize_run

        def run_with(workload=None):
            kernel = make_kernel(fast_pages=256, slow_pages=1024)
            if workload is None:
                process = make_process(n_pages=256)
            else:
                process = SimProcess(
                    pid=1,
                    workload=workload,
                    rng=RngStreams(0).spawn("proc-1").get("access"),
                )
            kernel.register_process(process)
            kernel.allocate_initial_placement()
            engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
            recorder = TraceRecorder(interval_ns=SECOND // 2)
            end_ns = engine.run(
                4 * SECOND,
                observer=recorder.observe,
                observe_every_ns=recorder.interval_ns,
            )
            result = summarize_run(None, kernel, engine, end_ns)
            return recorder, process, result

        recorder, process, original = run_with()
        compiled = compile_windows(
            np.stack(recorder.windows(process.pid)),
            SECOND // 2,
            write_fraction=process.workload.write_fraction,
        )
        _, _, replayed = run_with(compiled.to_workload())
        assert replayed.throughput_per_sec == pytest.approx(
            original.throughput_per_sec, rel=0.05
        )
        assert replayed.fmar == pytest.approx(
            original.fmar, rel=0.05, abs=1e-4
        )


class TestObservability:
    def test_compile_emits_events_and_counters(self):
        from repro.obs import ObsHub

        hub = ObsHub.create(trace=True, metrics=True)
        compile_windows(
            np.vstack([np.tile([1.0, 0.0], (2, 1)), np.zeros((1, 2))]),
            SECOND,
            obs=hub,
            pid=3,
        )
        events = [
            e for e in hub.tracer.events()
            if e["type"] == "compile.trace"
        ]
        assert len(events) == 1
        assert events[0]["pid"] == 3
        assert events[0]["n_idle"] == 1
        snapshot = hub.snapshot()
        assert snapshot["counters"]["compile.windows"] == 3
        assert snapshot["counters"]["compile.phases"] == 2
