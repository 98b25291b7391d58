"""Self-tests of the benchmark at test sizes.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import hashlib
import json
import pathlib

import pytest

from perfbench import run as bench
from perfbench import hostspeed, tracing, workloads
from repro.harness import experiments

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAMES = sorted(workloads.SMALL_SPECS)


@pytest.fixture
def small_bench(tmp_path, monkeypatch):
    """``run.main`` on the test-sized workloads, writing under tmp."""
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "SPECS", workloads.SMALL_SPECS)


def inputs_digest(spec, inputs) -> str:
    """A fingerprint of the generated inputs: the event file for trace
    replay; for fleets, every process's table, scalars and access-stream
    state as the fleet builder generates them from the seed."""
    digest = hashlib.sha256()
    if inputs.events_path is not None:
        digest.update(inputs.events_path.read_bytes())
        return digest.hexdigest()
    setup = experiments.StandardSetup(seed=inputs.seed, **spec.setup)
    for process in experiments.build_fleet(
        setup, spec.fleet, **spec.fleet_kwargs
    ):
        workload = process.workload
        digest.update(workload.access_distribution().tobytes())
        digest.update(repr((
            workload.write_fraction,
            workload.delay_ns_per_access,
            process.target_accesses,
            process.rng.bit_generator.state,
        )).encode())
    return digest.hexdigest()


def _inputs(name, seed, tmp_path):
    spec = workloads.SMALL_SPECS[name]
    return spec, workloads.make_inputs(spec, seed, tmp_path)


def _model(spec, inputs, tracer=None):
    run = bench.measure(spec, inputs, "test", tracer=tracer)
    assert not run.failures, run.failures
    return run.model


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_model_statistics(name, tmp_path):
    spec, inputs = _inputs(name, 3, tmp_path)
    assert _model(spec, inputs) == _model(spec, inputs)


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_different_inputs(name, tmp_path):
    spec, first = _inputs(name, 1, tmp_path / "a")
    _, second = _inputs(name, 2, tmp_path / "b")
    assert inputs_digest(spec, first) != inputs_digest(spec, second)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced(name, tmp_path):
    spec, inputs = _inputs(name, 0, tmp_path)
    tracer = tracing.Tracer(workloads.policy_class(spec))
    assert _model(spec, inputs, tracer) == _model(spec, inputs)
    times = tracer.layer_times()
    for layer in ("harness.engine", "harness.arena", "kernel.timers"):
        assert times[layer][0] > 0
    assert tracer.missing == []


def test_tracer_restores_every_entry_point():
    from repro.harness.arena import ProcessArena
    from repro.kernel.kernel import Kernel

    before = (Kernel.deliver_faults, ProcessArena.step, Kernel.advance_to)
    tracer = tracing.Tracer(workloads.policy_class(workloads.SPECS["fleet96"]))
    with tracer:
        assert Kernel.deliver_faults is not before[0]
    assert (Kernel.deliver_faults, ProcessArena.step, Kernel.advance_to) == (
        before
    )


def test_policy_layer_wraps_only_overridden_hooks():
    from repro.core.policy import ChronoPolicy
    from repro.policies.base import TieringPolicy

    points = tracing.policy_entry_points(ChronoPolicy)
    assert (ChronoPolicy, "on_fault") in points
    assert all(owner is not TieringPolicy for owner, _ in points)
    with tracing.Tracer(ChronoPolicy):
        # The arena's hook resolution must still see the base no-op.
        assert ChronoPolicy.on_quantum is TieringPolicy.on_quantum


def test_missing_entry_point_drops_its_layer(monkeypatch):
    layers = dict(tracing.LAYERS)
    layers["vm.page_state"] = (("repro.vm.page_state", "PageState", "gone"),)
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer(workloads.policy_class(workloads.SPECS["fleet96"]))
    assert "vm.page_state" not in tracer.layers
    assert tracer.missing == ["repro.vm.page_state:PageState.gone"]


def _result(capsys, name, trace):
    argv = [
        "--workload", name, "--seed", "0", "--seconds", "0",
        "--trace", str(trace),
    ]
    assert bench.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("name", NAMES)
def test_emitted_metrics_match_benchmark_json(name, capsys, small_bench):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in declared["workloads"]) == NAMES
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _result(capsys, name, trace)["metrics"]
        assert {
            m["name"]: m["unit"] for m in declared[key]
        } == {n: v["unit"] for n, v in metrics.items()}
        if trace == 0:
            assert all(v["value"] > 0 for v in metrics.values())


def test_failed_runs_are_counted_in_the_result_line(
    capsys, small_bench, monkeypatch
):
    monkeypatch.setattr(workloads, "check", lambda stack, result: ["bad"])
    assert bench.main([
        "--workload", "fleet96", "--seed", "0", "--seconds", "0",
        "--trace", "0",
    ]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 3
    assert result["metrics"] == {}


def test_host_timings_are_divided_by_the_host_slowdown(
    capsys, small_bench, monkeypatch, tmp_path
):
    slow = (2 * hostspeed.NOMINAL_S, 4 * hostspeed.NOMINAL_S)
    monkeypatch.setattr(hostspeed, "sample", lambda: slow)
    metrics = _result(capsys, "fleet96", 0)["metrics"]
    record = json.loads((tmp_path / "fleet96-seed0-trace0.json").read_text())
    measured = record["as_measured"]
    assert record["host_slowdown"] == pytest.approx({"wall": 2, "cpu": 4})
    assert metrics["setup_s"]["value"] == pytest.approx(
        measured["setup_s"] / 2
    )
    assert metrics["sim_s_per_s"]["value"] == pytest.approx(
        measured["sim_s_per_s"] * 2
    )
    assert metrics["cpu_s_per_sim_s"]["value"] == pytest.approx(
        measured["cpu_s_per_sim_s"] / 4
    )


def test_fidelity_tolerance_applies_where_set():
    model = {"throughput": 100.0, "fmar": 0.5, "lat_mean_ns": 200.0}
    near = dict(model, throughput=95.0)
    far = dict(model, fmar=0.4)
    faithful = workloads.SPECS["tenants1024"]
    assert workloads.check_fidelity(faithful, near, model) == []
    assert len(workloads.check_fidelity(faithful, far, model)) == 1
    biased = workloads.SPECS["fleet96"]
    assert workloads.check_fidelity(biased, far, model) == []


def test_reference_error_is_based_on_the_larger_value():
    assert bench.ref_error(90.0, 100.0) == pytest.approx(1.1)
    assert bench.ref_error(200.0, 100.0) == pytest.approx(1.5)
    assert bench.ref_error(100.0, 100.0) == 1.0
