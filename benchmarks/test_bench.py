"""Self-tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest benchmarks
"""

import json

import pytest

import spans
import workloads
from qubitamp import amplifier, cli
from qubitamp.amplifier import AmplifierParams


def _span(name, start, end, parent=-1, n_in=0, n_out=0):
    return [name, start, end, parent, 0, n_in, n_out]


def _sites():
    return [(owner, attr) for sites, _ in spans.TARGETS.values()
            for owner, attr in sites]


def test_wrappers_installed_then_restored():
    originals = [getattr(owner, attr) for owner, attr in _sites()]
    recorder = spans.Recorder()
    with recorder.installed():
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(_sites(), originals))
    assert all(getattr(owner, attr) is orig
               for (owner, attr), orig in zip(_sites(), originals))


def test_wrappers_restored_after_error():
    originals = [getattr(owner, attr) for owner, attr in _sites()]
    with pytest.raises(RuntimeError):
        with spans.Recorder().installed():
            raise RuntimeError("boom")
    assert all(getattr(owner, attr) is orig
               for (owner, attr), orig in zip(_sites(), originals))


def test_traced_call_matches_untraced_and_nests():
    params = AmplifierParams(t=0.9, p_in=0.3, p_a=0.8, eta=0.7)
    plain = amplifier.simulate_scenario("fock-hpa", params)
    recorder = spans.Recorder()
    recorder.begin_op("simulate")
    with recorder.installed():
        traced = amplifier.simulate_scenario("fock-hpa", params)
    assert traced.gain == plain.gain and traced.p_out == plain.p_out
    names = [s[spans.NAME] for s in recorder.spans]
    assert names[0] == "amplifier.build_scenario"
    sim = names.index("amplifier.simulate")
    run = names.index("circuits.run_circuit")
    assert recorder.spans[run][spans.PARENT] == sim
    m = spans.layer_metrics(recorder.spans)
    assert m["amplifier.simulate.calls"] == 1
    assert m["fock.FockState.constructions"] > 0
    assert m["circuits.run_circuit.branches_out"] > 0


def test_self_time_on_nested_spans():
    synthetic = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 3.0, 6.0, parent=0),   # overlaps b: covered once
        _span("d", 2.0, 3.0, parent=1),   # grandchild: only b loses it
        _span("e", 9.0, 12.0, parent=0),  # runs past a: clipped to a
    ]
    assert spans.self_times(synthetic) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_on_synthetic_spans():
    synthetic = [
        _span("amplifier.mu_for_visibility", 0.0, 10.0),
        _span("circuits.run_circuit", 1.0, 2.0, parent=0, n_in=4, n_out=4),
        _span("detection.measure_all", 2.0, 4.0, parent=0, n_out=3),
        _span("circuits.merge_branches", 2.5, 3.0, parent=2, n_in=8, n_out=2),
        _span("circuits.run_circuit", 11.0, 12.0, n_in=4, n_out=4),
        _span("montecarlo.sample_events", 20.0, 30.0, n_in=1000),
        _span("montecarlo.table_build", 20.5, 23.0, parent=5),
    ]
    m = spans.layer_metrics(synthetic)
    assert m["amplifier.mu_for_visibility.circuit_runs"] == 1
    assert m["circuits.run_circuit.calls"] == 2
    assert m["circuits.run_circuit.branches_out"] == 8
    assert m["circuits.merge_branches.merge_ratio"] == pytest.approx(0.25)
    assert m["detection.measure_all.self_s"] == pytest.approx(1.5)
    assert m["amplifier.mu_for_visibility.self_s"] == pytest.approx(7.0)
    assert m["montecarlo.sample_events.pulses"] == 1000
    assert m["montecarlo.sample_events.self_s"] == pytest.approx(7.5)
    assert m["montecarlo.table_build_s"] == pytest.approx(2.5)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == first
    assert json.loads(json.dumps(first)) == first
    assert workloads.generate(workload, 8) != first


def test_known_defects_name_real_checks(tmp_path):
    wl = workloads.Sample(workloads.generate("sample", 1))
    wl.prepare()
    outputs = []
    for k in range(len(wl.inputs["phis"])):
        path = tmp_path / f"analyzer{k}.csv"
        path.write_text("herald_class,p_out_est,p_out_err\n" + "".join(
            f"{cls},{wl.oracle[(k, cls)]!r},0.01\n"
            for cls in ("psi_plus", "psi_minus")))
        outputs.append((f"analyzer{k}", 0, str(path)))
    results = list(wl.check(0, outputs))
    assert all(ok for _, ok, _ in results)
    names = {name for name, _, _ in results}
    assert wl.known_defects() < names
    assert len(names - wl.known_defects()) == 4  # phi = pi/2 and 3pi/2


def test_calibrate_known_defect_names_a_real_check(tmp_path):
    wl = workloads.Calibrate(workloads.generate("calibrate", 1))
    path = tmp_path / "fringe.csv"
    path.write_text("fidelity_plus,fidelity_minus\n"
                    + "0.99,0.965\n" * wl.inputs["phi_steps"])
    results = {name: ok for name, ok, _ in wl.check(0, [("point", 0, str(path))])}
    assert wl.known_defects() < set(results)
    assert all(ok for name, ok in results.items() if name not in wl.known_defects())


def test_cli_is_looked_up_through_the_module(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda argv: seen.append(argv) or 0)
    wl = workloads.Sweep(workloads.generate("sweep", 1))
    _, times = wl.run_round(0, str(tmp_path))
    assert len(seen) == len(times) == len(wl.inputs["families"])
