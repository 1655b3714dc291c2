"""Tests of the benchmark harness itself: the gate, the export parser, the metric names.

Run from the repository root: python -m pytest perfbench
"""
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import gate
import run
import tracer
from workloads import WORKLOADS, Inputs, check_twin, twin

ROOT = Path(__file__).resolve().parent.parent
NU2 = Inputs(("inline", (-1.0, 1.0), (0.5, 0.5)), (2.0,), (1.0,), depth=6)
NU2_MOMENTS = [1, 0, 2, 0, 14, 0, 182]


def _report(moments, status="pass") -> str:
    lines = [f"moment{k}.operator {m!r}" for k, m in enumerate(moments)]
    return "\n".join(lines + [f"status {status}"]) + "\n"


def test_cumulant_recursion_reproduces_nu2_sequence():
    assert NU2.moments(6) == NU2_MOMENTS


def test_gamma_closed_form_levy_moments():
    assert [gate.levy_moment(("gamma", 40), p) for p in range(2, 6)] == [1, 2, 6, 24]


def test_moment_gate_accepts_exact_report():
    report = gate.parse_report(_report(NU2_MOMENTS))
    assert gate.check_verdict(report, 0, passed=True) == []
    assert gate.check_moments(report, NU2.moments(6)) == []


def test_corrupted_moment_line_fails():
    corrupted = list(NU2_MOMENTS)
    corrupted[4] = 14.001
    report = gate.parse_report(_report(corrupted))
    assert gate.check_moments(report, NU2.moments(6))


def test_nan_or_missing_moment_fails():
    report = gate.parse_report(_report(NU2_MOMENTS[:4] + [float("nan")]))
    assert len(gate.check_moments(report, NU2.moments(6))) == 3


def test_wrong_exit_code_or_status_fails():
    report = gate.parse_report(_report(NU2_MOMENTS))
    assert gate.check_verdict(report, 1, passed=True)
    assert gate.check_verdict(gate.parse_report(_report(NU2_MOMENTS, "fail")), 0, passed=True)
    assert gate.check_verdict(report, 0, passed=False)


def test_oracle_pair_count():
    assert gate.oracle_pairs(7, 2) == 435
    assert gate.oracle_pairs(6, 2) == 253


def test_export_parser_recovers_nu2_moments(tmp_path):
    config = tmp_path / "nu2.cfg"
    config.write_text(NU2.config_text(), encoding="utf-8")
    out = tmp_path / "op.txt"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "levyfock.cli", "export-operator", "--config", str(config)]
    proc = subprocess.run(cmd + ["--out", str(out)], env=env, timeout=60)
    text = out.read_text(encoding="utf-8")
    moments, nnz = gate.export_moments(text, 6)
    assert nnz > 0
    assert max(abs(a - b) for a, b in zip(moments, NU2_MOMENTS)) < 1e-12
    assert gate.check_export(text, proc.returncode, NU2.moments(6), 6) == []


def test_seeded_inputs_repeat_and_keep_their_shape():
    for workload in WORKLOADS.values():
        first, again, other = (workload.generate(s) for s in (1, 1, 2))
        assert first == again
        assert first != other
        assert len(first.grid_weights) == len(other.grid_weights)
        assert min(abs(v) for v in first.phi) >= 0.5
        if first.measure[0] == "inline":
            locations = first.measure[1]
            assert min(b - a for a, b in zip(locations, locations[1:])) >= 0.3
            assert min(abs(s) for s in locations) >= 0.4


def test_twin_only_changes_the_fault():
    inputs = WORKLOADS["defect-check"].generate(3)
    assert "fault_b1 1.5" in twin(inputs).config_text()
    assert "fault_b1" not in inputs.config_text()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(tracer.METRICS) + ["trace.overhead_s"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, tracer.unit(n)) for n in names]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_twin_needs_both_the_verdict_and_the_gate_to_fail():
    inputs = NU2
    wrong = list(NU2_MOMENTS)
    wrong[4] = 15.0
    assert check_twin(inputs, 1, _report(wrong, "fail")) == []
    # The program says fail, but the moments it reports are right: the gate is dead.
    assert check_twin(inputs, 1, _report(NU2_MOMENTS, "fail"))
    assert check_twin(inputs, 0, _report(wrong, "pass"))


def test_missing_entry_point_is_left_out_and_fails_the_run(tmp_path, monkeypatch):
    import levyfock.cli  # noqa: F401  (binds its own export_lines first)
    import levyfock.jacobi

    config = tmp_path / "nu2.cfg"
    config.write_text(NU2.config_text(), encoding="utf-8")
    monkeypatch.delattr(levyfock.jacobi, "export_lines")
    argv = ["export-operator", "--config", str(config), "--out", str(tmp_path / "op.txt")]
    code, record = tracer.traced_main(argv)
    assert code == 0
    assert record["unwrapped"] == ["jacobi.export_lines"]
    assert "jacobi.export_lines.self_s" not in record["metrics"]
    assert "jacobi.nnz" not in record["metrics"]
    assert record["metrics"]["jacobi.full.self_s"] > 0
    sample = run.Sample(0, 1.0, 1.0, 1.0)
    layers = run.per_layer([(sample, record)], [sample])
    assert "jacobi.export_lines.self_s" not in layers
    assert "jacobi.full.self_s" in layers


def test_report_write_span_skips_reads(tmp_path):
    source = tmp_path / "in.txt"
    source.write_text("x", encoding="utf-8")
    module = types.ModuleType("fake_cli")
    trace = tracer.Tracer()
    trace.patch_report_write(module)
    with module.open(source, "r", encoding="utf-8") as handle:
        assert handle.read() == "x"
    assert tracer.WRITE_SPAN not in trace.totals
    with module.open(tmp_path / "out.txt", "w", encoding="utf-8") as handle:
        handle.write("y")
    assert trace.totals[tracer.WRITE_SPAN][0] == 1
    trace.restore()
    assert not hasattr(module, "open")
