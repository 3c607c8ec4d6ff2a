"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run the benchmark at tiny size (``--tiny``), so they take seconds, and
check that every named metric is emitted with its unit and that the oracle
catches a corrupted output, so a failure count of zero is never vacuous.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _python(script, *args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny_pass(workload, workdir):
    proc = _python("child.py", "--workload", workload, "--seed", "5",
                   "--workdir", str(workdir), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _corrupt(text):
    """Bump the last digit of an output."""
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _python("run.py", "--workload", workload, "--seed", "5",
                   "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("failed_ratio 0 ") for line in lines)
    facts = json.loads(next(line for line in lines if line.startswith("facts "))[6:])
    assert set(facts["workloads"]) == set(WORKLOADS)
    assert facts["src_lines"]["subgroups"] > 0


def test_per_layer_names_match_the_tracer():
    assert [m["name"] for m in BENCH["per_layer"]] == list(tracing.UNITS)
    assert set(tracing.MOVES) == set(tracing.UNITS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert set(WORKLOADS) == set(run.WHY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_flags_every_corrupted_output(workload, tmp_path):
    report = _tiny_pass(workload, tmp_path)
    ops, results = report["ops"], report["results"]
    assert not any(oracle.check_pass(ops, results))
    for i, op in enumerate(ops):
        bad = [dict(r) for r in results]
        bad[i]["stdout"] = _corrupt(bad[i]["stdout"])
        assert oracle.check_pass(ops, bad)[i], op["name"]
        bad = [dict(r) for r in results]
        bad[i]["rc"] = 3
        assert oracle.check_pass(ops, bad)[i], op["name"]


def test_output_that_changes_between_passes_is_a_failure(tmp_path):
    first = _tiny_pass("genus_deep", tmp_path)
    second = json.loads(json.dumps(first))
    second["results"][0]["stdout"] += "\n"
    attempted, failed, reasons = run.count_failures([first, second])
    assert attempted == 2 * len(first["ops"])
    assert failed == 1 and "differs between passes" in reasons[-1]


def test_tracer_uninstall_restores_the_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from modscreen import cli, curves, points, subgroups, zmod
    before = (zmod.quad_mul, subgroups.quad_mul, points.fiber_degrees,
              cli.fiber_degrees, subgroups.BorelGroup.coset_key)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert subgroups.quad_mul is not before[0]
        assert curves.quad_mul is subgroups.quad_mul is zmod.quad_mul
        assert cli.fiber_degrees is points.fiber_degrees is not before[2]
        assert subgroups.BorelGroup.coset_key is not before[4]
    finally:
        tracer.uninstall()
    assert (zmod.quad_mul, subgroups.quad_mul, points.fiber_degrees,
            cli.fiber_degrees, subgroups.BorelGroup.coset_key) == before


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = _python("run.py", "--workload", "screen", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_to_reference_speed():
    # the reference loop ran at reference speed until t = 10, then twice as fast
    gauge = {"times": [0.0, 10.0, 11.0, 20.0],
             "seconds": [run.REFERENCE_S] * 2 + [run.REFERENCE_S / 2] * 2}
    assert run.mean_speed(gauge, 2.0, 4.0) == pytest.approx(1.0)
    assert run.mean_speed(gauge, 10.0, 11.0) == pytest.approx(1.5)
    assert run.mean_speed(gauge, 15.0, 25.0) == pytest.approx(2.0)
    report = {"ops": [{"check": {}}] * 2, "setup_s": 0.3, "setup_gauge_s": 0.1,
              "t_spawn": 1.0, "t_first_op": 1.3, "peak_rss_mb": 40.0, "gauge": gauge,
              "results": [{"seconds": 1.0, "span": [2.0, 3.0]},
                          {"seconds": 3.0, "span": [12.0, 15.0]}]}
    figures = run.pass_figures(report, "fiber_deep")
    assert figures["wall_s"] == pytest.approx(7.0)
    assert figures["op_p50_ms"] == pytest.approx(3500.0)
    assert figures["setup_s"] == pytest.approx(0.2)
    assert figures["raw_wall_s"] == pytest.approx(4.0)
