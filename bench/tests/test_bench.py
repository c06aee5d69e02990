"""The benchmark's own tests: generator, oracles and printed metrics.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import measure
import oracles
import run
import workloads
from conftest import BENCH, ROOT

ENV = measure.child_env(str(ROOT / "src"))


def _first(workload, pred, seed=3):
    return next(j for j in workloads.generate(workload, seed) if pred(j))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_job_list(workload):
    a = workloads.generate(workload, 5)
    b = workloads.generate(workload, 5)
    assert [j.argv for j in a] == [j.argv for j in b]
    assert workloads.job_list_hash(a) == workloads.job_list_hash(b)
    assert workloads.job_list_hash(a) != workloads.job_list_hash(workloads.generate(workload, 6))


def test_relabelled_tables_keep_the_identity_off_index_zero():
    tables = [json.loads(j.group) for w in workloads.WORKLOADS
              for j in workloads.generate(w, 5) if j.group.startswith("{")]
    assert tables
    for t in tables:
        n = t["order"]
        ident = next(a for a in range(n)
                     if all(t["table"][a * n + b] == b for b in range(n)))
        assert ident != 0


def test_a_tampered_expected_value_counts_as_a_failure():
    job = _first("lattice", lambda j: j.command == "gsd" and j.preset == "cyclic:2"
                 and j.lattice == "torus:3x3")
    expected = oracles.expect(job)
    assert measure.run_job(job, expected, str(ROOT), ENV).failure is None
    tampered = dict(expected, dimension=expected["dimension"] + 1)
    assert measure.run_job(job, tampered, str(ROOT), ENV).failure


def test_an_injected_audit_that_exits_zero_counts_as_a_failure():
    job = _first("lattice", lambda j: j.inject is not None and j.preset == "cyclic:3")
    expected = oracles.expect(job)
    done = measure.run_job(job, expected, str(ROOT), ENV)
    assert done.failure is None and done.spawn.exit_code == oracles.EXIT_INVARIANT
    assert oracles.check(job, expected, 0, done.spawn.stdout)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(
        trace, section, monkeypatch, tmp_path, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    small = [j for j in workloads.generate("lattice", 1)
             if j.command == "lattice-audit" and j.preset == "cyclic:3"][:2]
    monkeypatch.setattr(workloads, "generate", lambda w, s: small)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "lattice", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    text = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert any(name in ln and f" {unit} " in ln + " " for ln in lines[:-1]), name
    if trace == 0:
        assert "failed_frac" in text


def test_times_are_scaled_to_the_reference_host_speed(monkeypatch):
    def job(wall):
        return measure.JobRun(measure.Spawn(wall, 0, "", "", 1024, wall), None)
    monkeypatch.setattr(measure, "CALIBRATION_ELASTICITY", 1.0)
    slow = measure.Round(jobs=[job(2.0), job(4.0)], probes_s=[1.0],
                         calibrations_s=[1.5 * measure.CALIBRATION_REF_S,
                                         2.5 * measure.CALIBRATION_REF_S])
    metrics, _ = measure.end_to_end([slow])
    assert metrics["wall_s"][0] == pytest.approx(3.0)
    assert metrics["job_p50_s"][0] == pytest.approx(1.5)
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    assert metrics["peak_rss_mb"][0] == 1.0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_notes_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
