"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import qmn.cli  # noqa: E402
import qmn.markov  # noqa: E402
import qmn.graphs  # noqa: E402
from qmn import families  # noqa: E402
from perfbench import harness, tracing, workloads  # noqa: E402

def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_wrong_expected_verdict_is_a_failed_op_and_the_pass_goes_on(tmp_path):
    files = workloads._Files(str(tmp_path))
    cell = files.save("cell", families.cell_model())
    wrong = files.classify(cell, "LocalCommuting")  # the cell is ShieldCommutingOnly
    right = files.classify(cell, "ShieldCommutingOnly")
    results = harness.run_pass([wrong, right, files.verify(cell)])
    assert [r.failure is None for r in results] == [False, True, True]
    assert results[0].wrong
    assert "ShieldCommutingOnly" in results[0].failure


def test_wrong_exit_code_failure_carries_the_reports_reason(tmp_path):
    files = workloads._Files(str(tmp_path))
    chain = files.save("chain", families.noncommuting_chain())
    (r,) = harness.run_pass([files.decompose(chain)])  # not decomposable: exit 2
    assert r.wrong
    assert r.failure.startswith("exit 2, expected 0: edge cumulants")


def test_error_exit_and_escaped_exception_fail_without_a_wrong_verdict(tmp_path, monkeypatch):
    files = workloads._Files(str(tmp_path))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    files.dims[str(broken)] = 2
    missing = workloads.Op(workloads.CLASSIFY, ("classify", str(tmp_path / "none.json")),
                           0, "LocalCommuting", str(tmp_path / "none.out.json"))
    results = harness.run_pass([files.decompose(str(broken)), missing])
    assert all(r.failure.startswith("exit 1") for r in results)
    assert not any(r.wrong for r in results)

    def boom(argv):
        raise RuntimeError("escaped")
    monkeypatch.setattr(qmn.cli, "main", boom)
    (r,) = harness.run_pass([files.cumulants(str(broken))])
    assert r.failure == "raised RuntimeError: escaped" and not r.wrong


def test_output_left_by_an_earlier_pass_does_not_stand_in(tmp_path, monkeypatch):
    files = workloads._Files(str(tmp_path))
    decompose, classify, _ = files.round_trip("path4", families.theorem4_model(
        "path4", np.random.default_rng(0)))
    assert [r.failure for r in harness.run_pass([decompose, classify])] == [None, None]
    # a later pass in which qmn claims success but writes nothing
    monkeypatch.setattr(qmn.cli, "main", lambda argv: 0)
    results = harness.run_pass([decompose, classify])
    assert all(r.failure.startswith("unreadable report") for r in results)
    assert not os.path.exists(decompose.argv[decompose.argv.index("--out") + 1])


def test_tolerance_breach_is_a_wrong_answer(tmp_path):
    files = workloads._Files(str(tmp_path))
    chain = files.save("ising4", families.ising_chain(4))
    op = files.verify(chain)
    strict = workloads.Op(op.kind, op.argv, op.exit_code, op.verdict, op.report, tol=-1.0)
    (r,) = harness.run_pass([strict])
    assert r.wrong and "max_cmi" in r.failure


def test_tracer_records_nested_spans_and_restores_every_binding():
    before = (qmn.markov.partial_trace, qmn.markov.entropy, qmn.markov.np,
              qmn.markov.DensityMatrix.__post_init__)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        rho = qmn.markov.gibbs(families.ising_chain(4))
        qmn.markov.cmi(rho, {1}, {2}, {3})
    finally:
        restore()
    assert (qmn.markov.partial_trace, qmn.markov.entropy, qmn.markov.np,
            qmn.markov.DensityMatrix.__post_init__) == before
    names = [s.name for s in tracer.spans]
    assert names.count("markov.cmi") == 1 and names.count("markov.entropy") == 4
    cmi = names.index("markov.cmi")
    for s in tracer.spans:
        if s.name in ("markov.entropy", "tensor.partial_trace"):
            assert s.parent == cmi
        if s.name == "linalg.eigvalsh" and tracer.spans[s.parent].name == "markov.entropy":
            assert s.attrs["dim"] in (2, 4, 8)
    m = tracing.layer_metrics(tracer.spans, {None: 16})
    assert m["markov.cmi.calls"] == 1 and m["markov.entropy_per_cmi"] == 1.0
    assert m["linalg.eig.full_dim_calls"] == 2  # gibbs eigh + DensityMatrix eigvalsh
    assert m["markov.density_matrix.builds"] == 1
    # computed bytes: four traces of the 16x16 state into 4x4, 4x4, 8x8, 2x2
    assert m["tensor.partial_trace.calls"] == 4
    assert m["tensor.partial_trace.bytes"] == 16 * (4 * 16 ** 2 + 4 ** 2 * 2 + 8 ** 2 + 2 ** 2)


def test_tracer_counts_partitions_yielded_by_the_enumeration_generators():
    graph = families.ising_chain(5).graph
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        parts = list(qmn.graphs.spanning_shield_partitions(graph))
    finally:
        restore()
    m = tracing.layer_metrics(tracer.spans, {})
    assert m["graphs.partitions"] == len(parts) > 0
    assert m["decompose.classify.partitions"] == 0


def test_summary_percentile_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 21)]
    s = harness.summary(values)
    assert s["n"] == 20 and s["median"] == 10.5 and s["p50"] == 10.0
    assert sum(v > s["p50"] for v in values) >= 10
    assert not any(k.startswith("p") for k in harness.summary(values[:10]))


def test_benchmark_json_names_match_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_UNITS
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "wall_s"] + [f"{k}_s" for k in workloads.KINDS] + [
        "peak_rss_mb", "pass_rate"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    proc = _run("--workload", "classify-tiling", "--seed", "3", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
