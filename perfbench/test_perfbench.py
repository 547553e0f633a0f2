"""Tests of the benchmark itself: references, byte identity, traced counts.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_wrong_reference_fails_every_operation():
    # the published criterion-3b location, which the computed L1 zero misses
    refs = {"l1_zero": (1.05, 4.02), "tol": 1e-3}
    result = run.run_pass(workloads.build("hopf_curve_l1", 0, ROOT, refs), {})
    assert result.ops >= 1
    assert result.failed == result.ops, result.breaches


def test_changed_cli_output_is_a_failed_operation():
    outputs = iter(['{"kind":"point","x":1}\n', '{"kind":"point","x":2}\n'])
    op = workloads.Op("fake", lambda: workloads.CliResult(0, next(outputs), ""), lambda r: [])
    digests = {}
    assert run.run_pass([op], digests).failed == 0
    second = run.run_pass([op], digests)
    assert second.failed == 1
    assert "differs" in second.breaches[0]


def test_run_outside_a_checkout_fails_without_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "ivp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_pass(name):
    ops = workloads.build(name, 0, ROOT)
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_pass(ops, {}, tracer)
    finally:
        tracer.uninstall()
    assert result.failed == 0, result.breaches
    return summarize(*tracer.take())


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced_twice(request):
    return request.param, _traced_pass(request.param), _traced_pass(request.param)


def test_traced_counts_repeat_exactly(traced_twice):
    _, first, second = traced_twice
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("_s")}
    assert sum(v for k, v in counts.items() if k.endswith(".calls")) > 0


def test_traced_run_bears_out_the_workload_design(traced_twice):
    name, summary, _ = traced_twice
    total = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    if name == "hopf_curve_l1":
        assert summary["normalform.hopf_l1.dd_per_call"] > 0
        assert summary["derivs.self_s"] + summary["histfun.sup_norm.self_s"] > 0.5 * total
    else:
        assert summary["derivs.directional_derivative.calls"] == 0
    if name == "spectral_projection":
        share = summary["histfun.ExpPoly.init_s"] + summary["spectral.resolvent_apply.self_s"]
        assert share > 0.5 * total
