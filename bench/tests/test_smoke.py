"""Every workload at the shortest length: one round (two when traced)."""

import json
import math

import pytest

import run
import tracing
import workloads
from zolosqrt import linalg, sqrtm

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ROUND_SIZE = {"sweep-256": 1, "many-32": 8, "cli-512": 1, "contour-400": 1}


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_checks(name, trace):
    # Another seed when traced: the coefficient cache lives as long as the
    # process, and the same inputs would find their coefficients built.
    m = run.measure(name, seed=3 + trace, seconds=0, trace=trace, setup_repeats=1)
    records = m["records"]
    assert m["problems"] == []
    assert len(records) == ROUND_SIZE[name] * (2 if trace else 1)
    failed = sum(o.failed for _, o in records)
    # Only the scaled ops of many-32 fail today, one per round.
    assert failed == (len(records) // 8 if name == "many-32" else 0)
    if trace:
        values = run.per_layer(m, [x["name"] for x in SPEC["per_layer"]])
        if name == "sweep-256":
            for layer in ("linalg.lu_factor.calls", "linalg.solve.gflops", "sqrtm.step.self_s",
                          "zolofuncs.coeff_builds", "elliptic.jacobi_scd.calls",
                          "sqrtm.iterations.db", "sqrtm.solve_s.z1-0"):
                assert values[layer] > 0, layer
            assert values["cli.read_matrix.s"] == 0.0
    else:
        values = run.end_to_end(m, import_s=0.5)
        assert all(v > 0 for v in values.values())
    assert all(math.isfinite(v) for v in values.values())


def test_tracer_restores_names_and_reports_absent_targets():
    before = (sqrtm.lu_factor, linalg.solve)
    tracer = tracing.Tracer(tracing.TARGETS + (tracing.Target("zolosqrt.sqrtm", "gone", "x.y"),))
    tracer.install()
    assert sqrtm.lu_factor is not before[0]
    tracer.uninstall()
    assert (sqrtm.lu_factor, linalg.solve) == before
    assert tracer.absent == ["zolosqrt.sqrtm.gone"]


def test_main_prints_one_result_line(capsys):
    assert run.main(["--workload", "many-32", "--seed", "5", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] * 8 == last["attempted"]
    assert list(last["metrics"]) == [x["name"] for x in SPEC["end_to_end"]]
