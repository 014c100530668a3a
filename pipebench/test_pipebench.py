"""Self-tests of the pipeline benchmark.

Run from the repository root with `python -m pytest pipebench`.  Each
workload runs one traced pass on its smallest instance under two seeds;
the exact per-layer counts must agree, and every instance must pass its
frozen checks.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import seplat  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def traced_smallest_pass(workload, seed, workdir):
    inputs = workloads.make_inputs(workload, seed, 0, str(workdir))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = workloads.run_pass(workload, inputs, only=1)
    finally:
        tracer.uninstall()
    return outcome, tracer.metrics(pass_s=0.0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_seeds(workload, tmp_path):
    first, counts_a = traced_smallest_pass(workload, 3, tmp_path)
    second, counts_b = traced_smallest_pass(workload, 4, tmp_path)
    assert list(first.values()) == [None] and list(second.values()) == [None]
    for name in tracing.EXACT_COUNTS:
        assert counts_a[name] == counts_b[name], name
    assert counts_a["product.family_size"] > 0
    if workload == "certify":
        assert counts_a["morphisms.enumerate_automorphisms.leaves"] > 0


def test_seeds_relabel_the_inputs():
    a = workloads.make_inputs("certify", 3, 0)
    b = workloads.make_inputs("certify", 4, 0)
    assert a.lat("gf2_3") != b.lat("gf2_3")
    assert a.factors["mo4"][1] != b.factors["mo4"][1]
    again = workloads.make_inputs("certify", 3, 0)
    assert again.factors == a.factors


def test_wrong_output_is_a_failed_instance():
    inputs = workloads.make_inputs("certify", 3, 0)
    inputs.factors["mo2b"] = inputs.factors["mo3"]
    outcome = workloads.run_pass("certify", inputs, only=1)
    assert outcome["mo2xmo2"].startswith("Mismatch: generator-route element count")


def test_uninstall_restores_the_library():
    before = (seplat.check_sproduct, seplat.axioms.check_sproduct, seplat.Lattice.join)
    tracer = tracing.Tracer()
    tracer.install()
    assert seplat.morphisms.check_sproduct is not before[1]
    tracer.uninstall()
    after = (seplat.check_sproduct, seplat.morphisms.check_sproduct, seplat.Lattice.join)
    assert after == before


def test_metric_names_match_the_spec(tmp_path):
    _, metrics = traced_smallest_pass("construct", 3, tmp_path)
    produced = set(metrics) | {"trace.pass_s", "trace.overhead"}
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert produced == set(declared)
    assert set(PREDICTIONS["per_layer"]) == set(declared)
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(PREDICTIONS["workloads"])
    assert set(tracing.EXACT_COUNTS) <= produced


def test_describe_reports_the_tail_only_with_ten_samples_beyond():
    assert run.describe([3.0, 1.0, 2.0])["tail"] is None
    two = run.describe([2.0, 1.0])
    assert (two["q1"], two["median"], two["q3"]) == (1.25, 1.5, 1.75)
    stats = run.describe([float(i) for i in range(12)])
    assert stats["tail"] == {"percentile": 100.0 * 2 / 12, "value": 1.0}
    assert (stats["median"], stats["n"]) == (5.5, 12)


def test_setup_child_reports_its_set_up_time():
    args = run.argparse.Namespace(workload="documents", seed=3)
    report = run.spawn(args, "setup", 0, 0)
    assert report["backend"] == seplat.BACKEND
    assert 0 < report["setup_s"] <= report["wall_s"]
