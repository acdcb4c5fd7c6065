"""Each workload runs to its end on a tiny corpus, the traced run covers
every layer the README names for it, and the speed probe and the corpus's
lcm-lattice count do what the run relies on.

Run with ``python3 -m pytest benchmark``; the cw-certify coverage test runs
one 3x7 case under the tracer and takes about 20 s.
"""

import json

import pytest

import run
import speed
from corpus import lcm_lattice_size
from tracing import EXPECTED, LAYER_METRICS

WORKLOAD_NAMES = ["linearity-sweep", "cw-certify", "strand-polarize"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_to_its_end(name):
    result = run.run_workload(name, seed=1, seconds=0, trace=False, tiny=True)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert [k for k, _ in run.END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_covers_every_named_layer(name):
    result = run.run_workload(name, seed=2, seconds=0, trace=True, tiny=True)["result"]
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [k for k, _, _ in LAYER_METRICS]
    silent = [k for k, workloads in EXPECTED.items() if name in workloads and not metrics[k]["value"] > 0]
    assert silent == [], f"layers that recorded no work on {name}: {silent}"


def test_every_layer_metric_names_a_workload():
    assert set(EXPECTED) == {k for k, _, _ in LAYER_METRICS}
    assert set().union(*EXPECTED.values()) == set(WORKLOAD_NAMES)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS


def test_missing_sources_exit_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cw-certify", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_speed_factor_is_local_and_ignores_a_stall():
    assert len(speed.probe_for(0.0)) == 1  # a case too short to share still probes once
    nominal = speed.NOMINAL_S
    # one iteration in ten stalls; it counts at three times the median
    assert speed.factor([nominal / 2] * 9 + [50 * nominal]) == pytest.approx(1 / 0.6)
    fast, slow = [nominal / 2] * 10, [nominal * 2] * 10
    assert speed.local_factors([fast, fast, slow, slow], window=10) == pytest.approx([2, 2, 0.5, 0.5])
    # too few iterations of its own: a case borrows from both sides
    widened = speed.local_factors([fast, fast[:2], slow], window=10)
    assert widened[0] == pytest.approx(2) and widened[1] < 2 and widened[2] == pytest.approx(0.5)


def test_lcm_lattice_counts_every_lcm_of_the_generators():
    # 1 x m: the generators are the m variables, their lcms every nonempty set.
    weights = ((3, 1, 2, 5),)
    assert lcm_lattice_size(1, 4, weights, ()) == 15
    assert lcm_lattice_size(1, 4, weights, ((2,), (4,))) == 3
