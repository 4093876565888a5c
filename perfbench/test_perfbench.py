"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They use each workload's tiny op list, so they take well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import runner  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_unit(name, trace):
    out = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.END_TO_END if trace == 0 else \
        {m: run.layer_unit(m) for m in run.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    assert all(printed[m] == unit for m, unit in expected.items())
    assert {"fail_ratio", "cert_ratio_max", "cert_ratio_mean"} <= set(printed)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def _traced_pass(seed):
    w = WORKLOADS["ladder"]
    tracer = Tracer()
    p = runner.run_pass(w, w.smoke, seed, 0, tracer=tracer)
    table = tracer.summary({i: op.pipeline for i, op in enumerate(w.smoke)})
    return p, {k: v for k, v in table.items() if k.endswith(".calls")}


def test_traced_calls_repeat_and_reports_match_untraced():
    w = WORKLOADS["ladder"]
    plain = runner.run_pass(w, w.smoke, 11, 0)
    first, calls_1 = _traced_pass(11)
    _, calls_2 = _traced_pass(11)
    assert calls_1 == calls_2
    assert calls_1["linalg.opnorm.calls"] > 0
    assert [r.report for r in first.results] == [r.report for r in plain.results]


def test_speed_meter_changes_no_report():
    w = WORKLOADS["ladder"]
    plain = runner.run_pass(w, w.smoke, 12, 0)
    with SpeedMeter() as meter:
        metered = runner.run_pass(w, w.smoke, 12, 0, meter=meter)
    runner.set_speeds([metered], meter)
    assert [r.report for r in metered.results] == [r.report for r in plain.results]
    assert sum(r.end - r.start - r.seconds for r in metered.results) > 0
    assert all(0 < r.seconds <= r.end - r.start and r.speed > 0
               for r in metered.results)


def test_wrappers_reach_rebound_names_and_are_removed():
    from cstarlab import cpmaps, geometry, intertwine, linalg
    original, call = linalg.opnorm, cpmaps.LinMap.__call__
    with Tracer() as tracer:
        assert intertwine.opnorm is linalg.opnorm is geometry.opnorm
        assert linalg.opnorm is not original
        intertwine.opnorm(np.eye(2))
        geometry.opnorm(np.eye(3))
    assert intertwine.opnorm is original and geometry.opnorm is original
    assert cpmaps.LinMap.__call__ is call
    assert tracer.summary({})["linalg.opnorm.calls"] == 2


def test_self_time_excludes_children():
    from cstarlab import instances, serialize
    tracer = Tracer()
    with tracer:
        serialize.dumps(instances.gen_instance("conjugation", {}, seed=0))
    table = tracer.summary({})
    incl = table["serialize.dumps.incl_s"]
    assert 0 < table["serialize.dumps.self_s"] <= incl
    assert table["serialize.dumps.bytes"] > 0
    assert table["instances.gen_instance.self_s"] < \
        table["instances.gen_instance.incl_s"]


def test_failing_op_is_counted_not_fatal():
    bad = Workload(name="bad", why="", pass_s=1.0, smoke=(), ops=(
        Op("choi-noise", "M2", 4, "iso"), Op("conjugation", "M2", 4, "unitary")))
    p = runner.run_pass(bad, bad.ops, 0, 0)
    assert p.results[0].error.startswith("ContradictionError")
    assert p.results[1].error is None


def test_checks_catch_a_tampered_report():
    op = Op("conjugation", "M2", 4, "dist")
    res = runner.run_op(op, 2)
    assert res.error is None
    from cstarlab import instances
    inst = instances.gen_instance(op.recipe, op.params, seed=2)
    data = json.loads(res.report)
    cert = data["certificates"]["distance-interval"]
    cert["achieved"] = cert["ceiling"] * 2
    tampered = json.dumps(data, indent=2, sort_keys=True)
    assert "verdict pass" in runner.check_report(tampered, inst, op)[0]
    for interval, message in (({"lo": 1.0, "hi": 0.5}, "> hi"),
                              ({"lo": 1.0, "hi": 1.0}, "conjugation bound")):
        data = json.loads(res.report)
        data["notes"]["interval"] = interval
        tampered = json.dumps(data, indent=2, sort_keys=True)
        assert message in runner.check_report(tampered, inst, op)[0]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "ladder", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
