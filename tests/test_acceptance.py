"""Acceptance gate: every numbered criterion runs at its stated tolerance
and prints one pass/fail line.  Run with -s to see the lines as they finish.
"""

import pytest

from cstarlab import acceptance
from cstarlab.pipelines import run_pipeline


def run(number: int) -> acceptance.CriterionResult:
    res = acceptance.CRITERIA[number]()
    print(res.line())
    assert res.passed, res.line()
    return res


def test_criterion_1_polar_and_projection_bounds():
    run(1)


def test_criterion_2_stinespring_reconstruction():
    run(2)


def test_criterion_3_exact_averaging_families():
    run(3)


def test_criterion_4_multiplicativity_repair():
    run(4)


def test_criterion_5_intertwining_unitaries():
    run(5)


def test_criterion_6_close_isomorphisms():
    run(6)


def test_criterion_7_unitary_implementation():
    run(7)


def test_criterion_8_order_zero_perturbation():
    run(8)


def test_criterion_9_nuclear_dimension_transfer():
    run(9)


def test_criterion_10_negative_controls():
    run(10)


def test_criterion_11_deterministic_serialization():
    run(11)


@pytest.mark.parametrize("number,pipeline", [(6, "iso"), (7, "unitary")])
def test_criteria_6_and_7_read_the_pipeline_reports(number, pipeline, monkeypatch):
    # one wiring per pipeline: the criterion reads run_pipeline's report, so a
    # change to the pipeline reaches the selftest with no edit here
    calls = []

    def spy(inst, name, seed=0):
        calls.append((name, seed))
        return run_pipeline(inst, name, seed=seed)

    monkeypatch.setattr(acceptance, "ISO_GRID", acceptance.ISO_GRID[:1])
    monkeypatch.setattr(acceptance, "run_pipeline", spy)
    res = run(number)
    assert calls == [(pipeline, s) for s in range(20)]
    assert res.detail.startswith("20 runs")
