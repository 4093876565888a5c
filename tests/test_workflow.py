"""The CI workflow selects tests that exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "- name: Summation-order tests with two BLAS threads"


def test_two_thread_step_selects_a_test_with_every_name():
    # the step selects by marker: each marker name in its -m expression is
    # registered in pyproject.toml, which runs pytest with --strict-markers,
    # so a misspelled mark fails collection instead of silently leaving its
    # test out of the two-thread run, and each name marks at least one test
    text = WORKFLOW.read_text()
    step = text[text.index(STEP):]
    step = step[:step.index("\n      - name:")]
    assert "OPENBLAS_NUM_THREADS=2" in step
    names = re.split(r"\s+or\s+", re.search(r"-m (\w+(?:\s+or\s+\w+)*) tests/", step).group(1))
    config = (ROOT / "pyproject.toml").read_text()
    assert '"--strict-markers"' in config
    tests = [f.read_text() for f in sorted((ROOT / "tests").glob("test_*.py"))]
    for name in names:
        assert f'"{name}: ' in config, name
        assert any(re.search(rf"^@pytest\.mark\.{name}$", t, re.M) for t in tests), name
