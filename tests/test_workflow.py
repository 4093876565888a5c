"""The CI workflow selects tests that exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "- name: Witness solver and stack tests with two BLAS threads"


def test_two_thread_step_selects_a_test_with_every_name():
    # pytest -k keeps a test whose name contains the expression's name, case
    # aside; a name that matches no test in the step's files selects nothing,
    # so a renamed test would silently leave the two-thread run
    text = WORKFLOW.read_text()
    step = text[text.index(STEP):]
    step = step[:step.index("\n      - name:")]
    files = re.findall(r"tests/\w+\.py", step)
    names = re.split(r"\s+or\s+", re.search(r'-k "([^"]*)"', step).group(1).strip())
    defined = [name.lower() for f in files
               for name in re.findall(r"^\s*def (test_\w+)", (ROOT / f).read_text(), re.M)]
    assert files and names
    assert [n for n in names if not any(n.lower() in d for d in defined)] == []
