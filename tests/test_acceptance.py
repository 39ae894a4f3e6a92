"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with -s to see the PASS/FAIL lines; the same checks back the CLI's
verify subcommand.
"""
import pytest

from orthochan.verify import CRITERIA

SEED = 0


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion(SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.index:02d} {status} {result.name}: {result.detail}")
    assert result.index == CRITERIA.index(criterion) + 1
    assert criterion.__name__.startswith(f"criterion_{result.index}_")
    assert result.passed, f"criterion {result.index}: {result.name} [{result.detail}]"
