"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with -s to see the PASS/FAIL lines; the same checks back the CLI's
verify subcommand.
"""
import os
import subprocess
import sys
from pathlib import Path

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


def test_identity_resolution_holds_one_dense_array_per_r():
    # At d = 8, r = 4 one 4096^2 float array is 128 MiB; summing a dense
    # op_Q_tilde per block into a total would hold two.  The peak is the
    # child's own VmHWM, read after the criterion returns (ru_maxrss would
    # carry the test session's peak across fork and exec).
    script = (
        "from orthochan.verify import criterion_6_mobius_algebra; result = criterion_6_mobius_algebra(0); "
        "print(result.passed, *[line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')])"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    passed, peak_kib = done.stdout.split()
    assert passed == "True"
    assert int(peak_kib) * 1024 < 200 * 2**20, f"peak {int(peak_kib) / 1024:.1f} MiB"
