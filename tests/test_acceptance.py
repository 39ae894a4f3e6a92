"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with -s to see the PASS/FAIL lines; the same checks back the CLI's
verify subcommand.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orthochan import verify
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


def test_criterion_10_detail_does_not_depend_on_the_r2_residues(monkeypatch):
    # criterion 10's r = 2 distances are rounding residues of a dense eigvalsh, which move with the
    # BLAS thread count; these are its readings at one and at two OpenBLAS threads.  The detail prints
    # them at the 1e-12 resolution the criterion asserts, and the r = 3 distances in full.
    details = []
    for r2 in ((8.88e-16, 1.44e-15, 1.55e-15), (8.88e-16, 1.55e-15, 2.00e-15)):
        distances = {**dict(zip([(2, 8), (2, 16), (2, 32)], r2)), (3, 4): 0.5, (3, 8): 0.25, (3, 12): 1 / 6}
        monkeypatch.setattr(verify, "_q_spectrum_distance", lambda r, d: distances[r, d])
        details.append(verify.criterion_10_q_spectrum(SEED).detail)
    assert details == ["r=2 (d=8,16,32): 0, 0, 0; r=3 (d=4,8,12): 0.5, 0.25, 0.166667"] * 2


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
