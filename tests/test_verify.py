import os
import subprocess
import sys
from pathlib import Path

import pytest

import qzeta.verify as verify
from qzeta import CriterionFailed, QZetaError


def _swap_5_and_6(original):
    return lambda m: original({5: 6, 6: 5}.get(m, m))


def test_check_raises_criterion_failed():
    verify.check(True, "unused")
    with pytest.raises(CriterionFailed, match="boom") as exc:
        verify.check(False, "boom")
    assert isinstance(exc.value, QZetaError)


def test_run_suite_records_failed_check(monkeypatch):
    monkeypatch.setattr(verify, "reference_gh", _swap_5_and_6(verify.reference_gh))
    monkeypatch.setattr(verify, "CRITERIA", [c for c in verify.CRITERIA if c[0] == 8])
    [result] = verify.run_suite("cm")
    assert not result.passed
    assert result.detail == "g_5 mismatch"


SABOTAGED_CRIT_08 = """
import qzeta.verify as v
original = v.reference_gh
v.reference_gh = lambda m: original({5: 6, 6: 5}.get(m, m))
v.CRITERIA = [c for c in v.CRITERIA if c[0] == 8]
[r] = v.run_suite("cm")
print("PASS" if r.passed else "FAIL", r.detail)
"""


def test_sabotaged_criterion_fails_under_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGED_CRIT_08],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "FAIL g_5 mismatch"
