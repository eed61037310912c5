import os
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qzeta.verify as verify
from qzeta import CriterionFailed, QZetaError
from qzeta.cli import main


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



def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suite("bogus")


def test_run_suite_all_keeps_the_pinned_criteria():
    # bench/pins.json pins [number, name, suite, passed] of each of the 14 criteria
    from bench.workloads import judge, load_pins

    verdict = judge("verify", None, {"run_suite(all)": verify.run_suite("all")}, {}, load_pins()["verify"])
    assert verdict == {f"crit_{k:02d}": None for k in range(1, 15)}


def test_extended_entries_fail_on_a_wrong_reference_an_exception_or_their_timeout(monkeypatch, capsys):
    def wrong():
        verify.check(verify.q_binom_sym(4, 2) == verify.q_binom_sym(4, 1), "[4 choose 2]_q")

    def broken():
        raise TypeError("unsupported operand")

    entries = [(1, "right", "extended", lambda: None, 60), (2, "wrong", "extended", wrong, 60),
               (3, "broken", "extended", broken, 60), (4, "slow", "extended", lambda: None, 60)]
    monkeypatch.setattr(verify, "EXTENDED", entries)
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=iter([0, 1.5] * 3 + [0, 61.5]).__next__))
    # the process peak in KiB before and after each entry: entries 1 and 3
    # raise it and print it as their own; 2 and 4 stay under the peak they
    # started at, which bounds theirs
    peaks = iter([100 << 10, 200 << 10, 200 << 10, 200 << 10, 200 << 10, 300 << 10, 300 << 10, 300 << 10])
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=next(peaks)))
    assert main(["verify", "--suite", "extended"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS]  1. right (1.50s, peak RSS 200 MiB)",
        "[FAIL]  2. wrong (1.50s, peak RSS ≤ 200 MiB) -- [4 choose 2]_q",
        "[FAIL]  3. broken (1.50s, peak RSS 300 MiB) -- TypeError: unsupported operand",
        "[FAIL]  4. slow (61.50s, peak RSS ≤ 300 MiB) -- took 61.5 s, past its timeout of 60 s",
        "FAILURES PRESENT (1/4)",
    ]
    assert next(peaks, None) is None
