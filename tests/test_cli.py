import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qzeta
from qzeta.braided import hilbert_dims, transposition_class
from qzeta.cli import main
from qzeta.errors import BudgetExceeded
from qzeta.serialize import encode_payload
from qzeta.verify import run_suite
from qzeta.zeta_engine import cm_from_zeta, cm_series_cs, zeta_vm_closed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zeta_cn_text(capsys):
    code, out, _ = run(capsys, "zeta", "cn", "--n", "2", "--order", "2", "--format", "text")
    assert code == 0
    assert out.strip() == "1 + (q + q^-1) t + (q^2 + 1 + q^-2) t^2"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(qzeta.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "qzeta", "zeta", "cn", "--n", "2", "--order", "2", "--format", "text"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1 + (q + q^-1) t + (q^2 + 1 + q^-2) t^2"


def test_closed_stdout_exits_1_quietly():
    # the reader of stdout is gone before anything is written, as in `qzeta ... | head -c 10`
    env = dict(os.environ)
    src = str(Path(qzeta.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "qzeta", "zeta", "cn", "--n", "3", "--order", "20", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    try:
        _out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode == 1


def test_importing_the_cli_leaves_dataclasses_out():
    # every command imports qzeta.verify; dataclasses would pull in inspect, ast, dis and tokenize
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(qzeta.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, qzeta.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_importing_main_module_runs_nothing():
    # tools that import every submodule (the benchmark tracer does) must not start the CLI
    importlib.import_module("qzeta.__main__")


def test_zeta_cn_closed_default(capsys):
    code, out, _ = run(capsys, "zeta", "cn", "--n", "2")
    assert code == 0
    assert out.strip() == "1/(1 - q^-1 t)(1 - q t)"


def test_zeta_vm(capsys):
    code, out, _ = run(capsys, "zeta", "vm", "--m", "0")
    assert code == 0
    assert out.strip() == "1/(1 - t)"


def test_nichols(capsys):
    code, out, _ = run(capsys, "nichols", "--sym-group", "3", "--max-degree", "4")
    assert code == 0
    assert out.strip() == "1,3,4,3,1"


def test_nichols_quadratic(capsys):
    code, out, _ = run(capsys, "nichols", "--sym-group", "2", "--max-degree", "3", "--quadratic")
    assert code == 0
    assert out.strip() == "1,1,0,0"


def test_cm_routes_agree(capsys):
    outputs = set()
    for route in ("cs", "extract", "recursion"):
        code, out, _ = run(capsys, "cm", "--m", "3", "--order", "6", "--route", route)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_finite(capsys):
    code, out, _ = run(capsys, "finite", "--n", "3", "--regular")
    assert code == 0
    assert out.strip() == "1 + (3) t + (3) t^2 + t^3"
    code, out, _ = run(capsys, "finite", "--n", "3")
    assert out.strip() == "1/(1 - t)^3"


def test_fit_text(capsys):
    code, out, _ = run(capsys, "fit", "--m", "2")
    assert code == 0
    assert "g_2 = 1" in out
    assert "h_2" in out


def test_fit_default_cap_fails_for_m9(capsys):
    code, out, err = run(capsys, "fit", "--m", "9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "no (g, h) found" in err


def test_fit_raised_cap_for_m9(capsys):
    code, out, _ = run(capsys, "fit", "--m", "9", "--max-h-degree", "80")
    assert code == 0
    assert "h_9 = " in out
    code, out, _ = run(capsys, "fit", "--m", "3", "--max-h-degree", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["metadata"]["parameters"] == {"m": 3, "max_h_degree": 4}


def test_fit_zero_cap_exit_1(capsys):
    code, out, err = run(capsys, "fit", "--m", "5", "--max-h-degree", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "max_h_degree" in err


def test_sphere(capsys):
    code, out, _ = run(capsys, "sphere", "--coeff", "0")
    assert code == 0
    assert out.strip() == "1"


def test_json_round_trip_byte_identical(capsys):
    code, out, _ = run(capsys, "zeta", "cn", "--n", "3", "--order", "4", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == out.strip()
    assert parsed["kind"] == "series"
    assert parsed["metadata"]["command"] == "zeta cn"


def test_json_fraction_exponents(capsys):
    code, out, _ = run(capsys, "sphere", "--coeff", "1", "--format", "json")
    parsed = json.loads(out)
    assert parsed["kind"] == "rational"
    for term in parsed["payload"]["numerator"]["terms"]:
        exp, coeff = term
        assert len(exp) == 2 and len(coeff) == 2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "cn", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_computation_error_exit_1(monkeypatch, capsys):
    import qzeta.cli as cli_mod

    def boom(*args, **kwargs):
        raise BudgetExceeded("synthetic budget failure")

    monkeypatch.setattr(cli_mod, "hilbert_dims", boom)
    code = main(["nichols", "--sym-group", "3", "--max-degree", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "synthetic budget failure" in captured.err


def test_nichols_partial_result_exit_1(monkeypatch, capsys):
    import qzeta.cli as cli_mod
    from qzeta.braided import GradedDims

    monkeypatch.setattr(cli_mod, "hilbert_dims", lambda x, degree: GradedDims([1, 6, 19], degree))
    code, out, err = run(capsys, "nichols", "--sym-group", "4", "--max-degree", "7")
    assert code == 1
    assert out.strip() == "1,6,19  (partial: reached degree 2)"
    assert err.strip() == "error: budget exceeded: reached degree 2 of 7"


def test_nichols_quadratic_partial_result_exit_1(capsys):
    # X_5 has n = 10: degree 6 reads 10^6 columns, past the default budget of 100,000
    code, out, err = run(capsys, "nichols", "--sym-group", "5", "--max-degree", "6", "--quadratic")
    assert code == 1
    assert out.strip() == "1,10,55,220,711,1960  (partial: reached degree 5)"
    assert err.strip() == "error: budget exceeded: reached degree 5 of 6"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sphere", "--coeff", "5"], "k = 0..3 only"),
        (["zeta", "cn", "--n", "0", "--order", "3"], "n must be >= 1"),
        (["zeta", "cn", "--n", "2", "--order", "-1"], "order must be non-negative"),
        (["cm", "--m", "-1", "--order", "3"], "must be non-negative"),
        (["nichols", "--sym-group", "1", "--max-degree", "3"], "k must be >= 2"),
        (["nichols", "--sym-group", "3", "--max-degree", "-1"], "max_degree must be non-negative"),
        (["nichols", "--sym-group", "3", "--max-degree", "-1", "--quadratic"],
         "max_degree must be non-negative"),
        # X_K is not built: its braid check alone is O(C(K,2)^3)
        (["nichols", "--sym-group", "100", "--max-degree", "3"], "exceeds budget"),
        (["nichols", "--sym-group", "26", "--max-degree", "1", "--quadratic"],
         "n^2 = 325^2 = 105625 exceeds budget 100000"),
    ],
)
def test_invalid_input_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sphere")
    assert code == 0
    assert out.count("[PASS]") == 2


@pytest.mark.parametrize(
    "argv, compute",
    [
        (["cm", "--m", "3", "--order", "5"], lambda: cm_series_cs(3, 5)),
        # m < 2 has no recursion step; the route must still give c_1
        (["cm", "--m", "1", "--order", "4", "--route", "recursion"],
         lambda: cm_from_zeta(1, zeta_vm_closed(1).expand(4))),
        (["zeta", "vm", "--m", "2", "--order", "3"], lambda: zeta_vm_closed(2).expand(3)),
        (["nichols", "--sym-group", "3", "--max-degree", "4"],
         lambda: hilbert_dims(transposition_class(3), 4)),
    ],
    ids=["cm", "cm-recursion-m1", "zeta-vm-order", "nichols"],
)
def test_json_payload_matches_library_call(capsys, argv, compute):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    kind, payload = encode_payload(compute())
    assert (doc["kind"], doc["payload"]) == (kind, payload)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sphere", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "verdict"
    assert doc["metadata"] == {"command": "verify", "parameters": {"suite": "sphere"},
                               "version": qzeta.__version__}
    payload = doc["payload"]
    assert payload["suite"] == "sphere" and payload["passed"] is True
    expected = [(r.number, r.name, r.suite, r.passed, r.detail) for r in run_suite("sphere")]
    got = [(c["number"], c["name"], c["suite"], c["passed"], c["detail"]) for c in payload["criteria"]]
    assert got == expected and [c[0] for c in got] == [10, 11]
    assert all(isinstance(c["seconds"], (int, float)) for c in payload["criteria"])
