import csv
import io
import json
import subprocess
import sys

import pytest

from fraclap import cli, verify
from fraclap.quadrature import ToleranceNotMet


def test_verify_text(capsys):
    assert cli.main(["verify", "--check", "green-limit"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check_id: green-limit\npass: true\n")
    assert "wall_time: " in out


def test_verify_csv(capsys):
    assert cli.main(["verify", "--check", "dimension-reduction", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["check_id", "kind", "key", "value"]
    assert rows[1] == ["dimension-reduction", "pass", "", "true"]
    assert all(r[0] == "dimension-reduction" for r in rows[1:])


def test_verify_json(capsys):
    assert cli.main(["verify", "--check", "dimension-reduction", "--format", "json"]) == 0
    (obj,) = json.loads(capsys.readouterr().out)
    assert set(obj) == {"check_id", "pass", "samples", "seed", "params", "measured", "tolerance",
                        "window", "wall_time"}
    assert obj["check_id"] == "dimension-reduction"
    assert obj["pass"] is True  # an np.bool_ in the Report
    assert obj["samples"] == 20 and obj["seed"] == 42
    assert obj["measured"]["max_rel_mismatch"] <= 1e-10
    assert obj["tolerance"] == {"max_rel_mismatch": 1e-10}


@pytest.mark.slow
def test_verify_json_poisson_normalization_exits_zero(capsys):
    assert cli.main(["verify", "--check", "poisson-normalization", "--format", "json"]) == 0
    (obj,) = json.loads(capsys.readouterr().out)
    assert obj["check_id"] == "poisson-normalization"
    assert obj["pass"] is True


def test_verify_json_raising_check(capsys, monkeypatch):
    def raising(cid, seed=42):
        raise ToleranceNotMet("stalled", estimate=1.0, error=0.5)

    monkeypatch.setattr(verify, "run_check", raising)
    assert cli.main(["verify", "--check", "green-limit", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == [
        {"check_id": "green-limit", "raised": "ToleranceNotMet: stalled", "estimate": 1.0, "error": 0.5}
    ]
    assert "green-limit: raised ToleranceNotMet: stalled" in err


def test_failed_and_raising_checks_set_exit_status(capsys, monkeypatch):
    def raising(cid, seed=42):
        raise ToleranceNotMet("stalled", estimate=1.0, error=0.5)

    monkeypatch.setattr(verify, "run_check", raising)
    assert cli.main(["verify", "--check", "green-limit"]) == 1
    assert "green-limit: raised ToleranceNotMet: stalled" in capsys.readouterr().err

    report = verify.check_dimension_reduction()
    report.passed = False
    monkeypatch.setattr(verify, "run_check", lambda cid, seed=42: report)
    assert cli.main(["verify", "--check", "dimension-reduction"]) == 1


def test_rejects_unknown_check():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--check", "no-such-check"])


def test_package_import_leaves_cli_unloaded():
    probe = "import sys, fraclap; print('fraclap.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_import_leaves_scipy_integrate_unloaded():
    # only verify.check_dimension_reduction needs scipy.integrate, and it imports it itself
    probe = (
        "import sys, fraclap, fraclap.core, fraclap.kernels, fraclap.quadrature, fraclap.solver, "
        "fraclap.verify, fraclap.cli; print('scipy.integrate' in sys.modules, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_closed_pipe_exits_without_traceback():
    # the reader is gone before the first write, like `fraclap verify | head -n 0`
    cmd = [sys.executable, "-m", "fraclap.cli", "verify", "--check", "dimension-reduction",
           "--format", "csv"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
