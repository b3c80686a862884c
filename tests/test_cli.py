"""Tests for the command line front end."""

import numpy as np
import pytest

from symcrit.cli import main
from symcrit.surface import lagrangian_torus, write_surface, zbar_graph


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASIC_VERIFY = """
[ambient]
kind = euclidean

[surface]
generator = perturbed
params = c=0.5 eps=0.05

[task]
check = gradient,laplacian
levels = 16,32

[output]
dir = {out}
"""


def test_verify_passes_and_writes_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, BASIC_VERIFY.format(out=tmp_path / "reports"))
    code = main(["verify", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS gradient_identities" in out
    assert "PASS laplacian_identity" in out
    assert (tmp_path / "reports" / "gradient_identities.report.txt").exists()
    assert (tmp_path / "reports" / "laplacian_identity.report.txt").exists()


def test_verify_output_deterministic(tmp_path):
    for sub in ("a", "b"):
        cfg = write_config(tmp_path, BASIC_VERIFY.format(out=tmp_path / sub),
                           name=f"{sub}.ini")
        assert main(["verify", "--config", cfg]) == 0
    fa = (tmp_path / "a" / "laplacian_identity.report.txt").read_text()
    fb = (tmp_path / "b" / "laplacian_identity.report.txt").read_text()
    assert fa == fb


def test_verify_conditions_on_surface_file(tmp_path, capsys):
    spath = tmp_path / "surf.txt"
    write_surface(zbar_graph(0.5, n_theta=16, n_phi=16), spath)
    cfg = write_config(
        tmp_path,
        f"""
[ambient]
kind = euclidean

[surface]
file = {spath}

[task]
check = conditions

[output]
dir = {tmp_path / "rep"}
""",
    )
    code = main(["verify", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS condition_cyclic" in out
    assert "PASS condition_symmetric" in out


def test_verify_first_variation_with_overrides(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
[ambient]
kind = euclidean

[surface]
generator = perturbed
params = c=0.5 eps=0.05

[task]
check = first-variation
levels = 32
beta = 1.0
""",
    )
    code = main(["verify", "--config", cfg, "--beta", "2.0",
                 "--out", str(tmp_path / "fv")])
    assert code == 0
    text = (tmp_path / "fv" / "first_variation.report.txt").read_text()
    assert "beta 2" in text


def test_beta_minus_one_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
[ambient]
kind = euclidean

[surface]
generator = zbar
params = c=0.5

[task]
check = critical
beta = -1.0
""",
    )
    code = main(["verify", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err


def test_missing_config_file(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "nope.ini")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_generator_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
[ambient]
kind = euclidean

[surface]
generator = moebius
""",
    )
    assert main(["verify", "--config", cfg]) == 2


def test_bad_lambda_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
[ambient]
kind = conformal
lambda = import_os(p1)

[surface]
generator = zbar
params = c=0.5
""",
    )
    assert main(["verify", "--config", cfg]) == 2


BAD_NUMBER = """
[ambient]
kind = conformal
lambda = 0.1*sin(p1)
{ambient}

[surface]
generator = perturbed
params = c=0.5 eps=0.05

[task]
check = gradient
{task}
"""


@pytest.mark.parametrize(
    "ambient_line, task_line, key",
    [
        ("fd_step = 0", "", "fd_step"),
        ("fd_step = -1e-3", "", "fd_step"),
        ("fd_step = nan", "", "fd_step"),
        ("fd_step = abc", "", "fd_step"),
        ("", "beta = one", "beta"),
        ("", "tol = 1e-3x", "tol"),
        ("", "max_iterations = 2e3", "max_iterations"),
        ("", "max_iterations = -1", "max_iterations"),
        ("", "res_tol = -1e-3", "res_tol"),
        ("", "levels = 16,x", "levels"),
    ],
    ids=["fd_step-zero", "fd_step-negative", "fd_step-nan", "fd_step-text",
         "beta", "tol", "max_iterations", "max_iterations-negative",
         "res_tol-negative", "levels"],
)
def test_bad_number_is_config_error(tmp_path, capsys, ambient_line, task_line, key):
    cfg = write_config(tmp_path, BAD_NUMBER.format(ambient=ambient_line, task=task_line))
    code = main(["verify", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and key in err


def test_non_finite_beta_flag_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BAD_NUMBER.format(ambient="", task=""))
    code = main(["verify", "--config", cfg, "--beta", "nan"])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "beta" in err


@pytest.mark.parametrize(
    "task_line, flags",
    [("levels = 32,16", []), ("", ["--levels", "32,32"])],
    ids=["config", "flag"],
)
def test_levels_not_increasing_is_config_error(tmp_path, capsys, task_line, flags):
    cfg = write_config(tmp_path, BAD_NUMBER.format(ambient="", task=task_line))
    code = main(["verify", "--config", cfg] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "strictly increase" in err


def test_flow_on_lagrangian_input_fails_with_diagnostic(tmp_path, capsys):
    spath = tmp_path / "lag.txt"
    write_surface(lagrangian_torus(1.0, 1.0, n_theta=16, n_phi=16), spath)
    cfg = write_config(
        tmp_path,
        f"""
[ambient]
kind = euclidean

[surface]
file = {spath}

[task]
beta = 1.0

[output]
dir = {tmp_path / "flowout"}
""",
    )
    code = main(["flow", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 1
    assert "not symplectic" in err
    assert "cos(alpha)" in err


def test_flow_runs_and_writes_trace(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"""
[ambient]
kind = euclidean

[surface]
generator = perturbed_holomorphic
params = a=0.3 eps=0.03

[task]
beta = 1.0
max_iterations = 400
res_tol = 5e-3
levels = 20

[output]
dir = {tmp_path / "flowout"}
""",
    )
    code = main(["flow", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged" in out
    trace = (tmp_path / "flowout" / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,L_beta,res_l2,res_linf,min_cos_alpha,tau"
    assert len(trace) > 2
    final = tmp_path / "flowout" / "final_surface.txt"
    assert final.exists()
    ls = [float(r.split(",")[1]) for r in trace[1:]]
    assert all(b <= a for a, b in zip(ls, ls[1:]))


def test_flow_budget_exhaustion_returns_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"""
[ambient]
kind = euclidean

[surface]
generator = perturbed_holomorphic
params = a=0.3 eps=0.05

[task]
beta = 1.0
max_iterations = 2
res_tol = 1e-9
levels = 16

[output]
dir = {tmp_path / "flowout"}
""",
    )
    code = main(["flow", "--config", cfg])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_angle_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"""
[ambient]
kind = euclidean

[surface]
generator = zbar
params = c=0.5

[task]
beta = 1.0
levels = 16

[output]
dir = {tmp_path / "angles"}
""",
    )
    code = main(["angle-report", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "cos_alpha_min 0.6" in out
    csv = (tmp_path / "angles" / "angle.csv").read_text().splitlines()
    assert csv[0] == "node_i,node_j,cos_alpha"
    assert len(csv) == 16 * 16 + 1
    vals = np.array([float(r.split(",")[2]) for r in csv[1:]])
    assert np.max(np.abs(vals - 0.6)) < 1e-12


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "symcrit" in out
    assert "zbar" in out


def test_hypotheses_violation_annotates_instead_of_failing(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"""
[ambient]
kind = euclidean

[surface]
generator = perturbed
params = c=0.5 eps=0.05

[task]
check = critical
beta = 1.0
tol = 1e-30

[output]
dir = {tmp_path / "rep"}
""",
    )
    code = main(["verify", "--config", cfg])
    out = capsys.readouterr().out
    # the perturbed graph is not critical, so the conditional identity is
    # annotated rather than failed, even with an unreachable tolerance
    assert code == 0
    assert "hypotheses-violated" in out


def test_failed_check_returns_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"""
[ambient]
kind = euclidean

[surface]
generator = perturbed
params = c=0.5 eps=0.05

[task]
check = first-variation
beta = 1.0
levels = 24

[output]
dir = {tmp_path / "rep"}
""",
    )
    code = main(["verify", "--config", cfg, "--tol", "1e-12"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL first_variation" in out
