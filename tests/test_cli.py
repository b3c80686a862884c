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


@pytest.mark.parametrize("command", ["verify", "flow"])
def test_lambda_not_periodic_along_the_winding_is_config_error(tmp_path, capsys,
                                                               command):
    cfg = write_config(
        tmp_path,
        f"""
[ambient]
kind = conformal
lambda = 0.1*sin(p3) + 0.05*cos(p2)

[surface]
generator = perturbed
params = c=0.5 eps=0.05

[task]
levels = 16

[output]
dir = {tmp_path / "out"}
""",
    )
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: metric of conformal(0.1*sin(p3) + 0.05*cos(p2))")
    assert "not periodic along the surface's theta winding" in err


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


@pytest.mark.parametrize(
    "expression",
    ["1/0", "zoo", "I*p1", "Max(p1, p2)", "__import__('pathlib').Path('{marker}').touch()",
     "1e400*p1"],
    ids=["division-by-zero", "complex-infinity", "imaginary", "max", "python-call",
         "float-overflow"],
)
def test_lambda_outside_the_language_is_config_error(tmp_path, capsys, expression):
    marker = tmp_path / "executed"
    cfg = write_config(tmp_path, f"""
[ambient]
kind = conformal
lambda = {expression.format(marker=marker)}

[surface]
generator = zbar
params = c=0.5
""")
    assert main(["angle-report", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [ambient] ")
    assert "scalar field" in err
    assert not marker.exists()


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


@pytest.mark.parametrize("line", ["fd_step = 1e-3", "lamda = 0.1*sin(p1)"])
def test_unknown_ambient_key_is_config_error(tmp_path, capsys, line):
    cfg = write_config(tmp_path, BAD_NUMBER.format(ambient=line, task=""))
    code = main(["verify", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and line.split()[0] in err


VALID_RUN = """
[ambient]
kind = euclidean

[surface]
generator = zbar
params = c=0.5

[task]
check = conditions
levels = 16

[output]
dir = {out}
"""


@pytest.mark.parametrize(
    "section, line, name",
    [
        ("surface", "generater = zbar", "generater"),
        ("task", "max_iteration = 3", "max_iteration"),
        ("output", "directory = out", "directory"),
        ("surface", "file = {tmp}/surf.txt", "exactly one of file and generator"),
    ],
    ids=["surface", "task", "output", "file-and-generator"],
)
def test_unknown_key_or_second_surface_is_config_error(tmp_path, capsys, section,
                                                       line, name):
    """[ambient] keys are checked by test_unknown_ambient_key_is_config_error."""
    write_surface(zbar_graph(0.5, n_theta=16, n_phi=16), tmp_path / "surf.txt")
    body = VALID_RUN.format(out=tmp_path / "rep").replace(
        f"[{section}]\n", f"[{section}]\n{line.format(tmp=tmp_path)}\n")
    code = main(["verify", "--config", write_config(tmp_path, body)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and name in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "line, replacement, name",
    [
        ("kind = euclidean", "kind = euclidean\nlambda = not an expression((",
         "lambda"),
        ("generator = zbar", "file = {tmp}/surf.txt", "params"),
    ],
    ids=["lambda-with-euclidean", "params-with-file"],
)
def test_key_the_chosen_branch_drops_is_config_error(tmp_path, capsys, line,
                                                     replacement, name):
    write_surface(zbar_graph(0.5, n_theta=16, n_phi=16), tmp_path / "surf.txt")
    body = VALID_RUN.format(out=tmp_path / "rep").replace(
        line, replacement.format(tmp=tmp_path))
    code = main(["verify", "--config", write_config(tmp_path, body)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and name in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("check", ["", " , "], ids=["empty", "commas"])
def test_empty_check_list_is_config_error_for_verify_only(tmp_path, capsys, check):
    body = VALID_RUN.format(out=tmp_path / "rep").replace(
        "check = conditions", f"check ={check}")
    cfg = write_config(tmp_path, body)
    code = main(["verify", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and "check" in err
    assert not (tmp_path / "rep").exists()
    assert main(["angle-report", "--config", cfg]) == 0


@pytest.mark.parametrize("header", ["[Task]", "[DEFAULT]", ""])
def test_unknown_or_missing_section_is_config_error(tmp_path, capsys, header):
    body = VALID_RUN.format(out=tmp_path / "rep").replace("[task]", header)
    if not header:  # keys before the first section header
        body = body.lstrip().replace("[ambient]\n", "", 1)
    code = main(["verify", "--config", write_config(tmp_path, body)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and (header or "section") in err


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


@pytest.mark.parametrize(
    "task_line, flags",
    [("", ["--tol", "-1"]), ("", ["--tol", "0"]), ("tol = 0", []),
     ("tol = -1e-3", [])],
    ids=["flag-negative", "flag-zero", "config-zero", "config-negative"],
)
def test_tol_not_positive_is_config_error(tmp_path, capsys, task_line, flags):
    """verify passes tol as the first variation's rel_tol, which must be > 0."""
    cfg = write_config(tmp_path, BAD_NUMBER.format(ambient="", task=task_line))
    code = main(["verify", "--config", cfg] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error: ") and "[task] tol" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


BAD_SURFACE = """
[ambient]
kind = euclidean

[surface]
{surface}

[task]
check = critical
levels = 16

[output]
dir = {out}
"""


@pytest.mark.parametrize(
    "surface_lines, key",
    [
        ("file = {tmp}/missing.txt", "missing.txt"),
        ("file = {tmp}/malformed.txt", "node rows"),
        ("file = {tmp}/inf_period.txt", "periods must be finite"),
        ("generator = zbar\nparams = foo=1", "foo"),
        ("generator = zbar\nparams = c=abc", "c=abc"),
        ("generator = zbar\nparams = c=1j", "c=1j"),
        ("generator = perturbed\nparams = c=0.5 eps=0.05 modes=1,x", "modes"),
    ],
    ids=["file-missing", "file-malformed", "file-infinite-period", "param-unknown",
         "param-text", "param-complex", "modes-text"],
)
def test_bad_surface_input_is_config_error(tmp_path, capsys, surface_lines, key):
    (tmp_path / "malformed.txt").write_text(
        "surf 16 16 6.28 6.28\nlinear 1 0 0 1 0 0 0 0\n0 0 0 0\n"
    )
    (tmp_path / "inf_period.txt").write_text(
        "surf 8 8 inf 6.28\nlinear 1 0 0 1 0 0 0 0\n" + "0 0 0 0\n" * 64
    )
    body = BAD_SURFACE.format(surface=surface_lines.format(tmp=tmp_path),
                              out=tmp_path / "rep")
    code = main(["verify", "--config", write_config(tmp_path, body)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and key in err


@pytest.mark.parametrize(
    "line, replacement, message",
    [("params = c=0.5", "params = c0.5",
      "generator parameter 'c0.5' is not key=value"),
     ("generator = zbar\nparams = c=0.5",
      "generator = perturbed\nparams = c=0.5 eps=0.05 modes=1,2,3",
      "[surface] params modes=1,2,3: needs two integers"),
     ("kind = euclidean", "kind = conformal",
      "conformal ambient needs a lambda expression"),
     ("kind = euclidean", "kind = hyperbolic", "unknown ambient kind 'hyperbolic'"),
     ("check = conditions", "check = conditions,curvature",
      "unknown check 'curvature' (have: first-variation, gradient, laplacian, "
      "critical, conditions)")],
    ids=["params-not-key-value", "modes-three", "conformal-no-lambda",
         "ambient-kind", "check"],
)
def test_config_error_names_the_fault(tmp_path, capsys, line, replacement, message):
    body = VALID_RUN.format(out=tmp_path / "rep").replace(line, replacement)
    code = main(["verify", "--config", write_config(tmp_path, body)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "rep").exists()


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


ANGLE_REPORT = """
[ambient]
kind = euclidean

[surface]
generator = {generator}
params = {params}

[task]
levels = 16

[output]
dir = {out}
"""


def test_angle_report_on_lagrangian_surface_leaves_l_beta_undefined(tmp_path, capsys):
    """The angle table is written; the functional, which needs cos(alpha) > 0,
    is reported undefined, and the command still succeeds."""
    body = ANGLE_REPORT.format(generator="lagrangian", params="r1=1 r2=1",
                               out=tmp_path / "angles")
    code = main(["angle-report", "--config", write_config(tmp_path, body)])
    out = capsys.readouterr().out
    assert code == 0
    assert "l_beta(1) undefined: cos(alpha) <= 0.0001 at 256 of 256 nodes\n" in out
    assert (tmp_path / "angles" / "angle.csv").exists()


def test_angle_report_on_pinched_torus_is_not_immersed(tmp_path, capsys):
    """R = r pinches the torus of revolution to a point circle at phi = pi."""
    body = ANGLE_REPORT.format(generator="revolution", params="big=0.5 small=0.5",
                               out=tmp_path / "angles")
    code = main(["angle-report", "--config", write_config(tmp_path, body)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "NotImmersed: induced metric singular at 16 nodes\n"


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
