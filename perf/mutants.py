"""Mutation audit: which single-line mutants of the formulas Tier-1 kills.

    python perf/mutants.py

Each row of ``MUTANTS`` names a file under ``src/``, a text that must
occur in it exactly once, the text that replaces it, what the mutant
breaks, and the test that killed it when the audit last ran (None for a
new row, whose killer the next run finds).  Every row must be killed.

For each row the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` of the checkout holding this file to a temporary
directory and applies the mutant there.  It runs the row's recorded
killer first, alone, and the whole Tier-1 suite with ``-x -q`` only when
that test passes (or the row has none), so every verdict is the one
the whole suite gives.  It prints one line per row: ``killed`` with the
failing test, or ``survived``.  The unmutated copy runs first, since a
suite that already fails would kill every mutant.

It exits 1 when the unmutated suite fails, when an old text does not
occur exactly once, when a recorded killer does not run (a node id
that no longer names a test), or when a row survives.  A whole-suite
run takes 10-15 s on a 2-core machine, a killer alone 1-3 s; it is not
part of Tier-1.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, old text, new text, what it breaks, killer): three sign and
# coefficient mutants of ``critical_identity_terms``, which the exact
# critical tori of the Kaehler product kill at beta 0 and at beta > 0,
# two that loosen the symmetric condition's consequence bound until it
# passes a nabla J table that the gate should reject, and
# three of L_beta along a line, which the first variation's central
# quotient alone may not see (a t^2 term cancels in it), one of the
# scalar-field parser's check that constants are finite in float64, and
# three of the geometry's node fields: the order of the off-diagonal terms
# of g^ij W_ij (it shows only where W_01 and W_10 differ, which the
# geometry never makes them but a test does), the sign of the inverse metric's off-diagonal entry, and the
# second-derivative stencil taking f[i+2] - f[i-2] in place of
# f[i+2] + f[i-2]; the immersion gate made absolute again (it refuses a
# small surface whose tangents are far from parallel) or read as the
# squared sine of the angle between the tangents alone (it passes a
# tangent shrunk to roundoff beside the other), each of the shape
# checks of the metric and J fields dropped, and w_10 read as w_01 in the
# off-diagonal entry of the second fundamental form's closed form; four
# more of that closed form (a term dropped, a sign flipped, a coefficient
# misread, the + 0.0 that fixes the sign of zero dropped), the Christoffel
# term dropped from W_ij and from the covariant frame derivative, the flat
# zero nabla J table made to build the frame it does not need, and each
# check of an analytic metric derivative dropped; a sin and a cos swapped
# in the separable bump of the perturbed graphs, a mirrored entry of the
# parsed Hessian read from the wrong index, and the order of the flat
# omega sum (its last two products swapped, its final + 0.0 dropped)
MUTANTS = [
    ("src/symcrit/verify.py",
     "+ sa * ca**2 / D * (k1213 - k1224)",
     "- sa * ca**2 / D * (k1213 - k1224)",
     "sign of the curvature term",
     "tests/test_acceptance.py::test_criterion_10_critical_identity_on_a_kahler_critical_torus"),
    ("src/symcrit/verify.py",
     "- 2.0 * ca * grad_alpha2",
     "- 1.0 * ca * grad_alpha2",
     "-2 cos(alpha) |grad alpha|^2 made -1",
     "tests/test_acceptance.py::test_criterion_10_critical_identity_on_a_kahler_critical_torus"),
    ("src/symcrit/verify.py",
     "2.0 * beta * sa**2 / (ca * D) * grad_alpha2",
     "1.0 * beta * sa**2 / (ca * D) * grad_alpha2",
     "2 beta sin^2(alpha) / (cos(alpha) D) |grad alpha|^2 made 1",
     "tests/test_acceptance.py::test_criterion_12_critical_identity_at_positive_beta[1.0]"),
    ("src/symcrit/verify.py",
     "CONSEQUENCE_C = math.sqrt(6.0) / 0.5",
     "CONSEQUENCE_C = 1e6 * math.sqrt(6.0) / 0.5",
     "constant of the symmetric consequence bound scaled up by 1e6",
     "tests/test_verify.py::test_symmetric_consequence_bound_is_live[at-the-gate]"),
    ("src/symcrit/verify.py",
     "CONSEQUENCE_FLOOR = 1e-12",
     "CONSEQUENCE_FLOOR = 1.0",
     "floor of the symmetric consequence bound above every nabla J entry",
     "tests/test_verify.py::test_symmetric_consequence_bound_is_live[zero]"),
    ("src/symcrit/functional.py",
     "(_dot(fth, fth), 2.0 * _dot(fth, a), _dot(a, a)),",
     "(_dot(fth, fth), 2.0 * _dot(fth, a), 0.0 * _dot(a, a)),",
     "t^2 coefficient of |F_theta|^2 along a line dropped",
     "tests/test_functional.py::test_l_beta_along_a_line_is_l_beta_of_the_displaced_surface[perturbed_graph-flat]"),
    ("src/symcrit/functional.py",
     "_dot(jth, b) + _dot(ja, fph)",
     "_dot(jth, b) - _dot(ja, fph)",
     "sign of the cross term of omega along a line",
     "tests/test_acceptance.py::test_criterion_2_first_variation"),
    ("src/symcrit/functional.py",
     "sample(lambda: G.pos + t * xi)",
     "sample(lambda: G.pos)",
     "exp(2 lam) along a line read at the undisplaced nodes",
     "tests/test_functional.py::test_l_beta_along_a_line_is_l_beta_of_the_displaced_surface[perturbed_graph-conformal]"),
    ("src/symcrit/ambient.py",
     "not (sub.is_real and math.isfinite(float(sub)))",
     "not sub.is_real",
     "constants that overflow float64 accepted by the parser",
     "tests/test_ambient.py::test_parse_scalar_field_rejects_input_outside_the_language[1e400*p1]"),
    ("src/symcrit/surface.py",
     "out += i01 * W01\n        out += i01 * W10",
     "out += i01 * W10\n        out += i01 * W01",
     "W_01 and W_10 terms of g^ij W_ij swapped",
     "tests/test_surface.py::test_closed_forms_read_w01_and_w10_apart_bit_for_bit"),
    ("src/symcrit/surface.py",
     "return g11 / det, -g01 / det, g00 / det",
     "return g11 / det, g01 / det, g00 / det",
     "sign of the inverse metric's off-diagonal entry",
     "tests/test_acceptance.py::test_criterion_2_first_variation"),
    ("src/symcrit/surface.py",
     "out -= np.add(fp2, fm2, out=tmp)",
     "out -= np.subtract(fp2, fm2, out=tmp)",
     "second derivative reading f[i+2] - f[i-2] for f[i+2] + f[i-2]",
     "tests/test_acceptance.py::test_criterion_2_first_variation"),
    ("src/symcrit/surface.py",
     "singular = det <= 0.25e-14 * (g00 + g11) ** 2",
     "singular = det <= 1e-14",
     "immersion gate on det g itself, not on a scale-free ratio",
     "tests/test_functional.py::test_scaling_a_surface_by_a_power_of_two_scales_l_beta_and_e_exactly[perturbed_graph-0.0-2^-17]"),
    ("src/symcrit/surface.py",
     "singular = det <= 0.25e-14 * (g00 + g11) ** 2",
     "singular = det <= 1e-14 * g00 * g11",
     "immersion gate blind to a tangent shrunk to roundoff",
     "tests/test_surface.py::test_tangent_short_beside_the_other_raises_not_immersed_at_every_scale[flat-1]"),
    ("src/symcrit/ambient.py",
     '        _check_shape(g, points, "metric", AmbientDegenerate)\n',
     "",
     "shape of the metric field unchecked",
     "tests/test_ambient.py::test_field_of_the_wrong_shape_is_a_typed_error[metric-l_beta]"),
    ("src/symcrit/ambient.py",
     '        _check_shape(J, points, "J", StructureViolation)\n',
     "",
     "shape of the J field unchecked",
     "tests/test_ambient.py::test_field_of_the_wrong_shape_is_a_typed_error[J-l_beta]"),
    ("src/symcrit/surface.py",
     "+ ((c01 * c00) * w00 + (c11 * c00) * w10))",
     "+ ((c01 * c00) * w00 + (c11 * c00) * w01))",
     "w_10 read as w_01 in the off-diagonal second fundamental form",
     "tests/test_surface.py::test_second_fundamental_signs_of_zero_at_the_ends_of_the_range"),
    ("src/symcrit/surface.py",
     "+ ((c01 * c00) * w00 + (c11 * c00) * w10))",
     "+ ((c01 * c00) * w00))",
     "w_10 term of h_01 dropped",
     "tests/test_acceptance.py::test_criterion_3_laplacian_identity"),
    ("src/symcrit/surface.py",
     "(c01 * c01) * w00 + (c11 * c01) * w10)",
     "(c01 * c01) * w00 - (c11 * c01) * w10)",
     "sign of (c11 c01) w_10 in h_11 flipped",
     "tests/test_acceptance.py::test_criterion_3_laplacian_identity"),
    ("src/symcrit/surface.py",
     "(c11 * c11) * w11",
     "(c11 * c01) * w11",
     "(c11 c11) w_11 read as (c11 c01) w_11 in h_11",
     "tests/test_acceptance.py::test_criterion_3_laplacian_identity"),
    ("src/symcrit/surface.py",
     "h[..., 0, 0] = (c00 * c00) * w00 + 0.0",
     "h[..., 0, 0] = (c00 * c00) * w00",
     "+ 0.0 of h_00 dropped (a -0.0 product kept)",
     "tests/test_surface.py::test_second_fundamental_signs_of_zero_at_the_ends_of_the_range"),
    ("src/symcrit/surface.py",
     "(d + gamma(X, Y) for d, X, Y in",
     "(d for d, X, Y in",
     "Christoffel term dropped from W_ij",
     "tests/test_acceptance.py::test_criterion_3_laplacian_identity"),
    ("src/symcrit/surface.py",
     "                d += gamma(e, vfield)",
     "                d += 0.0 * gamma(e, vfield)",
     "Christoffel term dropped from the covariant frame derivative",
     "tests/test_acceptance.py::test_criterion_3_laplacian_identity"),
    ("src/symcrit/surface.py",
     "            S = self.surface\n            return np.broadcast_to(0.0,",
     "            S = self.surface\n            self.adapted_frame\n"
     "            return np.broadcast_to(0.0,",
     "flat zero nabla J table builds the frame",
     "tests/test_surface.py::test_flat_short_cuts_build_no_frame"),
    ("src/symcrit/ambient.py",
     '            _check_shape(dg, points, "metric derivative", AmbientDegenerate, (4, 4, 4))\n',
     "",
     "shape of an analytic metric derivative unchecked",
     "tests/test_ambient.py::test_analytic_metric_derivative_is_checked_like_the_metric[wrong-shape-el_operator]"),
    ("src/symcrit/ambient.py",
     "            if not np.isfinite(dg).all():\n",
     "            if False:\n",
     "finiteness of an analytic metric derivative unchecked",
     "tests/test_ambient.py::test_analytic_metric_derivative_is_checked_like_the_metric[not-finite-el_operator]"),
    ("src/symcrit/surface.py",
     "s1, c1 = np.sin(k1 * th), np.cos(k1 * th)",
     "s1, c1 = np.cos(k1 * th), np.sin(k1 * th)",
     "sin and cos of the theta factor swapped in the separable bump",
     "tests/test_flow.py::test_cap_below_tau_min_raises_before_any_candidate"),
    ("src/symcrit/ambient.py",
     "mirror = [pairs.index((min(i, j), max(i, j)))",
     "mirror = [pairs.index((min(i, j), min(i, j)))",
     "mirrored Hessian entry read from the wrong index",
     "tests/test_acceptance.py::test_criterion_3_laplacian_identity"),
    ("src/symcrit/ambient.py",
     "    out += p[..., 2]\n    out += p[..., 3]\n",
     "    out += p[..., 3]\n    out += p[..., 2]\n",
     "last two products of the flat omega sum swapped",
     "tests/test_surface.py::test_euclidean_dot_matches_np_sum_bit_for_bit"),
    ("src/symcrit/ambient.py",
     "    out += p[..., 3]\n    out += 0.0\n",
     "    out += p[..., 3]\n",
     "+ 0.0 of the flat omega sum dropped (a -0.0 kept)",
     "tests/test_surface.py::test_lagrangian_torus_angle_is_positive_zero_at_every_node[flat]"),
]

TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def run_tests(root: Path, *ids: str):
    """Run the tests ``ids`` under ``root``, the whole suite when none are
    given: (exit code, None when they pass, else the first failing test
    or the tail of the output when none is named)."""
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(TIER1 + list(ids), cwd=root, env=env, capture_output=True,
                         text=True)
    if run.returncode == 0:
        return 0, None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return run.returncode, (failed.group(1) if failed
                            else (run.stdout + run.stderr).strip()[-300:])


def copy_checkout(root: Path, into: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(root / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "pyproject.toml", into)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_checkout(ROOT, clean)
        _, failed = run_tests(clean)
        if failed is not None:
            print(f"unmutated suite fails: {failed}", flush=True)
            return 1
    bad, killed = 0, 0
    for path, old, new, breaks, killer in MUTANTS:
        text = (ROOT / path).read_text()
        if text.count(old) != 1:
            print(f"no match   {breaks}: {old!r} occurs "
                  f"{text.count(old)} times in {path}", flush=True)
            bad += 1
            continue
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "mutant"
            copy_checkout(ROOT, copy)
            (copy / path).write_text(text.replace(old, new))
            failed = None
            if killer is not None:
                code, failed = run_tests(copy, killer)
                if code not in (0, 1, 2):  # 1 failed, 2 interrupted by errors
                    print(f"stale      {breaks}: killer {killer} did not run "
                          f"(exit {code})", flush=True)
                    bad += 1
                    failed = None
            if failed is None:
                _, failed = run_tests(copy)
        if failed is None:
            bad += 1
            print(f"survived   {breaks}", flush=True)
        else:
            killed += 1
            print(f"killed     {breaks} by {failed}", flush=True)
    print(f"{killed} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
