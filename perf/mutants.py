"""Mutation audit: which single-line mutants of the formulas Tier-1 kills.

    python perf/mutants.py

Each row of ``MUTANTS`` names a file under ``src/``, a text that must
occur in it exactly once, the text that replaces it, what the mutant
breaks and a status: ``must kill``, or ``gap: <why no test can see it
yet>``.  For each row the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` of the checkout holding this file to a temporary
directory, applies the mutant and runs the Tier-1 suite there with
``-x -q``.  It prints one line per row: ``killed`` with the first
failing test, or ``survived``.  The unmutated copy runs first, since a
suite that already fails would kill every mutant.

It exits 1 when the unmutated suite fails, when an old text does not
occur exactly once, or when a ``must kill`` row survives; surviving gaps
alone exit 0.  It runs one suite at a time, each 10-15 s on a 2-core
machine; it is not part of Tier-1.
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

MUST_KILL = "must kill"
NABLA_J_GAP = "gap: nabla J = 0 on every ambient where the identity is gated"
BETA_GAP = "gap: needs critical tori at beta > 0 (exact tori by symmetry reduction)"

# (file, old text, new text, what it breaks, status): the eight sign and
# coefficient mutants of ``critical_identity_terms`` that survived Tier-1
# when the identity was gated only on surfaces where its terms vanish, and
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
     "sign of the curvature term", MUST_KILL),
    ("src/symcrit/verify.py",
     "- 2.0 * ca * grad_alpha2",
     "- 1.0 * ca * grad_alpha2",
     "-2 cos(alpha) |grad alpha|^2 made -1", MUST_KILL),
    ("src/symcrit/verify.py",
     "2.0 * beta * sa**2 / (ca * D) * grad_alpha2",
     "1.0 * beta * sa**2 / (ca * D) * grad_alpha2",
     "2 beta sin^2(alpha) / (cos(alpha) D) |grad alpha|^2 made 1", BETA_GAP),
    ("src/symcrit/verify.py",
     "3.0 * grad[..., 1] * j132",
     "1.0 * grad[..., 1] * j132",
     "3 J_{13,2} made 1 J_{13,2}", NABLA_J_GAP),
    ("src/symcrit/verify.py",
     "(grad[..., 0] * j142 + 3.0",
     "(-grad[..., 0] * j142 + 3.0",
     "sign of the beta J_{14,2} term", NABLA_J_GAP),
    ("src/symcrit/verify.py",
     "2.0 * ca / sa2 * (1.0 + ca**2 / D) * pairing",
     "1.0 * ca / sa2 * (1.0 + ca**2 / D) * pairing",
     "factor 2 of the theta pairing made 1", NABLA_J_GAP),
    ("src/symcrit/verify.py",
     "+ ca**2 / D * G.j12_kk",
     "- ca**2 / D * G.j12_kk",
     "sign of the j12_kk term", NABLA_J_GAP),
    ("src/symcrit/verify.py",
     "2.0 * ca**3 / (sa2 * D) * (j121**2 + j122**2)",
     "1.0 * ca**3 / (sa2 * D) * (j121**2 + j122**2)",
     "factor 2 of (j121^2 + j122^2) made 1", NABLA_J_GAP),
    ("src/symcrit/functional.py",
     "(_dot(fth, fth), 2.0 * _dot(fth, a), _dot(a, a)),",
     "(_dot(fth, fth), 2.0 * _dot(fth, a), 0.0 * _dot(a, a)),",
     "t^2 coefficient of |F_theta|^2 along a line dropped", MUST_KILL),
    ("src/symcrit/functional.py",
     "_dot(jth, b) + _dot(ja, fph)",
     "_dot(jth, b) - _dot(ja, fph)",
     "sign of the cross term of omega along a line", MUST_KILL),
    ("src/symcrit/functional.py",
     "sample(lambda: G.pos + t * xi)",
     "sample(lambda: G.pos)",
     "exp(2 lam) along a line read at the undisplaced nodes", MUST_KILL),
    ("src/symcrit/ambient.py",
     "not (sub.is_real and math.isfinite(float(sub)))",
     "not sub.is_real",
     "constants that overflow float64 accepted by the parser", MUST_KILL),
    ("src/symcrit/surface.py",
     "out += i01 * W01\n        out += i01 * W10",
     "out += i01 * W10\n        out += i01 * W01",
     "W_01 and W_10 terms of g^ij W_ij swapped", MUST_KILL),
    ("src/symcrit/surface.py",
     "return g11 / det, -g01 / det, g00 / det",
     "return g11 / det, g01 / det, g00 / det",
     "sign of the inverse metric's off-diagonal entry", MUST_KILL),
    ("src/symcrit/surface.py",
     "- (fp2 + fm2)) / (12.0 * spacing**2)",
     "- (fp2 - fm2)) / (12.0 * spacing**2)",
     "second derivative reading f[i+2] - f[i-2] for f[i+2] + f[i-2]", MUST_KILL),
    ("src/symcrit/surface.py",
     "singular = det <= 0.25e-14 * (g00 + g11) ** 2",
     "singular = det <= 1e-14",
     "immersion gate on det g itself, not on a scale-free ratio", MUST_KILL),
    ("src/symcrit/surface.py",
     "singular = det <= 0.25e-14 * (g00 + g11) ** 2",
     "singular = det <= 1e-14 * g00 * g11",
     "immersion gate blind to a tangent shrunk to roundoff", MUST_KILL),
    ("src/symcrit/ambient.py",
     '        _check_shape(g, points, "metric", AmbientDegenerate)\n',
     "",
     "shape of the metric field unchecked", MUST_KILL),
    ("src/symcrit/ambient.py",
     '        _check_shape(J, points, "J", StructureViolation)\n',
     "",
     "shape of the J field unchecked", MUST_KILL),
    ("src/symcrit/surface.py",
     "+ ((c01 * c00) * w00 + (c11 * c00) * w10))",
     "+ ((c01 * c00) * w00 + (c11 * c00) * w01))",
     "w_10 read as w_01 in the off-diagonal second fundamental form", MUST_KILL),
    ("src/symcrit/surface.py",
     "+ ((c01 * c00) * w00 + (c11 * c00) * w10))",
     "+ ((c01 * c00) * w00))",
     "w_10 term of h_01 dropped", MUST_KILL),
    ("src/symcrit/surface.py",
     "(c01 * c01) * w00 + (c11 * c01) * w10)",
     "(c01 * c01) * w00 - (c11 * c01) * w10)",
     "sign of (c11 c01) w_10 in h_11 flipped", MUST_KILL),
    ("src/symcrit/surface.py",
     "(c11 * c11) * w11",
     "(c11 * c01) * w11",
     "(c11 c11) w_11 read as (c11 c01) w_11 in h_11", MUST_KILL),
    ("src/symcrit/surface.py",
     "h[..., 0, 0] = (c00 * c00) * w00 + 0.0",
     "h[..., 0, 0] = (c00 * c00) * w00",
     "+ 0.0 of h_00 dropped (a -0.0 product kept)", MUST_KILL),
    ("src/symcrit/surface.py",
     "(d + gamma(X, Y) for d, X, Y in",
     "(d for d, X, Y in",
     "Christoffel term dropped from W_ij", MUST_KILL),
    ("src/symcrit/surface.py",
     "                d[..., a, :] += gamma(frame[..., a, :], vfield)",
     "                d[..., a, :] += 0.0 * gamma(frame[..., a, :], vfield)",
     "Christoffel term dropped from the covariant frame derivative", MUST_KILL),
    ("src/symcrit/surface.py",
     "            S = self.surface\n            return np.broadcast_to(0.0,",
     "            S = self.surface\n            self.adapted_frame\n"
     "            return np.broadcast_to(0.0,",
     "flat zero nabla J table builds the frame", MUST_KILL),
    ("src/symcrit/ambient.py",
     '            _check_shape(dg, points, "metric derivative", AmbientDegenerate, (4, 4, 4))\n',
     "",
     "shape of an analytic metric derivative unchecked", MUST_KILL),
    ("src/symcrit/ambient.py",
     "            if not np.isfinite(dg).all():\n",
     "            if False:\n",
     "finiteness of an analytic metric derivative unchecked", MUST_KILL),
    ("src/symcrit/surface.py",
     "s1, c1 = np.sin(k1 * th), np.cos(k1 * th)",
     "s1, c1 = np.cos(k1 * th), np.sin(k1 * th)",
     "sin and cos of the theta factor swapped in the separable bump", MUST_KILL),
    ("src/symcrit/ambient.py",
     "mirror = [pairs.index((min(i, j), max(i, j)))",
     "mirror = [pairs.index((min(i, j), min(i, j)))",
     "mirrored Hessian entry read from the wrong index", MUST_KILL),
    ("src/symcrit/ambient.py",
     "    out += p[..., 2]\n    out += p[..., 3]\n",
     "    out += p[..., 3]\n    out += p[..., 2]\n",
     "last two products of the flat omega sum swapped", MUST_KILL),
    ("src/symcrit/ambient.py",
     "    out += p[..., 3]\n    out += 0.0\n",
     "    out += p[..., 3]\n",
     "+ 0.0 of the flat omega sum dropped (a -0.0 kept)", MUST_KILL),
]

TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def first_failure(root: Path):
    """Run the suite under ``root``; None when it passes, else the first
    failing test (or the tail of the output when none is named)."""
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return failed.group(1) if failed else (run.stdout + run.stderr).strip()[-300:]


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
        failed = first_failure(clean)
        if failed is not None:
            print(f"unmutated suite fails: {failed}", flush=True)
            return 1
    bad, killed = 0, 0
    for path, old, new, breaks, status in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "mutant"
            copy_checkout(ROOT, copy)
            target = copy / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"no match   {breaks}: {old!r} occurs "
                      f"{text.count(old)} times in {path}", flush=True)
                bad += 1
                continue
            target.write_text(text.replace(old, new))
            failed = first_failure(copy)
        if failed is None:
            bad += status == MUST_KILL
            print(f"survived   {breaks} [{status}]", flush=True)
        else:
            killed += 1
            print(f"killed     {breaks} [{status}] by {failed}", flush=True)
    print(f"{killed} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
