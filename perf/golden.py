"""Golden outputs of a checkout, and the drift between two of them.

    python perf/golden.py dump DIR
    python perf/golden.py diff A B

``dump`` imports symcrit from the ``src/`` directory next to this file
and writes a fixed matrix of outputs under ``DIR``:

- ``reports/<ambient>/<surface>/<check>[-beta<b>].txt``: the report
  text of every check (first variation, gradient and Laplacian studies,
  critical identity, both covariant-J conditions) on the surfaces of
  the ``symcrit`` generators, in the flat, the conformal and the
  generic-J ambient (``AMBIENTS``), at beta 0, 1 and 2 for the checks
  that take beta.  A check that raises
  writes ``error <type>: <message>`` instead.
- ``bench/<workload>-seed<s>.txt``: the digest of every operation of
  each ``bench/workloads.py`` workload for seeds 0 and 1, one line per
  input; ``bench/`` is imported, never written.
- ``flow/``: the criterion-8 descent (beta 1, 64x64 perturbed
  holomorphic graph, res_tol 1e-3): ``trace.csv``, ``final_surface.txt``
  and ``summary.txt`` (iterations, stop reason).
- ``fields/<ambient>.npz``: the cached ``SurfaceGeometry`` fields the
  identity checks read (``FIELDS``) on ``perturbed_graph(0.5, 0.05)`` at
  32x32 in each ambient, one array per field; the pair (K_1213, K_1224)
  is stacked.

``diff`` prints one line per entry: ``byte-equal``, or the largest
absolute and relative change between aligned numbers (per column for
CSV files, per field for ``.npz`` files), followed by the lines found
on one side only.  Lines are
aligned on their text with every non-integer number masked, so a
residual moving at roundoff is drift while a changed count, status or
note is a line on each side.  It exits 1 when an entry exists on one
side only, or when a status, verdict, excluded-node count, iteration
count or stop reason differs, or a field is missing or changes shape;
drift and other one-sided lines alone exit 0.

To compare a change with its parent, dump each checkout, either with
its own copy of this file or with this one and ``--src``/``--bench``
pointing into the other checkout, then ``diff`` parent change.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]

BETAS = (0.0, 1.0, 2.0)
N_SINGLE = 24
LEVELS = (16, 32)
CONFORMAL = "0.1*sin(p1) + 0.05*cos(p2)"
SEEDS = (0, 1)
# first tokens of the lines that carry a verdict or a count
VERDICT_KEYS = ("status", "passed", "excluded_nodes", "iterations",
                "stop_reason", "converged", "error")
MAX_ONE_SIDED = 12  # one-sided lines printed per entry
N_FIELDS = 32


def _generic_j(A):
    """The conformal metric and J as a plain ``AmbientManifold``: the
    base-class path the conformal closed forms are tested against."""
    conf = A.conformal(CONFORMAL)
    return A.AmbientManifold(metric_field=conf.metric_field, j_field=conf.j_field)


# ambient name -> builder from the ``symcrit.ambient`` module
AMBIENTS = {
    "flat": lambda A: A.euclidean_c2(),
    "conformal": lambda A: A.conformal(CONFORMAL),
    "generic-j": _generic_j,
}


def _accel_block(G):
    """W_ij stacked as the (..., 2, 2, 4) block that the ``accel`` key
    has always held."""
    import numpy as np

    W = np.stack(G._accel_entries, axis=-2)
    return W.reshape(W.shape[:-2] + (2, 2, 4))


# npz key -> reader; the frame and W_ij keep the keys they had as geometry
# properties, so dumps of older checkouts still line up
FIELDS = {
    "accel": _accel_block,
    "second_fundamental": lambda G: G.second_fundamental,
    "frame_matrix": lambda G: G.adapted_frame.matrix,
    # the tangent rows: the table a geometry caches holds only those
    "nabla_j_frame": lambda G: G.nabla_j_frame[..., :2, :, :],
    "curvature_frame_components": lambda G: G.curvature_frame_components,
    "mean_curvature_normal_derivative": lambda G: G.mean_curvature_normal_derivative,
    "j12_kk": lambda G: G.j12_kk,
}


# -- dump -------------------------------------------------------------


def _surfaces(sc, n):
    S = sc.surface
    return {
        "zbar": S.zbar_graph(0.5, n, n),
        "holomorphic": S.holomorphic_graph(0.3, -0.2, n, n),
        "perturbed": S.perturbed_graph(0.5, 0.05, n_theta=n, n_phi=n),
        "perturbed_holomorphic": S.perturbed_holomorphic_graph(
            0.3, -0.2, 0.05, n_theta=n, n_phi=n),
        "lagrangian": S.lagrangian_torus(n_theta=n, n_phi=n),
        "revolution": S.revolution_torus(n_theta=n, n_phi=n),
    }


def _checks(sc, single, levels, ambient):
    """(entry name, thunk returning the report text) for one surface."""
    V = sc.verify
    out = [
        ("gradient", lambda: V.verify_gradient_identities(levels, ambient)),
        ("laplacian", lambda: V.verify_laplacian_identity(levels, ambient)),
        ("condition_cyclic", lambda: V.check_condition_cyclic(single, ambient)),
        ("condition_symmetric",
         lambda: V.check_condition_symmetric(single, ambient)),
    ]
    for beta in BETAS:
        out.append((f"first_variation-beta{beta:g}",
                    lambda b=beta: V.verify_first_variation(single, ambient, b)))
        out.append((f"critical-beta{beta:g}",
                    lambda b=beta: V.verify_critical_identity(single, ambient, b)))
    return out


def _text(thunk, errors) -> str:
    try:
        return thunk().to_text()
    except errors as err:
        return f"error {type(err).__name__}: {err}\n"


def _dump_reports(sc, out: Path) -> int:
    errors = (ValueError,) + tuple(
        cls for cls in vars(sc.errors).values()
        if isinstance(cls, type) and issubclass(cls, Exception))
    ambients = {name: build(sc.ambient) for name, build in AMBIENTS.items()}
    singles = _surfaces(sc, N_SINGLE)
    ladders = [_surfaces(sc, n) for n in LEVELS]
    count = 0
    for amb_name, ambient in ambients.items():
        for surf_name, single in singles.items():
            levels = [ladder[surf_name] for ladder in ladders]
            where = out / "reports" / amb_name / surf_name
            where.mkdir(parents=True, exist_ok=True)
            for check, thunk in _checks(sc, single, levels, ambient):
                (where / f"{check}.txt").write_text(_text(thunk, errors))
                count += 1
    return count


def _dump_bench(bench: Path, out: Path) -> int:
    spec = importlib.util.spec_from_file_location("workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (out / "bench").mkdir(parents=True, exist_ok=True)
    count = 0
    for name, cls in workloads.WORKLOADS.items():
        for seed in SEEDS:
            wl = cls(workloads.import_symcrit(), workloads.parameters(seed))
            lines = []
            for k in range(workloads.DRAWS):
                result = wl.run(k)
                problems = wl.check(result)
                lines.append(f"op{k} {wl.digest(result)}"
                             + "".join(f" problem: {p}" for p in problems))
            (out / "bench" / f"{name}-seed{seed}.txt").write_text(
                "\n".join(lines) + "\n")
            count += 1
    return count


def _dump_flow(sc, out: Path) -> int:
    surface = sc.surface.perturbed_holomorphic_graph(0.3, -0.2, eps=0.05,
                                                     n_theta=64, n_phi=64)
    result = sc.flow.run_flow(surface, sc.ambient.euclidean_c2(), 1.0,
                              max_iterations=4000, res_tol=1e-3)
    where = out / "flow"
    where.mkdir(parents=True, exist_ok=True)
    sc.flow.write_trace(result, where / "trace.csv")
    sc.surface.write_surface(result.surface, where / "final_surface.txt")
    (where / "summary.txt").write_text(
        f"iterations {result.iterations}\n"
        f"stop_reason {result.stop_reason}\n"
        f"converged {'true' if result.converged else 'false'}\n")
    return 3


def _dump_fields(sc, out: Path) -> int:
    import numpy as np

    surface = sc.surface.perturbed_graph(0.5, 0.05, n_theta=N_FIELDS, n_phi=N_FIELDS)
    where = out / "fields"
    where.mkdir(parents=True, exist_ok=True)
    for name, build in AMBIENTS.items():
        G = sc.surface.SurfaceGeometry(surface, build(sc.ambient))
        np.savez(where / f"{name}.npz",
                 **{key: np.asarray(read(G)) for key, read in FIELDS.items()})
    return len(AMBIENTS)


def dump(out: Path, src: Path, bench: Path) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import symcrit.ambient
    import symcrit.errors
    import symcrit.flow
    import symcrit.surface
    import symcrit.verify

    if src.resolve() not in Path(symcrit.__file__).resolve().parents:
        raise RuntimeError(f"symcrit imported from {symcrit.__file__}, not {src}")
    sc = SimpleNamespace(ambient=symcrit.ambient, errors=symcrit.errors,
                         surface=symcrit.surface, flow=symcrit.flow,
                         verify=symcrit.verify)
    out.mkdir(parents=True, exist_ok=True)
    count = _dump_reports(sc, out) + _dump_flow(sc, out) + _dump_fields(sc, out)
    count += _dump_bench(bench, out)  # re-imports symcrit, so it runs last
    print(f"{count} entries -> {out}")
    return 0


# -- diff -------------------------------------------------------------


def _number(token: str):
    """The float a token spells, or None; integers return None too, so
    they stay part of the line's key (counts, indices, grid sizes)."""
    try:
        int(token)
        return None
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return None


def _split(line: str):
    """(key, numbers): the line with non-integer numbers masked as '#',
    and those numbers in order."""
    sep = "," if "," in line and " " not in line else " "
    tokens = line.split(sep)
    numbers = [_number(t) for t in tokens]
    key = sep.join("#" if x is not None else t for t, x in zip(tokens, numbers))
    return key, [x for x in numbers if x is not None]


def _keys(lines):
    split = [_split(line) for line in lines]
    return [k for k, _ in split], [n for _, n in split]


def _change(a: float, b: float):
    """(absolute, relative) change; equal nans and infinities are no change."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    d = abs(a - b)
    return d, d / max(abs(a), abs(b))


def _verdicts(lines):
    return [ln for ln in lines if ln.split(" ", 1)[0] in VERDICT_KEYS]


class Drift:
    """Largest absolute and relative change, with where it was seen."""

    def __init__(self):
        self.abs = self.rel = 0.0
        self.abs_at = self.rel_at = ""

    def add(self, a, b, where):
        d, r = _change(a, b)
        if d > self.abs:
            self.abs, self.abs_at = d, where
        if r > self.rel:
            self.rel, self.rel_at = r, where

    def __str__(self):
        return (f"abs {self.abs:.3g} ({self.abs_at}), "
                f"rel {self.rel:.3g} ({self.rel_at})")


def _compare(a_text: str, b_text: str, csv: bool):
    """(summary, one-sided lines, verdict changed) for one entry."""
    la, lb = a_text.splitlines(), b_text.splitlines()
    ka, na = _keys(la)
    kb, nb = _keys(lb)
    header = la[0].split(",") if csv and la else []
    columns = {}
    overall = Drift()
    one_sided = []
    if ka == kb:
        blocks = [("equal", 0, len(la), 0, len(lb))]
    else:
        blocks = difflib.SequenceMatcher(None, ka, kb).get_opcodes()
    for tag, i0, i1, j0, j1 in blocks:
        if tag != "equal":
            one_sided += [f"  A: {ln}" for ln in la[i0:i1]]
            one_sided += [f"  B: {ln}" for ln in lb[j0:j1]]
            continue
        for i, j in zip(range(i0, i1), range(j0, j1)):
            if csv:
                cols = [c for c, m in zip(header, ka[i].split(",")) if m == "#"]
                for col, x, y in zip(cols, na[i], nb[j]):
                    columns.setdefault(col, Drift()).add(x, y, f"row {i}")
            else:
                for x, y in zip(na[i], nb[j]):
                    overall.add(x, y, ka[i].split(" ", 1)[0])
    verdict = _verdicts(la) != _verdicts(lb)
    if csv:
        verdict |= len(la) != len(lb)  # one row per iteration
        summary = "; ".join(f"{c}: {d}" for c, d in columns.items() if d.rel)
    else:
        summary = str(overall) if overall.rel else ""
    return summary or "numbers equal", one_sided, verdict


def _compare_fields(pa: Path, pb: Path):
    """(summary, verdict changed) for two ``.npz`` entries: per field the
    largest absolute and relative change and the index where it is."""
    import numpy as np

    with np.load(pa) as fa, np.load(pb) as fb:
        a, b = dict(fa), dict(fb)
    parts = []
    verdict = a.keys() != b.keys()
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b or a[name].shape != b[name].shape:
            parts.append(f"{name}: missing or reshaped")
            verdict = True
            continue
        x, y = a[name], b[name]
        if x.tobytes() == y.tobytes():
            continue
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        with np.errstate(invalid="ignore", divide="ignore"):
            d = np.nan_to_num(np.where(same, 0.0, np.abs(x - y)), nan=np.inf)
            r = np.where(d > 0, d / np.maximum(np.abs(x), np.abs(y)), 0.0)
        r = np.nan_to_num(r, nan=np.inf)
        at = [np.unravel_index(np.argmax(v), v.shape) for v in (d, r)]
        parts.append(f"{name}: abs {d[at[0]]:.3g} (at {tuple(map(int, at[0]))}), "
                     f"rel {r[at[1]]:.3g} (at {tuple(map(int, at[1]))})")
    return "; ".join(parts), verdict


def diff(a: Path, b: Path) -> int:
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    equal = drifted = sided = 0
    bad = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            print(f"{name}: only in {'A' if pa.is_file() else 'B'}")
            bad.append(str(name))
            continue
        if name.suffix == ".npz":
            summary, verdict = _compare_fields(pa, pb)
            if not summary:
                print(f"{name}: byte-equal")  # every array, bit for bit
                equal += 1
                continue
            flag = "  VERDICT CHANGED" if verdict else ""
            print(f"{name}: {summary}{flag}")
            drifted += 1
            if verdict:
                bad.append(str(name))
            continue
        ta, tb = pa.read_text(), pb.read_text()
        if ta == tb:
            print(f"{name}: byte-equal")
            equal += 1
            continue
        summary, one_sided, verdict = _compare(ta, tb, name.suffix == ".csv")
        flag = "  VERDICT CHANGED" if verdict else ""
        print(f"{name}: {summary}; {len(one_sided)} one-sided lines{flag}")
        for line in one_sided[:MAX_ONE_SIDED]:
            print(line)
        if len(one_sided) > MAX_ONE_SIDED:
            print(f"  ... {len(one_sided) - MAX_ONE_SIDED} more")
        drifted += 1
        sided += bool(one_sided)
        if verdict:
            bad.append(str(name))
    print(f"summary: {len(names)} entries, {equal} byte-equal, {drifted} differ "
          f"({sided} with one-sided lines), {len(bad)} with a verdict change "
          f"or missing")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pd = sub.add_parser("dump", help="write the golden outputs of a checkout")
    pd.add_argument("dir", type=Path)
    pd.add_argument("--src", type=Path, default=ROOT / "src",
                    help="symcrit source directory (default: this checkout's)")
    pd.add_argument("--bench", type=Path, default=ROOT / "bench",
                    help="directory holding workloads.py (default: this checkout's)")
    pf = sub.add_parser("diff", help="compare two dumps, A the reference")
    pf.add_argument("a", type=Path)
    pf.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.dir, args.src, args.bench)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
