"""Command line front end.

Subcommands:

    verify        run identity checks from a config file, write reports
    flow          run the descent flow, write a trace and final surface
    angle-report  tabulate the angle cosine over a surface
    info          print version and available generators

Configuration uses INI files with sections [ambient], [surface],
[task], [output]; the common flags --beta, --levels, --tol, --out
override the corresponding config entries.  Exit codes: 0 all good,
1 a check failed or the run hit a geometric obstruction, 2 bad usage
or configuration.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import inspect
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .ambient import AmbientManifold, conformal, euclidean_c2
from .errors import (
    AmbientDegenerate,
    ConfigError,
    FlowStalled,
    NotImmersed,
    NotSymplectic,
    StructureViolation,
)
from .functional import l_beta, validate_beta
from .surface import (
    ImmersedSurface,
    SurfaceGeometry,
    holomorphic_graph,
    lagrangian_torus,
    perturbed_graph,
    perturbed_holomorphic_graph,
    read_surface,
    revolution_torus,
    write_surface,
    zbar_graph,
)
from . import flow as flow_mod
from . import verify as verify_mod

GENERATORS = {
    "zbar": zbar_graph,
    "holomorphic": holomorphic_graph,
    "perturbed": perturbed_graph,
    "perturbed_holomorphic": perturbed_holomorphic_graph,
    "lagrangian": lagrangian_torus,
    "revolution": revolution_torus,
}

CHECKS = ("first-variation", "gradient", "laplacian", "critical", "conditions")
AMBIENT_KEYS = ("kind", "lambda")


@dataclass
class RunConfig:
    """Validated run description assembled from INI plus flag overrides."""

    ambient: AmbientManifold
    generator: str | None = None
    generator_args: dict = field(default_factory=dict)
    surface_file: str | None = None
    checks: list = field(default_factory=list)
    beta: float = 1.0
    levels: list = field(default_factory=lambda: [32, 64])
    tol: float | None = None
    sin_alpha_min: float = 0.1
    max_iterations: int = 2000
    res_tol: float = 1e-3
    out_dir: Path = Path(".")

    def _surfaces(self, levels) -> list:
        """The surface file's surface, or the generator's at each level."""
        try:
            if self.surface_file is not None:
                return [read_surface(self.surface_file)]
            fn = GENERATORS[self.generator]
            return [fn(**self.generator_args, n_theta=n, n_phi=n) for n in levels]
        except (OSError, ValueError) as err:
            raise ConfigError(f"[surface] {err}") from None

    def single_surface(self) -> ImmersedSurface:
        return self._surfaces([max(self.levels)])[0]

    def level_surfaces(self):
        return self._surfaces(self.levels)


def _parse_value(text: str, kinds=(int, float)):
    """A finite number of the first of ``kinds`` that parses the text."""
    for kind in kinds:
        try:
            value = kind(text)
        except ValueError:
            continue
        if cmath.isfinite(value):
            return value
    raise ValueError(f"{text!r} is not a finite number")


def _number(text: str, key: str, kind=float):
    """A finite int or float from config text, or a ConfigError naming the key."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"{key} = {text!r} is not a finite {kind.__name__}")


def _parse_generator_args(generator: str, text: str) -> dict:
    params = inspect.signature(GENERATORS[generator]).parameters
    known = set(params) - {"n_theta", "n_phi"}  # n is set by the levels
    out = {}
    for token in text.split():
        if "=" not in token:
            raise ConfigError(f"generator parameter {token!r} is not key=value")
        key, val = token.split("=", 1)
        if key not in known:
            raise ConfigError(f"generator {generator!r} has no parameter {key!r} "
                              f"(have: {', '.join(sorted(known))})")
        try:
            if key == "modes":
                out[key] = tuple(int(v) for v in val.split(","))
                if len(out[key]) != 2:
                    raise ValueError("needs two integers")
            elif params[key].annotation == "complex":
                out[key] = _parse_value(val, (int, float, complex))
            else:
                out[key] = _parse_value(val)
        except ValueError as err:
            raise ConfigError(f"[surface] params {token!r}: {err}") from None
    return out


def load_config(path: str, args) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")

    amb = parser["ambient"] if parser.has_section("ambient") else {}
    for key in amb:
        if key not in AMBIENT_KEYS:
            raise ConfigError(f"[ambient] has no key {key!r} "
                              f"(have: {', '.join(AMBIENT_KEYS)})")
    kind = amb.get("kind", "euclidean").strip()
    try:
        if kind == "euclidean":
            ambient = euclidean_c2()
        elif kind == "conformal":
            expr = amb.get("lambda", "").strip()
            if not expr:
                raise ConfigError("conformal ambient needs a lambda expression")
            ambient = conformal(expr)
        else:
            raise ConfigError(f"unknown ambient kind {kind!r}")
    except ValueError as err:
        raise ConfigError(f"[ambient] {err}") from None

    cfg = RunConfig(ambient=ambient)

    surf = parser["surface"] if parser.has_section("surface") else {}
    cfg.surface_file = surf.get("file")
    gen = surf.get("generator")
    if gen is not None:
        gen = gen.strip()
        if gen not in GENERATORS:
            known = ", ".join(sorted(GENERATORS))
            raise ConfigError(f"unknown generator {gen!r} (have: {known})")
        cfg.generator = gen
        cfg.generator_args = _parse_generator_args(gen, surf.get("params", ""))
    if cfg.surface_file is None and cfg.generator is None:
        raise ConfigError("config needs [surface] generator or file")

    task = parser["task"] if parser.has_section("task") else {}
    raw_checks = task.get("check", "gradient,laplacian")
    cfg.checks = [c.strip() for c in raw_checks.split(",") if c.strip()]
    for c in cfg.checks:
        if c not in CHECKS:
            raise ConfigError(f"unknown check {c!r} (have: {', '.join(CHECKS)})")
    cfg.beta = _number(task.get("beta", "1.0"), "[task] beta")
    levels = getattr(args, "levels", None) or task.get("levels", "32,64")
    cfg.levels = [_number(n, "levels", int) for n in levels.split(",")]
    if task.get("tol"):
        cfg.tol = _number(task["tol"], "[task] tol")
    cfg.sin_alpha_min = _number(task.get("sin_alpha_min", "0.1"),
                                "[task] sin_alpha_min")
    cfg.max_iterations = _number(task.get("max_iterations", "2000"),
                                 "[task] max_iterations", int)
    cfg.res_tol = _number(task.get("res_tol", "1e-3"), "[task] res_tol")

    out = parser["output"] if parser.has_section("output") else {}
    cfg.out_dir = Path(out.get("dir", "."))

    if getattr(args, "beta", None) is not None:
        cfg.beta = args.beta
    if getattr(args, "tol", None) is not None:
        cfg.tol = args.tol
    if getattr(args, "out", None):
        cfg.out_dir = Path(args.out)

    try:
        validate_beta(cfg.beta, for_flow=(args.command == "flow"))
        flow_mod.validate_budget(cfg.max_iterations, cfg.res_tol)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if cfg.levels[0] < 8 or np.any(np.diff(cfg.levels) <= 0):
        raise ConfigError(f"levels must be >= 8 and strictly increase, got {cfg.levels}")
    return cfg


def _write_report(cfg: RunConfig, rep) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{rep.check}.report.txt"
    rep.save(path)
    return path


def _print_verdict(rep, path) -> None:
    print(f"{'PASS' if rep.passed else 'FAIL'} {rep.check} "
          f"[{rep.status}] -> {path}")


def cmd_verify(cfg: RunConfig) -> int:
    reports = []
    for check in cfg.checks:
        if check == "first-variation":
            rep = verify_mod.verify_first_variation(
                cfg.single_surface(), cfg.ambient, cfg.beta,
                rel_tol=cfg.tol if cfg.tol is not None else 1e-3,
            )
            reports.append(rep)
        elif check == "gradient":
            rep = verify_mod.verify_gradient_identities(
                cfg.level_surfaces(), cfg.ambient,
            )
            reports.append(rep)
        elif check == "laplacian":
            rep = verify_mod.verify_laplacian_identity(
                cfg.level_surfaces(), cfg.ambient,
            )
            reports.append(rep)
        elif check == "critical":
            rep = verify_mod.verify_critical_identity(
                cfg.single_surface(), cfg.ambient, cfg.beta,
                sin_alpha_min=cfg.sin_alpha_min, resid_tol=cfg.tol,
            )
            reports.append(rep)
        elif check == "conditions":
            S = cfg.single_surface()
            reports.append(verify_mod.check_condition_cyclic(S, cfg.ambient))
            reports.append(verify_mod.check_condition_symmetric(S, cfg.ambient))
    for rep in reports:
        _print_verdict(rep, _write_report(cfg, rep))
    return 0 if all(r.passed for r in reports) else 1


def cmd_flow(cfg: RunConfig) -> int:
    surface = cfg.single_surface()
    result = flow_mod.run_flow(
        surface, cfg.ambient, cfg.beta,
        max_iterations=cfg.max_iterations, res_tol=cfg.res_tol,
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    trace = cfg.out_dir / "trace.csv"
    flow_mod.write_trace(result, trace)
    final = cfg.out_dir / "final_surface.txt"
    write_surface(result.surface, final)
    last = result.states[-1]
    print(f"iterations {last.iteration}")
    print(f"residual_linf {last.res_linf:.6e}")
    print(f"L_beta {last.l_beta:.12g}")
    print(f"min_cos_alpha {last.min_cos_alpha:.6f}")
    print(f"trace -> {trace}")
    print(f"surface -> {final}")
    if not result.converged:
        print("flow: iteration budget exhausted before the residual target",
              file=sys.stderr)
        return 1
    print("converged")
    return 0


def cmd_angle_report(cfg: RunConfig) -> int:
    surface = cfg.single_surface()
    G = SurfaceGeometry(surface, cfg.ambient)
    ca = G.cos_alpha
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "angle.csv"
    lines = ["node_i,node_j,cos_alpha"]
    for i in range(ca.shape[0]):
        for j in range(ca.shape[1]):
            lines.append(f"{i},{j},{ca[i, j]:.17g}")
    path.write_text("\n".join(lines) + "\n")
    print(f"nodes {ca.size}")
    print(f"cos_alpha_min {np.min(ca):.12g}")
    print(f"cos_alpha_max {np.max(ca):.12g}")
    print(f"cos_alpha_mean {np.mean(ca):.12g}")
    try:
        value = l_beta(surface, cfg.ambient, cfg.beta, geometry=G)
        print(f"l_beta({cfg.beta:g}) {value:.12g}")
    except NotSymplectic as err:
        print(f"l_beta({cfg.beta:g}) undefined: {err}")
    print(f"angles -> {path}")
    return 0


def cmd_info() -> int:
    print(f"symcrit {__version__}")
    print("ambients: euclidean, conformal(lambda)")
    print("generators: " + ", ".join(sorted(GENERATORS)))
    print("checks: " + ", ".join(CHECKS))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcrit",
        description="numerical checks and flows for angle-weighted "
        "area functionals on immersed tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI run description")
        p.add_argument("--beta", type=float, help="override [task] beta")
        p.add_argument("--out", help="override [output] dir")

    pv = sub.add_parser("verify", help="run identity checks")
    common(pv)
    pv.add_argument("--levels", help="comma list overriding [task] levels")
    pv.add_argument("--tol", type=float, help="override [task] tol")

    pf = sub.add_parser("flow", help="run the descent flow")
    common(pf)

    pa = sub.add_parser("angle-report", help="tabulate the angle cosine")
    common(pa)

    sub.add_parser("info", help="print version and capabilities")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "info":
        return cmd_info()
    try:
        cfg = load_config(args.config, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "flow":
            return cmd_flow(cfg)
        if args.command == "angle-report":
            return cmd_angle_report(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NotSymplectic as err:
        print(f"not symplectic: {err}", file=sys.stderr)
        print("the functional and flow need cos(alpha) bounded away from "
              "zero; this surface violates that", file=sys.stderr)
        return 1
    except (NotImmersed, FlowStalled, AmbientDegenerate,
            StructureViolation) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
