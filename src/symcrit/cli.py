"""Command line front end.

Subcommands:

    verify        run identity checks from a config file, write reports
    flow          run the descent flow, write a trace and final surface
    angle-report  tabulate the angle cosine over a surface
    info          print version and available generators

Configuration uses INI files whose sections, keys and defaults are
those of ``RUN_FILE``; any other section or key is a configuration
error.  The flags --beta, --levels, --tol, --out replace the entries
``FLAGS`` names.  Exit codes: 0 all good,
1 a check failed or the run hit a geometric obstruction, 2 bad usage
or configuration, an ambient that degenerates on the surface or is not
periodic along its winding included.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import inspect
import sys
from dataclasses import dataclass
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

# Every check ``verify`` runs, as the reports it makes from a RunConfig
CHECKS = {
    "first-variation": lambda cfg: [verify_mod.verify_first_variation(
        cfg.single_surface(), cfg.ambient, cfg.beta,
        rel_tol=cfg.tol if cfg.tol is not None else 1e-3)],
    "gradient": lambda cfg: [
        verify_mod.verify_gradient_identities(cfg.level_surfaces(), cfg.ambient)],
    "laplacian": lambda cfg: [
        verify_mod.verify_laplacian_identity(cfg.level_surfaces(), cfg.ambient)],
    "critical": lambda cfg: [verify_mod.verify_critical_identity(
        cfg.single_surface(), cfg.ambient, cfg.beta,
        sin_alpha_min=cfg.sin_alpha_min, resid_tol=cfg.tol)],
    "conditions": lambda cfg: _conditions(cfg.single_surface(), cfg.ambient),
}

# The run file: its sections, their keys and each key's default text, where
# "" leaves the key unset.  Any other section or key is a ConfigError.
RUN_FILE = {
    "ambient": {"kind": "euclidean", "lambda": ""},
    "surface": {"file": "", "generator": "", "params": ""},
    "task": {"check": "gradient,laplacian", "beta": "1.0", "levels": "32,64",
             "tol": "", "sin_alpha_min": "0.1", "max_iterations": "2000",
             "res_tol": "1e-3"},
    "output": {"dir": "."},
}

# Flags whose text replaces a run-file entry: flag -> (section, key)
FLAGS = {"beta": ("task", "beta"), "levels": ("task", "levels"),
         "tol": ("task", "tol"), "out": ("output", "dir")}


def _conditions(surface, ambient) -> list:
    return [verify_mod.check_condition_cyclic(surface, ambient),
            verify_mod.check_condition_symmetric(surface, ambient)]


@dataclass
class RunConfig:
    """Validated run description assembled from INI plus flag overrides."""

    ambient: AmbientManifold
    generator: str  # "" when the surface comes from a file
    generator_args: dict
    surface_file: str  # "" when a generator makes the surface
    checks: list
    beta: float
    levels: list
    tol: float | None
    sin_alpha_min: float
    max_iterations: int
    res_tol: float
    out_dir: Path

    def _surfaces(self, levels) -> list:
        """The surface file's surface, or the generator's at each level."""
        try:
            if self.surface_file:
                return [read_surface(self.surface_file)]
            fn = GENERATORS[self.generator]
            return [fn(**self.generator_args, n_theta=n, n_phi=n) for n in levels]
        except (OSError, ValueError) as err:
            raise ConfigError(f"[surface] {err}") from None

    def single_surface(self) -> ImmersedSurface:
        return self._surfaces([max(self.levels)])[0]

    def level_surfaces(self):
        return self._surfaces(self.levels)


def _number(text: str, key: str, kinds=(float,)):
    """A finite number of the first of ``kinds`` that parses the text, or a
    ConfigError naming the key."""
    for kind in kinds:
        try:
            value = kind(text)
        except ValueError:
            continue
        if cmath.isfinite(value):
            return value
    names = " or ".join(kind.__name__ for kind in kinds)
    raise ConfigError(f"{key}: {text!r} is not a finite {names}")


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
        where = f"[surface] params {token}"
        if key == "modes":
            out[key] = tuple(_number(v, where, (int,)) for v in val.split(","))
            if len(out[key]) != 2:
                raise ConfigError(f"{where}: needs two integers")
        elif params[key].annotation == "complex":
            out[key] = _number(val, where, (int, float, complex))
        else:
            out[key] = _number(val, where, (int, float))
    return out


def _read_run_file(path: str) -> configparser.ConfigParser:
    """The run file over the RUN_FILE defaults, with every name checked.

    Values are literal text.  There is no default section, so a
    [DEFAULT] header is an unknown section too.
    """
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    parser.read_dict(RUN_FILE)
    try:
        found = parser.read(path)
    except configparser.Error as err:
        raise ConfigError(str(err)) from None
    if not found:
        raise ConfigError(f"config file {path!r} not found")
    for section in parser.sections():
        if section not in RUN_FILE:
            raise ConfigError(f"unknown section [{section}] "
                              f"(have: {', '.join(RUN_FILE)})")
        for key in parser[section]:
            if key not in RUN_FILE[section]:
                raise ConfigError(f"[{section}] has no key {key!r} "
                                  f"(have: {', '.join(RUN_FILE[section])})")
    return parser


def load_config(path: str, args) -> RunConfig:
    run = _read_run_file(path)
    for flag, (section, key) in FLAGS.items():
        if getattr(args, flag, None) is not None:
            run[section][key] = getattr(args, flag)
    amb, surf, task = run["ambient"], run["surface"], run["task"]

    try:
        if amb["kind"] == "euclidean":
            if amb["lambda"]:
                raise ConfigError("[ambient] lambda is read only with kind = conformal")
            ambient = euclidean_c2()
        elif amb["kind"] == "conformal":
            if not amb["lambda"]:
                raise ConfigError("conformal ambient needs a lambda expression")
            ambient = conformal(amb["lambda"])
        else:
            raise ConfigError(f"unknown ambient kind {amb['kind']!r}")
    except ValueError as err:
        raise ConfigError(f"[ambient] {err}") from None

    gen = surf["generator"]
    if bool(surf["file"]) == bool(gen):
        raise ConfigError("[surface] needs exactly one of file and generator")
    if surf["file"] and surf["params"]:
        raise ConfigError("[surface] params is read only with generator, not file")
    if gen and gen not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        raise ConfigError(f"unknown generator {gen!r} (have: {known})")

    checks = [c.strip() for c in task["check"].split(",") if c.strip()]
    if not checks and args.command == "verify":
        raise ConfigError("[task] check names no check to verify")
    for c in checks:
        if c not in CHECKS:
            raise ConfigError(f"unknown check {c!r} (have: {', '.join(CHECKS)})")
    cfg = RunConfig(
        ambient=ambient,
        generator=gen,
        generator_args=_parse_generator_args(gen, surf["params"]) if gen else {},
        surface_file=surf["file"],
        checks=checks,
        beta=_number(task["beta"], "[task] beta"),
        levels=[_number(n, "[task] levels", (int,)) for n in task["levels"].split(",")],
        tol=_number(task["tol"], "[task] tol") if task["tol"] else None,
        sin_alpha_min=_number(task["sin_alpha_min"], "[task] sin_alpha_min"),
        max_iterations=_number(task["max_iterations"], "[task] max_iterations",
                               (int,)),
        res_tol=_number(task["res_tol"], "[task] res_tol"),
        out_dir=Path(run["output"]["dir"]),
    )

    try:
        validate_beta(cfg.beta, for_flow=(args.command == "flow"))
        flow_mod.validate_budget(cfg.max_iterations, cfg.res_tol)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if cfg.tol is not None and not cfg.tol > 0.0:
        # verify passes tol as the first variation's rel_tol, which must be > 0
        raise ConfigError(f"[task] tol must be positive, got {cfg.tol:g}")
    if cfg.levels[0] < 8 or np.any(np.diff(cfg.levels) <= 0):
        raise ConfigError(f"levels must be >= 8 and strictly increase, got {cfg.levels}")
    return cfg


def cmd_verify(cfg: RunConfig) -> int:
    reports = [rep for check in cfg.checks for rep in CHECKS[check](cfg)]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        path = cfg.out_dir / f"{rep.check}.report.txt"
        rep.save(path)
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.check} "
              f"[{rep.status}] -> {path}")
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
        p.add_argument("--beta", help="override [task] beta")
        p.add_argument("--out", help="override [output] dir")

    pv = sub.add_parser("verify", help="run identity checks")
    common(pv)
    pv.add_argument("--levels", help="comma list overriding [task] levels")
    pv.add_argument("--tol", help="override [task] tol")

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
    except (ConfigError, AmbientDegenerate) as err:
        # an ambient that degenerates on the surface, or whose fields do not
        # repeat along its winding, is a bad pairing of the two config sections
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NotSymplectic as err:
        print(f"not symplectic: {err}", file=sys.stderr)
        print("the functional and flow need cos(alpha) bounded away from "
              "zero; this surface violates that", file=sys.stderr)
        return 1
    except (NotImmersed, FlowStalled, StructureViolation) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
