"""Batch front-end: run a uniform or adaptive bounds study from a config
file and/or command-line flags, and write the convergence artifacts.

Outputs in the chosen directory: ``convergence.csv`` (one row per
iteration), ``report.txt`` (aligned table mirroring the published ones),
``mesh_final.txt``, and ``summary.json`` with a machine-readable verdict.
Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 non-convergence, 5 containment violation.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import adapt
from .bounds import CSV_HEADER
from .hdg import OutputFunctional, ProblemData, zero
from .mesh import read_mesh, write_mesh
from .problems import PROBLEM_IDS, builtin
from .workspace import NonFiniteDataError

__all__ = ["RunConfig", "run", "main", "compile_expression", "builtin"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NOT_CONVERGED = 4
EXIT_CONTAINMENT = 5


# ---------------------------------------------------------------------------
# Expression grammar for external problem data
# ---------------------------------------------------------------------------

_FUNCS = {name: getattr(np, name) for name in
          ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log",
           "sqrt", "abs")}
_NAMES = {"pi": np.pi, "e": np.e}
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
                  ast.Constant, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div,
                  ast.Pow, ast.USub, ast.UAdd)


def compile_expression(text: str):
    """Compile an arithmetic expression in x, y into a vectorized callable.

    Supports + - * / ** (also ^), the functions sin cos tan sinh cosh tanh
    exp log sqrt abs, and the constants pi and e.
    """
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed syntax in expression: {text!r}")
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                    and len(node.args) == 1 and not node.keywords):
                raise ValueError(f"disallowed function call in {text!r}")
        if isinstance(node, ast.Name) and node.id not in ("x", "y", *_FUNCS,
                                                          *_NAMES):
            raise ValueError(f"unknown name {node.id!r} in expression {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value,
                                                             (int, float)):
            raise ValueError(f"non-numeric constant in {text!r}")
    code = compile(tree, "<expression>", "eval")

    def fun(x, y):
        env = {"x": np.asarray(x, dtype=float),
               "y": np.asarray(y, dtype=float), **_FUNCS, **_NAMES}
        return np.broadcast_to(np.asarray(eval(code, {"__builtins__": {}}, env),
                                          dtype=float),
                               np.broadcast(x, y).shape).copy()
    return fun


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    problem: Optional[str] = None        # builtin id, or None for external
    mesh_file: Optional[str] = None      # external problem: mesh path
    expressions: dict = field(default_factory=dict)  # f, g_D, g_N, f_O, ...
    nu: Optional[dict] = None
    exact_s: Optional[float] = None
    p: int = 1
    tau: float = 1.0
    strategy: str = "uniform"
    refiner: Optional[str] = None        # default: problem-specific
    target: float = 1e-8
    max_iter: int = 40
    optimize: bool = False
    quad_degree: Optional[int] = None
    out_dir: str = "."
    gnuplot: bool = False

    def validate(self):
        if self.p < 0:
            raise ValueError("polynomial degree p must be >= 0")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.target > 0:
            raise ValueError("target gap must be positive")
        if self.max_iter < 1:
            raise ValueError("max-iter must be >= 1")
        parse_strategy(self.strategy, self.target)
        if self.refiner not in (None, "red", "bisect"):
            raise ValueError(f"unknown refiner {self.refiner!r} "
                             "(expected red | bisect)")
        if self.problem is None and self.mesh_file is None:
            raise ValueError("either a builtin problem or an external mesh "
                             "file must be given")
        if self.problem is not None and self.problem not in PROBLEM_IDS:
            raise ValueError(f"unknown problem {self.problem!r}; "
                             f"available: {', '.join(PROBLEM_IDS)}")


def parse_strategy(text: str, target: float):
    if text == "uniform":
        return adapt.Uniform()
    if text.startswith("tol:"):
        return adapt.ErrorDistribution(float(text[4:]))
    if text == "tol":
        return adapt.ErrorDistribution(target)
    if text.startswith("bulk:"):
        return adapt.Bulk(float(text[5:]))
    raise ValueError(f"unknown strategy {text!r} "
                     "(expected uniform | tol:<delta> | bulk:<theta>)")


def _load_problem(cfg: RunConfig):
    if cfg.problem is not None:
        prob = builtin(cfg.problem)
        exact = cfg.exact_s if cfg.exact_s is not None else prob.exact_s
        return (prob.initial_mesh(), prob.data, prob.out, exact,
                cfg.refiner or prob.refiner, prob.uniform_family)
    nu = {int(k): float(v) for k, v in (cfg.nu or {}).items()} or None
    mesh = read_mesh(cfg.mesh_file, nu=nu)
    ex = cfg.expressions
    def expr(name):
        return compile_expression(ex[name]) if name in ex else zero
    data = ProblemData(f=expr("f"), g_D=expr("g_D"), g_N=expr("g_N"))
    out = OutputFunctional(f_O=expr("f_O"), g_D_O=expr("g_D_O"),
                           g_N_O=expr("g_N_O"))
    return mesh, data, out, cfg.exact_s, cfg.refiner or "bisect", None


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------

def _write_outputs(cfg: RunConfig, run: adapt.AdaptiveRun, exact_s,
                   containment_ok) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    strategy = cfg.strategy
    with open(out / "convergence.csv", "w") as fh:
        fh.write(CSV_HEADER + ",marked,strategy\n")
        for rec in run.records:
            row = rec.bounds.csv_row(rec.nel, rec.n_edge_dofs, exact_s)
            fh.write(f"{row},{rec.marked},{strategy}\n")

    with open(out / "report.txt", "w") as fh:
        cols = ["nel", "n_edge", "s_minus", "s_plus", "s_tilde", "half_gap",
                "order", "|s-s_h|", "|s-s~_h|"]
        fh.write(("{:>8} {:>8} {:>18} {:>18} {:>18} {:>11} {:>7} "
                  "{:>10} {:>10}\n").format(*cols))
        prev = None
        for rec in run.records:
            b = rec.bounds
            if prev is not None and prev.bounds.half_gap > 0 and \
                    b.half_gap > 0 and prev.nel != rec.nel:
                order = format(adapt.convergence_order(
                    prev.bounds.half_gap, prev.nel, b.half_gap, rec.nel), ".2f")
            else:
                order = "--"
            esh = (format(abs(exact_s - b.s_h), ".2e")
                   if exact_s is not None and b.s_h is not None else "--")
            est = (format(abs(exact_s - b.s_tilde), ".2e")
                   if exact_s is not None else "--")
            fh.write(("{:>8d} {:>8d} {:>18.12f} {:>18.12f} {:>18.12f} "
                      "{:>11.3e} {:>7} {:>10} {:>10}\n").format(
                rec.nel, rec.n_edge_dofs, b.s_minus, b.s_plus, b.s_tilde,
                b.half_gap, order, esh, est))
            prev = rec

    if run.final_mesh is not None:
        write_mesh(run.final_mesh, out / "mesh_final.txt")

    if cfg.gnuplot:
        with open(out / "convergence.dat", "w") as fh:
            fh.write("# nel half_gap\n")
            for rec in run.records:
                fh.write(f"{rec.nel} {rec.bounds.half_gap:.12e}\n")

    last = run.records[-1].bounds
    summary = {
        "problem": cfg.problem or cfg.mesh_file,
        "p": cfg.p, "tau": cfg.tau, "strategy": strategy,
        "optimize": cfg.optimize,
        "iterations": len(run.records),
        "converged": run.converged,
        "final_nel": run.records[-1].nel,
        "s_minus": last.s_minus, "s_plus": last.s_plus,
        "s_tilde": last.s_tilde, "half_gap": last.half_gap,
        "exact_s": exact_s,
        "containment_pass": containment_ok,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(cfg: RunConfig) -> int:
    """Execute one study; returns the process exit status."""
    try:
        cfg.validate()
        mesh0, data, out, exact_s, refiner, family = _load_problem(cfg)
        strategy = parse_strategy(cfg.strategy, cfg.target)
    except (ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = adapt.adaptive_loop(
            mesh0, data, out, cfg.p, cfg.tau, strategy,
            target_gap=cfg.target, max_iter=cfg.max_iter, refiner=refiner,
            optimize=cfg.optimize, quad_degree=cfg.quad_degree,
            uniform_family=family)
    except (RuntimeError, NonFiniteDataError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    containment_ok = None
    if exact_s is not None:
        slack = 1e-12 * (1.0 + abs(exact_s))
        containment_ok = all(r.bounds.contains(exact_s, slack)
                             for r in result.records)
    _write_outputs(cfg, result, exact_s, containment_ok)

    if containment_ok is False:
        print("containment violation: exact output outside certified bounds",
              file=sys.stderr)
        return EXIT_CONTAINMENT
    if not result.converged:
        print(f"not converged after {len(result.records)} iterations "
              f"(gap {result.records[-1].bounds.half_gap * 2:.3e} > "
              f"{cfg.target:.3e})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hdgbounds",
        description="Guaranteed output bounds for the Poisson problem from "
                    "HDG approximations.")
    ap.add_argument("--config", help="JSON config file; flags override it")
    ap.add_argument("--problem", help=f"builtin id ({', '.join(PROBLEM_IDS)})")
    ap.add_argument("--mesh", dest="mesh_file", help="external mesh file")
    for name in ("f", "g_D", "g_N", "f_O", "g_D_O", "g_N_O"):
        ap.add_argument(f"--{name}", dest=f"expr_{name}",
                        help=f"expression for {name} (external problems)")
    ap.add_argument("--exact-s", type=float, dest="exact_s")
    ap.add_argument("--p", type=int)
    ap.add_argument("--tau", type=float)
    ap.add_argument("--strategy", help="uniform | tol:<delta> | bulk:<theta>")
    ap.add_argument("--refiner", choices=("red", "bisect"))
    ap.add_argument("--target", type=float, help="target bound gap")
    ap.add_argument("--max-iter", type=int, dest="max_iter")
    ap.add_argument("--optimize", action="store_true", default=None)
    ap.add_argument("--quad-degree", type=int, dest="quad_degree")
    ap.add_argument("--out", dest="out_dir", help="output directory")
    ap.add_argument("--gnuplot", action="store_true", default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg_dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg_dict = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    expressions = dict(cfg_dict.pop("expressions", {}))
    for name in ("f", "g_D", "g_N", "f_O", "g_D_O", "g_N_O"):
        val = getattr(args, f"expr_{name}")
        if val is not None:
            expressions[name] = val
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    bad = set(cfg_dict) - known
    if bad:
        print(f"configuration error: unknown keys {sorted(bad)}",
              file=sys.stderr)
        return EXIT_CONFIG
    for key in ("problem", "mesh_file", "exact_s", "p", "tau", "strategy",
                "refiner", "target", "max_iter", "optimize", "quad_degree",
                "out_dir", "gnuplot"):
        val = getattr(args, key, None)
        if val is not None:
            cfg_dict[key] = val
    cfg_dict["expressions"] = expressions
    try:
        cfg = RunConfig(**cfg_dict)
    except TypeError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
