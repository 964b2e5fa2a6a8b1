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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import adapt
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
# the data expressions of an external problem: ProblemData's fields, then
# OutputFunctional's, each in field order
_EXPRESSIONS = ("f", "g_D", "g_N", "f_O", "g_D_O", "g_N_O")
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
                  ast.Constant, ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div,
                  ast.Pow, ast.USub, ast.UAdd)


def compile_expression(text: str):
    """Compile an arithmetic expression in x, y into a vectorized callable.

    Supports + - * / ** (also ^), the functions sin cos tan sinh cosh tanh
    exp log sqrt abs, and the constants pi and e.  Numbers are float64, so
    "1/0" or "9**9**5" evaluate to inf instead of raising.
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
    numbers = {}

    class _Float64Numbers(ast.NodeTransformer):
        def visit_Constant(self, node):
            name = f"_{len(numbers)}"
            numbers[name] = np.float64(node.value)
            return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)

    tree = ast.fix_missing_locations(_Float64Numbers().visit(tree))
    code = compile(tree, "<expression>", "eval")

    def fun(x, y):
        env = {"x": np.asarray(x, dtype=float),
               "y": np.asarray(y, dtype=float), **_FUNCS, **_NAMES, **numbers}
        with np.errstate(all="ignore"):  # Workspace.eval_data rejects non-finite values
            vals = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(vals, dtype=float),
                               np.broadcast(x, y).shape).copy()
    return fun


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_JSON_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", dict: "an object"}


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
    out_dir: str = "."

    def validate(self):
        """Check the settings; returns the parsed marking strategy."""
        hints = get_type_hints(RunConfig)
        for f in fields(self):
            val, kinds = getattr(self, f.name), get_args(hints[f.name])
            if val is None and type(None) in kinds:
                continue
            kind = next(t for t in kinds or (hints[f.name],)
                        if t is not type(None))
            # a float field also takes an int, and bool is an int to isinstance
            accepted = (int, float) if kind is float else kind
            if not (isinstance(val, accepted)
                    and isinstance(val, bool) == (kind is bool)):
                raise ValueError(f"{f.name} must be {_JSON_NAMES[kind]}, "
                                 f"not {val!r}")
        for name, text in self.expressions.items():
            if not isinstance(text, str):
                raise ValueError(f"expression {name} must be a string, "
                                 f"not {text!r}")
        for region, nu in (self.nu or {}).items():
            if isinstance(nu, bool) or not isinstance(nu, (int, float)):
                raise ValueError(f"nu of region {region} must be a number, "
                                 f"not {nu!r}")
        if self.p < 0:
            raise ValueError("polynomial degree p must be >= 0")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, not {self.tau!r}")
        if not self.target > 0:
            raise ValueError("target gap must be positive")
        if self.exact_s is not None and not np.isfinite(self.exact_s):
            raise ValueError(f"exact_s must be finite, not {self.exact_s!r}")
        if self.max_iter < 1:
            raise ValueError("max-iter must be >= 1")
        strategy = parse_strategy(self.strategy, self.target)
        for name in self.expressions:
            if name not in _EXPRESSIONS:
                raise ValueError(f"unknown expression {name!r} "
                                 f"(expected {' | '.join(_EXPRESSIONS)})")
        if self.refiner not in (None, *adapt._REFINERS):
            raise ValueError(f"unknown refiner {self.refiner!r} "
                             f"(expected {' | '.join(adapt._REFINERS)})")
        if self.problem is None and self.mesh_file is None:
            raise ValueError("either a builtin problem or an external mesh "
                             "file must be given")
        if self.problem is not None and self.problem not in PROBLEM_IDS:
            raise ValueError(f"unknown problem {self.problem!r}; "
                             f"available: {', '.join(PROBLEM_IDS)}")
        return strategy


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
        family = prob.uniform_family if cfg.refiner is None else None
        return (prob.initial_mesh(), prob.data, prob.out, exact,
                cfg.refiner or prob.refiner, family)
    nu = {int(k): float(v) for k, v in (cfg.nu or {}).items()} or None
    mesh = read_mesh(cfg.mesh_file, nu=nu)
    ex = cfg.expressions
    funs = [compile_expression(ex[name]) if name in ex else zero
            for name in _EXPRESSIONS]
    data, out = ProblemData(*funs[:3]), OutputFunctional(*funs[3:])
    return mesh, data, out, cfg.exact_s, cfg.refiner or "bisect", None


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------

CSV_HEADER = ("nel,n_edge_dofs,s_minus,s_plus,s_tilde,half_gap,kappa,s_h,"
              "err_s_tilde,marked,strategy")


def _csv_row(rec: adapt.IterationRecord, exact_s, strategy: str) -> str:
    """One CSV_HEADER row; s_h and err_s_tilde are empty when unknown."""
    b = rec.bounds
    floats = (b.s_minus, b.s_plus, b.s_tilde, b.half_gap, b.kappa)
    s_h = format(b.s_h, ".12e") if b.s_h is not None else ""
    err = format(abs(exact_s - b.s_tilde), ".6e") if exact_s is not None else ""
    return ",".join([str(rec.nel), str(rec.n_edge_dofs),
                     *(format(v, ".12e") for v in floats),
                     s_h, err, str(rec.marked), strategy])


def _write_outputs(cfg: RunConfig, run: adapt.AdaptiveRun, exact_s,
                   containment_ok) -> None:
    out = Path(cfg.out_dir)
    strategy = cfg.strategy
    with open(out / "convergence.csv", "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in run.records:
            fh.write(_csv_row(rec, exact_s, strategy) + "\n")

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
        strategy = cfg.validate()
        mesh0, data, out, exact_s, refiner, family = _load_problem(cfg)
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = adapt.adaptive_loop(
            mesh0, data, out, cfg.p, cfg.tau, strategy,
            target_gap=cfg.target, max_iter=cfg.max_iter, refiner=refiner,
            optimize=cfg.optimize, uniform_family=family)
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
    for name in _EXPRESSIONS:
        ap.add_argument(f"--{name}", dest=f"expr_{name}",
                        help=f"expression for {name} (external problems)")
    ap.add_argument("--exact-s", type=float, dest="exact_s")
    ap.add_argument("--p", type=int)
    ap.add_argument("--tau", type=float)
    ap.add_argument("--strategy", help="uniform | tol:<delta> | bulk:<theta>")
    ap.add_argument("--refiner", choices=tuple(adapt._REFINERS),
                    help="default: the problem's own; a given refiner also "
                         "replaces uniform's family of meshes (example1_*)")
    ap.add_argument("--target", type=float, help="target bound gap")
    ap.add_argument("--max-iter", type=int, dest="max_iter")
    ap.add_argument("--optimize", action="store_true", default=None)
    ap.add_argument("--out", dest="out_dir", help="output directory")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg_dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg_dict = json.load(fh)
            if not isinstance(cfg_dict, dict):
                raise ValueError("the config file must hold a JSON object, "
                                 f"not {cfg_dict!r}")
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    expressions = cfg_dict.pop("expressions", {})
    flags = {name: getattr(args, f"expr_{name}") for name in _EXPRESSIONS
             if getattr(args, f"expr_{name}") is not None}
    if isinstance(expressions, dict):  # else RunConfig.validate rejects it
        expressions = {**expressions, **flags}
    known = [f.name for f in fields(RunConfig)]
    bad = set(cfg_dict) - set(known)
    if bad:
        print(f"configuration error: unknown keys {sorted(bad)}",
              file=sys.stderr)
        return EXIT_CONFIG
    for key in known:  # the flags named after a field override the file
        val = getattr(args, key, None)
        if val is not None:
            cfg_dict[key] = val
    cfg_dict["expressions"] = expressions
    return run(RunConfig(**cfg_dict))


if __name__ == "__main__":
    sys.exit(main())
