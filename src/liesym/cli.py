"""Command-line front end.

Reads a problem file, runs one analysis, and prints a JSON report with a
top-level ``command`` / ``inputs`` / ``result`` triple (``--plain`` switches
to human-readable text).  Exit status: 0 on success, 1 when a check fails,
2 on input errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterator

from . import buckpi, claws, detsys, invariants, varcalc
from .errors import ArityError, LiesymError, NotASymmetry
from .expr import Context, is_zero, jet_order
from .jet import VectorField, lie_bracket, prolong
from .parse import (
    Problem,
    format_expr,
    format_exprs,
    parse_dimension_csv,
    parse_expr,
    parse_problem,
)
from .varcalc import ConservedCurrent, Lagrangian


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it holds only the
    option definitions, and each ``parse_args`` returns a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="liesym",
        description="Lie symmetry analysis of differential equations",
    )
    ap.add_argument("--plain", action="store_true",
                    help="human-readable output instead of JSON")
    ap.add_argument("--seed", type=int, default=None,
                    help="accepted for reproducibility of dev harnesses; unused")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name):
        c = sub.add_parser(name)
        c.add_argument("--file", required=True, help="problem file")
        return c

    c = cmd("prolong")
    c.add_argument("--vf", required=True)
    c.add_argument("--order", type=int, required=True)

    for name in ("determine", "solve"):
        c = cmd(name)
        c.add_argument("--system", required=True)
        c.add_argument("--xi-names", default=None,
                       help="comma-separated names for the xi coefficients")
        c.add_argument("--phi-names", default=None)
        c.add_argument("--order-cap", type=int, default=None)
    c.add_argument("--degree", type=int, default=3)

    c = cmd("check-symmetry")
    c.add_argument("--vf", required=True)
    c.add_argument("--system", required=True)
    c.add_argument("--order-cap", type=int, default=None)

    c = cmd("bracket")
    c.add_argument("--vf", required=True)
    c.add_argument("--vf2", required=True)

    c = cmd("euler-lagrange")
    c.add_argument("--lagrangian", required=True)

    c = cmd("varsym-defect")
    c.add_argument("--vf", required=True)
    c.add_argument("--lagrangian", required=True)

    c = cmd("noether")
    c.add_argument("--vf", required=True)
    c.add_argument("--lagrangian", required=True)
    c.add_argument("--b", default=None,
                   help="name of a current item supplying the divergence tuple B")

    c = cmd("check-claw")
    c.add_argument("--current", required=True)
    c.add_argument("--system", required=True)
    c.add_argument("--order-cap", type=int, default=None)

    c = cmd("check-char-form")
    c.add_argument("--current", required=True)
    c.add_argument("--char", required=True,
                   help="name of a current item supplying the characteristic tuple")
    c.add_argument("--system", required=True)

    c = cmd("null-div")
    c.add_argument("--current", required=True)

    c = cmd("check-invariant")
    c.add_argument("--vf", required=True)
    c.add_argument("--expr", required=True, help="candidate invariant")
    c.add_argument("--order", type=int, default=None)

    c = cmd("next-invariant")
    c.add_argument("--eta", required=True)
    c.add_argument("--zeta", required=True)

    c = cmd("char-system")
    c.add_argument("--vf", required=True)

    c = sub.add_parser("pi")
    c.add_argument("--file", default=None)
    c.add_argument("--dimmatrix", default=None,
                   help="name of a dimmatrix item in the problem file")
    c.add_argument("--csv", default=None, help="dimension table as CSV")

    return ap


def _read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise LiesymError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _load(path: str) -> Problem:
    return parse_problem(_read_text(path))


def _pick(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise LiesymError(f"no {what} named {name!r} in the problem file") from None


# A handler prints all the expressions of its report in one format_exprs
# call, so a subtree they share is printed once per report.

def _vf_json(v: VectorField, texts: Iterator[str]) -> dict:
    """The xi and phi of ``v``, their texts taken in turn from ``texts``."""
    ctx = v.ctx
    return {"xi": {n: next(texts) for n in ctx.indep},
            "phi": {n: next(texts) for n in ctx.dep}}


def _fields_json(vs: list[VectorField], ctx: Context) -> list[dict]:
    texts = iter(format_exprs([e for v in vs for e in v.xi + v.phi], ctx))
    return [_vf_json(v, texts) for v in vs]


def _prolong(args, prob: Problem) -> tuple[dict, int]:
    v = _pick(prob.vfields, args.vf, "vector field")
    pv = prolong(v, args.order)
    jets = sorted(pv.coeffs, key=lambda j: (j.dep, len(j.idx), j.idx))
    texts = iter(format_exprs([*v.xi, *v.phi, *jets,
                               *(pv.coeffs[j] for j in jets)], prob.ctx))
    report = _vf_json(v, texts)
    names = [next(texts) for _ in jets]
    return {**report, "coeffs": dict(zip(names, texts))}, 0


def _determine_or_solve(args, prob: Problem) -> tuple[dict, int]:
    sys_ = _pick(prob.systems, args.system, "system")
    xi_names = args.xi_names.split(",") if args.xi_names else None
    phi_names = args.phi_names.split(",") if args.phi_names else None
    ds = detsys.determining_equations(sys_, xi_names, phi_names, args.order_cap)
    if args.command == "determine":
        texts = format_exprs([*ds.equations, *ds.splitting_vars], ds.ctx)
        n = len(ds.equations)
        return {"equations": texts[:n], "splitting_vars": texts[n:]}, 0
    basis = detsys.solve_determining(ds, detsys.Ansatz(args.degree))
    return {"dimension": len(basis), "fields": _fields_json(basis, ds.ctx)}, 0


def _check_symmetry(args, prob: Problem) -> tuple[dict, int]:
    v = _pick(prob.vfields, args.vf, "vector field")
    sys_ = _pick(prob.systems, args.system, "system")
    ok = detsys.check_symmetry(v, sys_, args.order_cap)
    return {"symmetry": ok}, 0 if ok else 1


def _bracket(args, prob: Problem) -> tuple[dict, int]:
    v = _pick(prob.vfields, args.vf, "vector field")
    w = _pick(prob.vfields, args.vf2, "vector field")
    u = lie_bracket(v, w)
    return _fields_json([u], u.ctx)[0], 0


def _euler_lagrange(args, prob: Problem) -> tuple[dict, int]:
    lag = Lagrangian(prob.ctx, _pick(prob.lagrangians, args.lagrangian, "lagrangian"))
    eqs = varcalc.euler_lagrange(lag)
    return {"equations": dict(zip(prob.ctx.dep, format_exprs(eqs, prob.ctx)))}, 0


def _varsym_defect(args, prob: Problem) -> tuple[dict, int]:
    v = _pick(prob.vfields, args.vf, "vector field")
    lag = Lagrangian(prob.ctx, _pick(prob.lagrangians, args.lagrangian, "lagrangian"))
    d = varcalc.variational_symmetry_defect(v, lag)
    return {"defect": format_expr(d, prob.ctx), "zero": is_zero(d)}, 0


def _noether(args, prob: Problem) -> tuple[dict, int]:
    v = _pick(prob.vfields, args.vf, "vector field")
    lag = Lagrangian(prob.ctx, _pick(prob.lagrangians, args.lagrangian, "lagrangian"))
    b = _pick(prob.currents, args.b, "current") if args.b else None
    try:
        cur = varcalc.noether_current_first_order(v, lag, b)
    except NotASymmetry as exc:
        return {"error": str(exc)}, 1
    return {"current": format_exprs(cur.f, prob.ctx)}, 0


def _check_claw(args, prob: Problem) -> tuple[dict, int]:
    cur = ConservedCurrent(prob.ctx, _pick(prob.currents, args.current, "current"))
    sys_ = _pick(prob.systems, args.system, "system")
    ok = claws.is_conservation_law(cur, sys_, args.order_cap)
    return {"conservation_law": ok}, 0 if ok else 1


def _check_char_form(args, prob: Problem) -> tuple[dict, int]:
    cur = ConservedCurrent(prob.ctx, _pick(prob.currents, args.current, "current"))
    q = _pick(prob.currents, args.char, "current")
    sys_ = _pick(prob.systems, args.system, "system")
    ok = claws.verify_characteristic_form(cur, q, sys_)
    return {"characteristic_form": ok}, 0 if ok else 1


def _null_div(args, prob: Problem) -> tuple[dict, int]:
    cur = ConservedCurrent(prob.ctx, _pick(prob.currents, args.current, "current"))
    ok = claws.is_null_divergence(cur)
    return {"null_divergence": ok}, 0 if ok else 1


def _check_invariant(args, prob: Problem) -> tuple[dict, int]:
    v = _pick(prob.vfields, args.vf, "vector field")
    eta = parse_expr(args.expr, prob.ctx)
    n = args.order if args.order is not None else jet_order(eta)
    ok = invariants.differential_invariant_check(v, n, eta)
    return {"invariant": ok, "order": n}, 0 if ok else 1


def _next_invariant(args, prob: Problem) -> tuple[dict, int]:
    if prob.ctx.p != 1:
        raise ArityError(f"next-invariant needs one independent variable, "
                         f"the problem declares {prob.ctx.p}")
    eta = parse_expr(args.eta, prob.ctx)
    zeta = parse_expr(args.zeta, prob.ctx)
    out = invariants.next_invariant(eta, zeta)
    return {"invariant": format_expr(out, prob.ctx)}, 0


def _char_system(args, prob: Problem) -> tuple[dict, int]:
    v = _pick(prob.vfields, args.vf, "vector field")
    return {"system": invariants.characteristic_system(v)}, 0


def _pi(args, prob: Problem | None) -> tuple[dict, int]:
    if args.csv:
        model = parse_dimension_csv(_read_text(args.csv))
    elif args.dimmatrix and prob:
        model = _pick(prob.dim_models, args.dimmatrix, "dimension matrix")
    else:
        raise LiesymError("pi needs --csv or --file with --dimmatrix")
    basis = buckpi.pi_basis(model)
    kernel = [[str(basis.b[j, k]) for j in range(basis.b.rows)]
              for k in range(basis.b.cols)]
    return {
        "rank": basis.s,
        "kernel": kernel,
        "pi": buckpi.power_products(basis, model.derived_names),
    }, 0


# Each handler maps (arguments, loaded problem or None) to (result, status).
_HANDLERS = {
    "prolong": _prolong,
    "determine": _determine_or_solve,
    "solve": _determine_or_solve,
    "check-symmetry": _check_symmetry,
    "bracket": _bracket,
    "euler-lagrange": _euler_lagrange,
    "varsym-defect": _varsym_defect,
    "noether": _noether,
    "check-claw": _check_claw,
    "check-char-form": _check_char_form,
    "null-div": _null_div,
    "check-invariant": _check_invariant,
    "next-invariant": _next_invariant,
    "char-system": _char_system,
    "pi": _pi,
}


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    """Returns (report, exit status)."""
    inputs = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command", "plain", "seed") and v is not None
    }
    prob = _load(args.file) if args.file else None
    result, status = _HANDLERS[args.command](args, prob)
    return {"command": args.command, "inputs": inputs, "result": result}, status


def _emit_plain(report: dict, out) -> None:
    def walk(val, indent=""):
        if isinstance(val, dict):
            for k, v in val.items():
                if isinstance(v, (dict, list)):
                    print(f"{indent}{k}:", file=out)
                    walk(v, indent + "  ")
                else:
                    print(f"{indent}{k}: {v}", file=out)
        elif isinstance(val, list):
            for v in val:
                if isinstance(v, (dict, list)):
                    walk(v, indent + "  ")
                else:
                    print(f"{indent}- {v}", file=out)

    print(f"command: {report['command']}", file=out)
    walk(report["result"])


def _drop_stdout() -> None:
    """Point stdout's descriptor, if any, at os.devnull for the last flush."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, status = _run(args)
        if args.plain:
            _emit_plain(report, sys.stdout)
        else:
            json.dump(report, sys.stdout, indent=2)
            print()
        sys.stdout.flush()
    except (LiesymError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            _drop_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: arithmetic overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
