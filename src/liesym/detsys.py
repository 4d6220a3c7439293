"""Differential systems in solved form: reduction, symmetry criteria,
determining equations, and their solution under a polynomial ansatz."""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import ratla
from .errors import (
    InvalidSample,
    NotPolynomial,
    NotSolvedForm,
    OrderCapExceeded,
    UnknownSymbol,
)
from .expr import (
    Add,
    Const,
    Context,
    Expr,
    Jet,
    ONE,
    Param,
    _base_exp,
    _split,
    UFunc,
    Var,
    ZERO,
    add,
    atoms_of,
    collect,
    contains,
    evaluate,
    expand,
    is_zero,
    jet_order,
    jets_of,
    mul,
    partials,
    sub,
    substitute,
)
from .jet import (
    VectorField,
    apply_prolonged,
    lie_bracket,
    prolong,
    total_derivative_multi,
)


def _count_vector(j: Jet, p: int) -> tuple[int, ...]:
    """Occurrences of each independent index, highest index first."""
    counts = [0] * p
    for i in j.idx:
        counts[i - 1] += 1
    return tuple(reversed(counts))


def _rank_key(j: Jet, p: int):
    return (_count_vector(j, p), j.dep)


def _contains_as_submultiset(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    i = 0
    for b in big:
        if i < len(small) and small[i] == b:
            i += 1
    return i == len(small)


@dataclass(frozen=True)
class DiffSystem:
    """Equations oriented as lead = rhs, enabling terminating rewriting.

    Jets are ranked lexicographically on their index-count vectors with the
    highest independent-variable index most significant; every jet appearing
    in a right-hand side must rank strictly below the corresponding lead.
    """

    ctx: Context
    equations: tuple[tuple[Jet, Expr], ...]

    def __post_init__(self):
        eqs = tuple((lead, e) for lead, e in self.equations)
        object.__setattr__(self, "equations", eqs)
        leads = [lead for lead, _ in eqs]
        if len(set(leads)) != len(leads):
            raise NotSolvedForm("leading derivatives must be distinct")
        p = self.ctx.p
        for lead, rhs in eqs:
            lk = _rank_key(lead, p)
            for j in jets_of(rhs):
                if _rank_key(j, p) >= lk:
                    raise NotSolvedForm(
                        f"right-hand side contains {j} which does not rank "
                        f"below the lead {lead}"
                    )

    @property
    def order(self) -> int:
        return max(
            max(lead.order, jet_order(rhs)) for lead, rhs in self.equations
        )

    def residuals(self) -> list[Expr]:
        """The expressions lead - rhs that vanish on solutions."""
        return [sub(lead, rhs) for lead, rhs in self.equations]


def _reducible_by(j: Jet, lead: Jet) -> tuple[int, ...] | None:
    """Extra indices K with j = D_K(lead), or None."""
    if j.dep != lead.dep or not _contains_as_submultiset(lead.idx, j.idx):
        return None
    extra = list(j.idx)
    for i in lead.idx:
        extra.remove(i)
    return tuple(extra)


def reduce_mod_system(e: Expr, sys: DiffSystem, order_cap: int | None = None) -> Expr:
    """Eliminate every lead derivative and all its prolongations from ``e``.

    Each reducible jet D_K(lead) is replaced by D_K(rhs), computed on demand,
    until none remains.  ``order_cap`` bounds the jet order any replacement may
    reach (default: system order + 4).
    """
    cap = order_cap if order_cap is not None else sys.order + 4
    while True:
        bindings: dict[Expr, Expr] = {}
        for j in jets_of(e):
            for lead, rhs in sys.equations:
                extra = _reducible_by(j, lead)
                if extra is not None:
                    repl = total_derivative_multi(rhs, extra)
                    if jet_order(repl) > cap:
                        raise OrderCapExceeded(
                            f"reducing {j} needs jets beyond order {cap}"
                        )
                    bindings[j] = repl
                    break
        if not bindings:
            return e
        e = substitute(e, bindings)


def symmetry_defect(v: VectorField, sys: DiffSystem,
                    order_cap: int | None = None) -> list[Expr]:
    """Prolonged action on each residual, reduced modulo the system."""
    n = sys.order
    pv = prolong(v, n)
    return [
        reduce_mod_system(apply_prolonged(pv, r), sys, order_cap)
        for r in sys.residuals()
    ]


def check_symmetry(v: VectorField, sys: DiffSystem,
                   order_cap: int | None = None) -> bool:
    return all(is_zero(d) for d in symmetry_defect(v, sys, order_cap))


@dataclass(frozen=True)
class DeterminingSystem:
    """Coefficient equations that the infinitesimal coefficients must satisfy."""

    ctx: Context              # extended with the unknown coefficient functions
    xi_names: tuple[str, ...]
    phi_names: tuple[str, ...]
    equations: tuple[Expr, ...]
    splitting_vars: tuple[Jet, ...]


def generic_vector_field(ctx: Context, xi_names: Sequence[str],
                         phi_names: Sequence[str]) -> tuple[Context, VectorField]:
    """Context extension and vector field with unknown coefficient functions
    of all base variables (x, u)."""
    args = tuple(ctx.indep) + tuple(ctx.dep)
    unknowns = tuple((n, args) for n in tuple(xi_names) + tuple(phi_names))
    ext = Context(ctx.indep, ctx.dep, ctx.params, tuple(ctx.unknowns) + unknowns)
    xi = tuple(ext.ufunc(n) for n in xi_names)
    phi = tuple(ext.ufunc(n) for n in phi_names)
    return ext, VectorField(ext, xi, phi)


def determining_equations(sys: DiffSystem,
                          xi_names: Sequence[str] | None = None,
                          phi_names: Sequence[str] | None = None,
                          order_cap: int | None = None) -> DeterminingSystem:
    """Split the symmetry criterion for a generic vector field over jet
    monomials of order >= 1; the coefficient of each monomial must vanish."""
    ctx = sys.ctx
    if xi_names is None:
        xi_names = [f"xi{i+1}" if ctx.p > 1 else "xi" for i in range(ctx.p)]
    if phi_names is None:
        phi_names = [f"phi{a+1}" if ctx.q > 1 else "phi" for a in range(ctx.q)]
    ext, v = generic_vector_field(ctx, xi_names, phi_names)
    ext_sys = DiffSystem(ext, sys.equations)
    defects = symmetry_defect(v, ext_sys, order_cap)
    split: set[Jet] = set()
    for d in defects:
        split |= {j for j in jets_of(d) if j.order >= 1}
    split_t = tuple(sorted(split, key=lambda j: (j.dep, len(j.idx), j.idx)))
    eqs: list[Expr] = []
    seen: set[Expr] = set()
    for d in defects:
        for coeff in collect(d, split_t).values():
            c = expand(coeff)
            if c != ZERO and c not in seen and expand(mul(-1, c)) not in seen:
                seen.add(c)
                eqs.append(c)
    return DeterminingSystem(ext, tuple(xi_names), tuple(phi_names),
                             tuple(eqs), split_t)


@dataclass(frozen=True)
class Ansatz:
    """Total-degree-bounded polynomial forms for the unknown coefficients."""

    degree: int


def _monomials(atoms: Sequence[Expr], degree: int) -> list[tuple[tuple[int, ...], Expr]]:
    out = []
    n = len(atoms)
    for total in range(degree + 1):
        for exps in itertools.combinations_with_replacement(range(n), total):
            vec = [0] * n
            for k in exps:
                vec[k] += 1
            mono = mul(*(atoms[k] ** vec[k] for k in range(n))) if total else ONE
            out.append((tuple(vec), mono))
    return out


def solve_determining(ds: DeterminingSystem, ansatz: Ansatz) -> list[VectorField]:
    """Kernel basis of the linear system the ansatz coefficients satisfy,
    instantiated as vector fields.  Deterministic: parameters are ordered by
    declaration, the kernel is RREF-canonical, and each basis vector is scaled
    so its first nonzero coordinate is 1.

    Each unknown F is the sum over its monomials m_k of c_k*m_k, so a
    derivative D(F) is a fixed linear map from the c_k to base monomials.
    Rows are assembled from those maps, tabulated once per derivative, one row
    per (equation, base monomial).  Raises :class:`NotPolynomial` when a term
    that survives instantiation is not polynomial in the base variables or
    not linear homogeneous in the c_k.
    """
    ctx = ds.ctx
    base_atoms = tuple(Var(i + 1) for i in range(ctx.p)) + tuple(
        Jet(a + 1, ()) for a in range(ctx.q)
    )
    base_slot = {a: i for i, a in enumerate(base_atoms)}
    width = len(base_atoms)
    # name -> (first column, argument atoms, [(exponent vector, monomial)])
    unknowns: dict[str, tuple[int, tuple[Expr, ...], list]] = {}
    ncols = 0
    for name in tuple(ds.xi_names) + tuple(ds.phi_names):
        args = ctx.unknown_arg_atoms(name)
        monos = _monomials(args, ansatz.degree)
        unknowns[name] = (ncols, args, monos)
        ncols += len(monos)

    tables: dict[tuple[str, tuple[int, ...]], list] = {}

    def table(u: UFunc) -> list[tuple[int, int, tuple[int, ...]]]:
        """(column, integer coefficient, base exponents) of the derivative
        of each ansatz monomial of u's function that u's derivative does not
        annihilate; a falling factorial per argument gives the coefficient."""
        key = (u.name, u.deriv)
        got = tables.get(key)
        if got is None:
            first, args, monos = unknowns[u.name]
            if len(args) != len(u.args):
                raise UnknownSymbol(f"arity mismatch for unknown function {u.name!r}")
            counts = [u.deriv.count(j) for j in range(len(args))]
            got = []
            for k, (vec, _) in enumerate(monos):
                if all(e >= d for e, d in zip(vec, counts)):
                    exps = [0] * width
                    for a, e, d in zip(args, vec, counts):
                        exps[base_slot[a]] += e - d
                    got.append((first + k, math.prod(map(math.perm, vec, counts)),
                                tuple(exps)))
            tables[key] = got
        return got

    def mentions_unknown(f: Expr) -> bool:
        return any(isinstance(a, UFunc) and a.name in unknowns
                   for a in atoms_of(f))

    rows: list[dict[int, Fraction]] = []
    for eq in ds.equations:
        ex = expand(eq)
        # (base exponents, other factors) -> {column: coefficient}
        acc: dict[tuple, dict[int, Fraction]] = {}
        nonlinear = False
        params: set[str] = set()     # system parameters in surviving terms
        for t in (ex.terms if isinstance(ex, Add) else (ex,)):
            c, fs = _split(t)
            if c == 0:
                continue
            exps = [0] * width
            found: list[tuple[UFunc, Fraction]] = []
            rest: list[Expr] = []
            for f in fs:
                b, e = _base_exp(f)
                slot = base_slot.get(b)
                if slot is not None:
                    exps[slot] += e
                elif isinstance(b, UFunc) and b.name in unknowns:
                    found.append((b, e))
                else:
                    rest.append(f)
            if len(found) != 1 or found[0][1] != 1 or any(map(mentions_unknown, rest)):
                # nonlinear or inhomogeneous: harmless only when the ansatz
                # annihilates one of its unknown factors
                if not any(e > 0 and not table(u) for u, e in found):
                    nonlinear = True
                continue
            rest_t = tuple(rest)
            for col, a, mexps in table(found[0][0]):
                key = (tuple(map(operator.add, exps, mexps)), rest_t)
                row = acc.setdefault(key, {})
                row[col] = row.get(col, 0) + c * a
        for (exps, rest_t), row in acc.items():
            row = {k: v for k, v in row.items() if v}
            if not row:
                continue
            for b, e in zip(base_atoms, exps):
                if e < 0 or e.denominator != 1:
                    raise NotPolynomial(
                        f"variable {b!r} occurs with non-polynomial exponent {e}"
                    )
            for f in rest_t:
                if any(contains(f, v) for v in base_atoms):
                    raise NotPolynomial(
                        f"variable occurs inside non-polynomial factor {f!r}"
                    )
            if rest_t:
                nonlinear = True
                params.update(a.name for f in rest_t for a in atoms_of(f)
                              if isinstance(a, Param))
            rows.append(row)
        if nonlinear:
            why = ("determining equation is not linear homogeneous in the "
                   "ansatz parameters")
            if params:
                word = "parameter" if len(params) == 1 else "parameters"
                why += (f" (system {word} in the coefficients: "
                        f"{', '.join(sorted(params))})")
            raise NotPolynomial(why)

    kernel = ratla.kernel_basis(ratla.RatMatrix.from_sparse(rows, ncols))

    def instantiate(name: str, vec: list[Fraction]) -> Expr:
        first, _, monos = unknowns[name]
        return add(*(mul(Const(vec[first + k]), mono)
                     for k, (_, mono) in enumerate(monos) if vec[first + k]))

    out = []
    for vec in kernel:
        lead = next((x for x in vec if x != 0), None)
        if lead is not None and lead != 1:
            vec = [x / lead for x in vec]
        xi = tuple(instantiate(n, vec) for n in ds.xi_names)
        phi = tuple(instantiate(n, vec) for n in ds.phi_names)
        out.append(VectorField(ctx, xi, phi))
    return out


def verify_lie_closure(basis: Sequence[VectorField], sys: DiffSystem) -> bool:
    for i, v in enumerate(basis):
        for w in basis[i + 1:]:
            if not check_symmetry(lie_bracket(v, w), sys):
                return False
    return True


def rank_probe(sys: DiffSystem, samples: Sequence[Mapping[Expr, Fraction]]) -> bool:
    """Exact Jacobian rank of the residuals at sample jet points.

    Atoms absent from a sample default to 0.  Samples must satisfy every
    equation exactly.
    """
    residuals = sys.residuals()
    variables: list[Expr] = []
    seen = set()
    for r in residuals:
        for a in atoms_of(r):
            if isinstance(a, (Var, Jet)) and a not in seen:
                seen.add(a)
                variables.append(a)
    variables.sort(key=lambda a: (0, a.index, ()) if isinstance(a, Var)
                   else (1, a.dep, a.idx))
    grads = [[g.get(v, ZERO) for v in variables] for g in map(partials, residuals)]
    for sample in samples:
        env = dict(sample)
        def val(e: Expr) -> Fraction:
            full = {a: env.get(a, Fraction(0)) for a in atoms_of(e)}
            full.update({k: v for k, v in env.items()})
            return evaluate(e, full)
        for r in residuals:
            if val(r) != 0:
                raise InvalidSample("sample does not satisfy the system")
        m = ratla.RatMatrix.from_rows(
            [[val(g) for g in row] for row in grads]
        )
        if ratla.rank(m) != len(residuals):
            return False
    return True
