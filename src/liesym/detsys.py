"""Differential systems in solved form: reduction, symmetry criteria,
determining equations, and their solution under a polynomial ansatz."""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import ratla
from ._diffring import _Fallback, ring_determining
from ._distributed import _ANSATZ_COLUMN_CAP, _Poly, _cap_error
from .errors import (
    LiesymError,
    NotPolynomial,
    NotSolvedForm,
    OrderCapExceeded,
    UnknownSymbol,
)
from .expr import (
    Context,
    Expr,
    Jet,
    ONE,
    Param,
    UFunc,
    Var,
    ZERO,
    _split,
    _term,
    _term_order,
    add,
    atoms_of,
    collect,
    contains,
    expand,
    is_zero,
    jet_order,
    jets_of,
    mul,
    neg,
    sub,
    substitute,
)
from .jet import (
    VectorField,
    _prolonged_action,
    lie_bracket,
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


@dataclass(frozen=True)
class DiffSystem:
    """Equations oriented as lead = rhs, enabling terminating rewriting.

    Jets are ranked lexicographically on their index-count vectors with the
    highest independent-variable index most significant; every jet appearing
    in a right-hand side must rank strictly below the corresponding lead;
    the error names the first jet that does not, in canonical order
    (dependent variable, order, multi-index).
    """

    ctx: Context
    equations: tuple[tuple[Jet, Expr], ...]

    def __post_init__(self):
        eqs = tuple((lead, e) for lead, e in self.equations)
        if not eqs:
            raise NotSolvedForm("a system needs at least one equation")
        object.__setattr__(self, "equations", eqs)
        leads = [lead for lead, _ in eqs]
        if len(set(leads)) != len(leads):
            raise NotSolvedForm("leading derivatives must be distinct")
        p = self.ctx.p
        for lead, rhs in eqs:
            lk = _rank_key(lead, p)
            for j in jets_of(rhs):
                if _rank_key(j, p) >= lk:
                    raise _printed(NotSolvedForm(
                        "right-hand side contains {} which does not rank "
                        "below the lead {}", j, lead
                    ), self.ctx)

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
    if j.dep != lead.dep:
        return None
    extra = list(j.idx)
    for i in lead.idx:
        if i not in extra:
            return None
        extra.remove(i)
    return tuple(extra)


def _reduction(j: Jet, sys: DiffSystem) -> tuple[int, tuple[int, ...]] | None:
    """(equation number, K) of the first lead with j = D_K(lead), or None."""
    for n, (lead, _) in enumerate(sys.equations):
        extra = _reducible_by(j, lead)
        if extra is not None:
            return n, extra
    return None


def _order_cap(sys: DiffSystem, order_cap: int | None) -> int:
    return order_cap if order_cap is not None else sys.order + 4


def reduce_mod_system(e: Expr, sys: DiffSystem, order_cap: int | None = None) -> Expr:
    """Eliminate every lead derivative and all its prolongations from ``e``.

    Each round scans the jets of ``e``, from the highest down in canonical
    order, and replaces every reducible jet D_K(lead) by D_K(rhs), until
    none remains.  Every node keeps its total derivatives, so D_x(rhs) is
    built once for u_tx, u_txx, ..., in this call and any later one.
    ``order_cap`` bounds the jet order any replacement may reach (default:
    system order + 4); the error names the first jet of the scan whose
    replacement passes it.
    """
    cap = _order_cap(sys, order_cap)
    while True:
        bindings: dict[Expr, Expr] = {}
        for j in reversed(jets_of(e)):
            hit = _reduction(j, sys)
            if hit is None:
                continue
            n, extra = hit
            repl = total_derivative_multi(sys.equations[n][1], extra)
            if jet_order(repl) > cap:
                raise _printed(OrderCapExceeded(
                    f"reducing {{}} needs jets beyond order {cap}", j), sys.ctx)
            bindings[j] = repl
        if not bindings:
            return e
        e = substitute(e, bindings)


def symmetry_defect(v: VectorField, sys: DiffSystem,
                    order_cap: int | None = None) -> list[Expr]:
    """Prolonged action on each residual, reduced modulo the system.

    The action is that of ``prolong(v, sys.order)``, lifted only to the jets
    the residuals read.
    """
    return [reduce_mod_system(d, sys, order_cap)
            for d in _prolonged_action(v, sys.order, sys.residuals())]


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


def _printed(exc, ctx: Context):
    """``exc`` with its expressions written in the declared names."""
    # parse imports this module, so the printer is looked up at call time
    from .parse import format_expr
    return exc.printed(lambda e: format_expr(e, ctx))


def determining_equations(sys: DiffSystem,
                          xi_names: Sequence[str] | None = None,
                          phi_names: Sequence[str] | None = None,
                          order_cap: int | None = None) -> DeterminingSystem:
    """Split the symmetry criterion for a generic vector field over jet
    monomials of order >= 1; the coefficient of each monomial must vanish.

    A polynomial system takes the differential polynomial ring of
    ``liesym._diffring`` (its docstring says which systems do), where the
    defects are ``{monomial: coefficient}`` dicts, deduplicated as dicts,
    and only the returned equations are built as trees.  Any other system (a
    function such as ``exp(u)``, a negative or fractional power), and any
    system whose reduction would pass the order cap, takes the tree path:
    :func:`symmetry_defect`, then :func:`~liesym.expr.collect` of each
    defect.  Both give the same equations, splitting variables and errors,
    node for node: each defect's coefficients in ``collect``'s order, each
    equation once up to sign, with the sign seen first.
    """
    ctx = sys.ctx
    if xi_names is None:
        xi_names = [f"xi{i+1}" if ctx.p > 1 else "xi" for i in range(ctx.p)]
    if phi_names is None:
        phi_names = [f"phi{a+1}" if ctx.q > 1 else "phi" for a in range(ctx.q)]
    ext, v = generic_vector_field(ctx, xi_names, phi_names)
    ext_sys = DiffSystem(ext, sys.equations)
    try:
        split, eqs = ring_determining(ext_sys, v.xi, v.phi,
                                      _order_cap(sys, order_cap),
                                      lambda j: _reduction(j, ext_sys))
    except _Fallback:
        defects = symmetry_defect(v, ext_sys, order_cap)
        split = {j for d in defects for j in jets_of(d) if j.order >= 1}
        try:
            eqs = _distinct(expand(c) for d in defects
                            for c in collect(d, split).values())
        except NotPolynomial as exc:
            raise _printed(exc, ext) from None
    split_t = tuple(sorted(split, key=_term_order))
    return DeterminingSystem(ext, tuple(xi_names), tuple(phi_names), eqs, split_t)


def _distinct(coeffs) -> tuple[Expr, ...]:
    """The nonzero ``coeffs``, each once up to sign, with the sign seen
    first."""
    eqs: list[Expr] = []
    seen: set[Expr] = set()
    for c in coeffs:
        # the negation of an expand fixed point is a fixed point too
        if c != ZERO and c not in seen and neg(c) not in seen:
            seen.add(c)
            eqs.append(c)
    return tuple(eqs)


@dataclass(frozen=True)
class Ansatz:
    """Total-degree-bounded polynomial forms for the unknown coefficients."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise LiesymError("ansatz degree is negative")


def _exponents(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials of total degree <= ``degree`` in
    ``n`` atoms, by total degree."""
    out = []
    for total in range(degree + 1):
        for exps in itertools.combinations_with_replacement(range(n), total):
            vec = [0] * n
            for k in exps:
                vec[k] += 1
            out.append(tuple(vec))
    return out


def _monomial(atoms: Sequence[Expr], vec: tuple[int, ...]) -> Expr:
    """The product of ``atoms`` raised to the exponents ``vec``."""
    return mul(*(a ** e for a, e in zip(atoms, vec))) if any(vec) else ONE


def _columns(ds: DeterminingSystem, ansatz: Ansatz):
    """The ansatz columns of the unknowns of ``ds``: (slot of each base
    variable, {name: (first column, argument atoms, {monomial exponent
    vector: offset from the first column})}, column count, table).

    ``table(u)`` lists (column, integer coefficient, base exponents) of the
    derivative of each ansatz monomial of u's function that u's derivative
    does not annihilate, in column order, once per (name, derivative).  The
    surviving monomials are those of degree <= degree - |deriv| shifted by
    the derivative's counts; a falling factorial per argument gives the
    coefficient.
    """
    ctx, degree = ds.ctx, ansatz.degree
    base_atoms = tuple(Var(i + 1) for i in range(ctx.p)) + tuple(
        Jet(a + 1, ()) for a in range(ctx.q)
    )
    base_slot = {a: i for i, a in enumerate(base_atoms)}
    names = tuple(ds.xi_names) + tuple(ds.phi_names)
    argss = [ctx.unknown_arg_atoms(name) for name in names]
    ncols = sum(math.comb(len(args) + degree, degree) for args in argss)
    if ncols > _ANSATZ_COLUMN_CAP:
        raise _cap_error("ansatz parameter count", ncols,
                         f"the limit {_ANSATZ_COLUMN_CAP}", LiesymError)
    unknowns: dict[str, tuple[int, tuple[Expr, ...], dict]] = {}
    first = 0
    for name, args in zip(names, argss):
        index = {vec: k for k, vec in enumerate(_exponents(len(args), degree))}
        unknowns[name] = (first, args, index)
        first += len(index)

    tables: dict[tuple[str, tuple[int, ...]], list] = {}
    lows: dict[tuple, list] = {}    # (args, degree) -> [(vector, base exponents)]

    def table(u: UFunc) -> list[tuple[int, int, tuple[int, ...]]]:
        key = (u.name, u.deriv)
        got = tables.get(key)
        if got is None:
            first, args, index = unknowns[u.name]
            if len(args) != len(u.args):
                raise UnknownSymbol(f"arity mismatch for unknown function {u.name!r}")
            d = degree - len(u.deriv)
            low = lows.get((args, d))
            if low is None:
                low = lows[(args, d)] = []
                for vec in _exponents(len(args), d):
                    exps = [0] * len(base_slot)
                    for a, e in zip(args, vec):
                        exps[base_slot[a]] += e
                    low.append((vec, tuple(exps)))
            counts = [u.deriv.count(j) for j in range(len(args))]
            got = tables[key] = []
            for vec, exps in low:
                vec = tuple(map(operator.add, vec, counts))
                got.append((first + index[vec], math.prod(map(math.perm, vec, counts)),
                            exps))
        return got

    return base_slot, unknowns, ncols, table


def solve_determining(ds: DeterminingSystem, ansatz: Ansatz) -> list[VectorField]:
    """Kernel basis of the linear system the ansatz coefficients satisfy,
    instantiated as vector fields.  Deterministic: parameters are ordered by
    declaration, the kernel is RREF-canonical, and each basis vector is scaled
    so its first nonzero coordinate is 1.

    Each unknown F is the sum over its monomials m_k of c_k*m_k, so a
    derivative D(F) is a fixed linear map from the c_k to base monomials.
    Rows are assembled from those maps, tabulated once per derivative, one row
    per (equation, base monomial).  The kernel stays sparse from the RREF
    on, and each vector is instantiated through a column -> (unknown,
    monomial) table built once per solve, so that work follows the kernel's
    nonzeros rather than its dimension times the column count.  Raises
    :class:`NotPolynomial` when a term that survives instantiation is not
    polynomial in the base variables or not linear homogeneous in the c_k.
    """
    ctx = ds.ctx
    base_slot, unknowns, ncols, table = _columns(ds, ansatz)
    base_atoms = tuple(base_slot)
    width = len(base_atoms)
    k = _Poly()
    gens = k.gens

    rows: list[tuple[tuple[int, int | Fraction], ...]] = []
    for eq in ds.equations:
        poly = k.monomials(eq)
        # (base exponents, other (generator, exponent) pairs) -> row
        acc: dict[tuple, dict[int, int | Fraction]] = {}
        nonlinear = False
        params: set[str] = set()     # system parameters in surviving terms
        for m, c in poly.items():
            exps = [0] * width
            found, rest = [], []
            for g, e in m:
                b = gens[g]
                slot = base_slot.get(b)
                if slot is not None:
                    exps[slot] = e
                elif isinstance(b, UFunc) and b.name in unknowns:
                    found.append((b, e))
                else:
                    rest.append((g, e))
            if len(found) != 1 or found[0][1] != 1 or any(
                    isinstance(a, UFunc) and a.name in unknowns
                    for g, _ in rest for a in atoms_of(gens[g])):
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
            row = tuple(sorted((col, v) for col, v in row.items() if v))
            if not row:
                continue
            for b, e in zip(base_atoms, exps):
                if e < 0 or e.denominator != 1:
                    raise _printed(NotPolynomial(
                        f"variable {{}} occurs with non-polynomial exponent {e}", b
                    ), ctx)
            bad = [p for p in rest_t
                   if any(contains(gens[p[0]], v) for v in base_atoms)]
            if bad:
                raise _printed(NotPolynomial(
                    "variable occurs inside non-polynomial factor {}",
                    k.product((k.first(bad),), 1)
                ), ctx)
            if rest_t:
                nonlinear = True
                params.update(a.name for g, _ in rest_t for a in atoms_of(gens[g])
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

    # column -> (unknown name, argument atoms, monomial exponent vector)
    owner: list[tuple] = [None] * ncols
    for name, (first, args, index) in unknowns.items():
        for exps, col in index.items():
            owner[first + col] = (name, args, exps)
    factors: dict[int, tuple] = {}      # column -> the monomial's factors

    out = []
    for vec in ratla._kernel(ratla.RatMatrix(len(rows), ncols, tuple(rows))):
        lead = next(iter(vec.values()))
        terms: dict[str, list] = {}
        for col, x in vec.items():
            name, args, exps = owner[col]
            fs = factors.get(col)
            if fs is None:
                fs = factors[col] = _split(_monomial(args, exps))[1]
            terms.setdefault(name, []).append(_term(x if lead == 1 else x / lead, fs))
        xi = tuple(add(*terms.get(n, ())) for n in ds.xi_names)
        phi = tuple(add(*terms.get(n, ())) for n in ds.phi_names)
        out.append(VectorField(ctx, xi, phi))
    return out


def verify_lie_closure(basis: Sequence[VectorField], sys: DiffSystem) -> bool:
    for i, v in enumerate(basis):
        for w in basis[i + 1:]:
            if not check_symmetry(lie_bracket(v, w), sys):
                return False
    return True
