"""Shared fixtures: contexts, seeded RNG, and random expression generators."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

import liesym as ls
from liesym._distributed import _EXPAND_POW_CAP, _ODD, _SUM, _cap_error, _drop_zeros, _num
from liesym.detsys import (
    DeterminingSystem,
    DiffSystem,
    _exponents,
    _printed,
    generic_vector_field,
    symmetry_defect,
)
from liesym.errors import EvaluationError, NotPolynomial, UnknownSymbol
from liesym.expr import (
    ONE,
    ZERO,
    Add,
    Const,
    Expr,
    Func,
    Jet,
    Mul,
    Param,
    Pow,
    UFunc,
    Var,
    _Q1,
    _coerce,
    _factor_order,
    _rat_power,
    _term,
    _term_order,
    add,
    collect,
    expand,
    func,
    jets_of,
    mul,
    neg,
    pow_,
    subterms,
)

SEED = 20260825


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def ctx_xu():
    """One independent (x) and one dependent (u) variable."""
    return ls.Context(("x",), ("u",))


@pytest.fixture
def ctx_heat():
    return ls.Context(("x", "t"), ("u",))


@pytest.fixture
def ctx_xy():
    """Two independent variables, one dependent."""
    return ls.Context(("x", "y"), ("u",))


@pytest.fixture
def ctx_wave():
    return ls.Context(("x", "t"), ("u", "v"))


@pytest.fixture
def heat_system(ctx_heat):
    return ls.DiffSystem(
        ctx_heat, ((ls.Jet(1, (2,)), ls.Jet(1, (1, 1))),)
    )


@pytest.fixture
def rotation(ctx_xu):
    """v = -u d/dx + x d/du."""
    return ls.VectorField(
        ctx_xu, (ls.neg(ls.Jet(1, ())),), (ls.Var(1),)
    )


def base_exp(f):
    """(base, exponent) of a product factor: the helper liesym.expr had
    before its readers took the monomials of the expand kernel, kept for
    the reference implementations in the tests."""
    if isinstance(f, ls.Pow):
        return f.base, f.exp
    return f, Fraction(1)


def split_term(e):
    """(rational coefficient, unit factor tuple) of a term: the helper
    liesym.expr had before the solver built each ansatz monomial's factors
    directly, kept for the reference implementations in the tests."""
    if isinstance(e, Const):
        return e.value, ()
    if isinstance(e, Mul):
        return e.coeff, e.factors
    return _Q1, (e,)


def ref_monomials(atoms, degree):
    """(exponent vector, monomial) of every ansatz monomial: the helper
    liesym.detsys had before solve_determining built monomials only for the
    nonzero entries of its basis, kept verbatim (as ``_monomials``) for the
    reference implementations in the tests."""
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


# ``liesym.expr.add`` and ``mul`` as they were before they kept input nodes
# that they would rebuild equal, kept verbatim but for their names (the
# recursive call included): the constructors must build the same trees node
# for node.  The helpers they call are the library's own.
def ref_add(*args) -> Expr:
    acc: dict[tuple[Expr, ...], Fraction] = {}
    stack = [_coerce(a) for a in args]
    for a in stack:
        terms = a.terms if isinstance(a, Add) else (a,)
        for t in terms:
            c, fs = split_term(t)
            prev = acc.get(fs)
            acc[fs] = c if prev is None else prev + c
    out = [_term(c, fs) for fs, c in acc.items() if c]
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_term_order)
    return Add(tuple(out))


def ref_mul(*args) -> Expr:
    coeff = _Q1
    bases: dict[Expr, Fraction] = {}
    work = [_coerce(a) for a in reversed(args)]
    while work:
        a = work.pop()
        if isinstance(a, Const):
            v = a.value
            if not v:
                return ZERO
            coeff = v if coeff is _Q1 and type(v) is Fraction else coeff * v
            continue
        if isinstance(a, Mul):
            coeff = a.coeff if coeff is _Q1 else coeff * a.coeff
            work.extend(reversed(a.factors))
            continue
        b, e = (a.base, a.exp) if isinstance(a, Pow) else (a, _Q1)
        prev = bases.get(b)
        bases[b] = e if prev is None else prev + e
    factors: list[Expr] = []
    products: list[Expr] = []
    for b, e in bases.items():
        if not e:
            continue
        f = b if e is _Q1 else pow_(b, e)
        if isinstance(f, Const):
            coeff *= f.value
        elif isinstance(f, Mul) or base_exp(f)[0] != b:
            # a power or product base whose fractional powers summed to an
            # integer, folded to other bases
            products.append(f)
        else:
            factors.append(f)
    if products:
        return ref_mul(Const(coeff), *factors, *products)
    if len(factors) > 1:
        factors.sort(key=_factor_order)
    return _term(coeff, tuple(factors))


# ``liesym.expr``'s recursive walkers as they were before one memoized map
# (``_map``) took their place, kept verbatim but for their names (the
# recursive calls included): ``normalize``, ``substitute`` and ``evaluate``
# must give what they gave, node for node, value for value and error for
# error.  They walk a shared subtree again at each use.
def ref_rebuild(e: Expr, f, *args) -> Expr:
    """Apply ``f(child, *args)`` to every child of ``e`` and rebuild the node
    through the constructors; atoms without children come back unchanged."""
    # map, unlike a comprehension, adds no Python frame per tree level
    fixed = [itertools.repeat(a) for a in args]
    if isinstance(e, Add):
        return add(*map(f, e.terms, *fixed))
    if isinstance(e, Mul):
        return mul(Const(e.coeff), *map(f, e.factors, *fixed))
    if isinstance(e, Pow):
        return pow_(f(e.base, *args), e.exp)
    if isinstance(e, Func):
        return func(e.fname, f(e.arg, *args))
    if isinstance(e, UFunc):
        return UFunc(e.name, tuple(map(f, e.args, *fixed)), e.deriv)
    return e


def ref_normalize(e: Expr) -> Expr:
    """Canonicalize a tree built from the raw node dataclasses (idempotent).

    Trees built by the constructors are canonical already and come back equal.
    """
    return ref_rebuild(e, ref_normalize)


def ref_subst(e: Expr, b) -> Expr:
    hit = b.get(e)
    if hit is not None:
        return _coerce(hit)
    return ref_rebuild(e, ref_subst, b)


def ref_evaluate(e: Expr, env) -> Fraction:
    """Evaluate to an exact rational under an atom assignment."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, Jet, Param, UFunc)):
        try:
            return Fraction(env[e])
        except KeyError:
            raise EvaluationError(f"no value assigned to {e!r}") from None
    if isinstance(e, Add):
        return sum((ref_evaluate(t, env) for t in e.terms), Fraction(0))
    if isinstance(e, Mul):
        out = e.coeff
        for f in e.factors:
            out *= ref_evaluate(f, env)
        return out
    if isinstance(e, Pow):
        b = ref_evaluate(e.base, env)
        if b == 0 and e.exp < 0:
            raise EvaluationError("division by zero during evaluation")
        r = _rat_power(b, e.exp, EvaluationError)
        if r is None:
            raise EvaluationError(f"{b} has no exact rational root of order {e.exp.denominator}")
        return r
    if isinstance(e, Func):
        raise EvaluationError(f"cannot evaluate {e.fname} exactly")
    raise TypeError(type(e))


def same_tree(a, b) -> bool:
    """Node for node: equal, the same ``repr`` (which shows the type of every
    exponent and coefficient), and the same type of every constant's value.
    The trees must be small enough that ``repr`` writes them whole."""
    def const_types(e):
        return [type(s.value) for s in subterms(e) if isinstance(s, Const)]
    text = repr(a)
    assert len(text) <= ls.expr._REPR_BUDGET, "repr cut: compare smaller trees"
    return a == b and text == repr(b) and const_types(a) == const_types(b)


def rand_rational(rng, lo=-4, hi=4):
    num = rng.randint(lo, hi)
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def jumbled(m: ls.RatMatrix, rng) -> ls.RatMatrix:
    """The rows of ``m`` in a random order, each scaled by a random nonzero
    rational (negated about half the time) and about a third of them twice:
    a matrix with the row space, and so the kernel, of ``m``."""
    rows = []
    for row in m.data:
        for _ in range(rng.choice((1, 1, 2))):
            k = rng.choice((1, -1, 2, -3, Fraction(1, 5), Fraction(-7, 2)))
            rows.append(tuple((j, k * x) for j, x in row))
    rng.shuffle(rows)
    return ls.RatMatrix(len(rows), m.cols, tuple(rows))


def rand_poly(rng, atoms, degree=2, terms=3):
    """Random polynomial in the given atoms with small rational coefficients."""
    parts = []
    for _ in range(terms):
        factors = [ls.Const(rand_rational(rng))]
        for _ in range(rng.randint(0, degree)):
            factors.append(rng.choice(atoms))
        parts.append(ls.mul(*factors))
    return ls.add(*parts)


def rand_expr(rng, atoms, depth=3):
    """Random expression tree including powers and elementary functions."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return ls.Const(rand_rational(rng))
        return rng.choice(atoms)
    op = rng.randrange(4)
    if op == 0:
        return ls.add(rand_expr(rng, atoms, depth - 1),
                      rand_expr(rng, atoms, depth - 1))
    if op == 1:
        return ls.mul(rand_expr(rng, atoms, depth - 1),
                      rand_expr(rng, atoms, depth - 1))
    if op == 2:
        exp = rng.choice([Fraction(2), Fraction(3), Fraction(-1),
                          Fraction(-2), Fraction(1, 2), Fraction(3, 2)])
        base = rand_expr(rng, atoms, depth - 1)
        if base == ls.Const(Fraction(0)) and exp < 0:
            base = ls.add(base, 1)
        return ls.pow_(base, exp)
    name = rng.choice(("exp", "log", "sin", "cos"))
    arg = rand_expr(rng, atoms, depth - 1)
    if name == "log" and arg == ls.Const(Fraction(0)):
        arg = ls.add(arg, 1)
    return ls.func(name, arg)


def rand_point_vf(rng, ctx, degree=2):
    """Random polynomial point vector field on the given context."""
    atoms = [ls.Var(i + 1) for i in range(ctx.p)]
    atoms += [ls.Jet(a + 1, ()) for a in range(ctx.q)]
    xi = tuple(rand_poly(rng, atoms, degree) for _ in range(ctx.p))
    phi = tuple(rand_poly(rng, atoms, degree) for _ in range(ctx.q))
    return ls.VectorField(ctx, xi, phi)


def ref_determining_equations(sys: DiffSystem,
                              xi_names: Sequence[str] | None = None,
                              phi_names: Sequence[str] | None = None,
                              order_cap: int | None = None) -> DeterminingSystem:
    """``liesym.detsys.determining_equations`` as it was before polynomial
    systems took the differential polynomial ring: every system on the tree
    path.  Kept verbatim (as ``determining_equations``) for the reference
    comparisons in the tests."""
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
        try:
            coeffs = collect(d, split_t)
        except NotPolynomial as exc:
            raise _printed(exc, ext) from None
        for coeff in coeffs.values():
            # the negation of an expand fixed point is a fixed point too
            c = expand(coeff)
            if c != ZERO and c not in seen and neg(c) not in seen:
                seen.add(c)
                eqs.append(c)
    return DeterminingSystem(ext, tuple(xi_names), tuple(phi_names),
                             tuple(eqs), split_t)


def ref_derivative_table(ds, ansatz):
    """The derivative table of ``liesym.detsys.solve_determining`` as it was
    before it enumerated only the monomials a derivative leaves: its setup
    of the unknowns and its ``table`` kept verbatim, for the reference
    comparisons in the tests."""
    ctx = ds.ctx
    base_atoms = tuple(Var(i + 1) for i in range(ctx.p)) + tuple(
        Jet(a + 1, ()) for a in range(ctx.q)
    )
    base_slot = {a: i for i, a in enumerate(base_atoms)}
    width = len(base_atoms)
    names = tuple(ds.xi_names) + tuple(ds.phi_names)
    argss = [ctx.unknown_arg_atoms(name) for name in names]
    # name -> (first column, argument atoms, [monomial exponent vector])
    unknowns: dict[str, tuple[int, tuple[Expr, ...], list]] = {}
    first = 0
    for name, args in zip(names, argss):
        vecs = _exponents(len(args), ansatz.degree)
        unknowns[name] = (first, args, vecs)
        first += len(vecs)

    tables: dict[tuple[str, tuple[int, ...]], list] = {}

    def table(u: UFunc) -> list[tuple[int, int, tuple[int, ...]]]:
        """(column, integer coefficient, base exponents) of the derivative
        of each ansatz monomial of u's function that u's derivative does not
        annihilate; a falling factorial per argument gives the coefficient."""
        key = (u.name, u.deriv)
        got = tables.get(key)
        if got is None:
            first, args, vecs = unknowns[u.name]
            if len(args) != len(u.args):
                raise UnknownSymbol(f"arity mismatch for unknown function {u.name!r}")
            counts = [u.deriv.count(j) for j in range(len(args))]
            got = []
            for k, vec in enumerate(vecs):
                if all(e >= d for e, d in zip(vec, counts)):
                    exps = [0] * width
                    for a, e, d in zip(args, vec, counts):
                        exps[base_slot[a]] += e - d
                    got.append((first + k, math.prod(map(math.perm, vec, counts)),
                                tuple(exps)))
            tables[key] = got
        return got

    return table


# ``liesym._distributed._Poly.times`` and ``_product`` as they were before
# monomials multiplied by one merge of their sorted pairs: a dict per pair of
# terms, then a sort, and the single-term factors of a product chained
# through 1x1 products.  Kept verbatim but for taking the kernel ``k`` in
# place of ``self``, for the reference comparisons in the tests.
def ref_times(k, a: dict, b: dict) -> dict:
    kind = k.kind
    out: dict = {}
    zeros = []
    for ma, ca in a.items():
        da = dict(ma)
        for mb, cb in b.items():
            if not mb:
                m = ma
            elif not ma:
                m = mb
            else:
                d = da.copy()
                for g, e in mb:
                    p = d.get(g)
                    if p is None:
                        d[g] = e
                        continue
                    e = p + e
                    if type(e) is not int:
                        e = k.exp(e)
                    if e:
                        d[g] = e
                    else:
                        del d[g]
                    if kind[g] == _ODD or (e == 1 and kind[g] == _SUM):
                        k.stirred = True
                m = tuple(sorted(d.items()))
            c = ca * cb
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            p = out.get(m)
            if p is None:
                out[m] = c
            else:
                out[m] = c = p + c
                if not c:
                    zeros.append(m)
    return _drop_zeros(out, zeros)


def ref_product(k, e: Mul) -> dict:
    parts = [k.expand_once(f) for f in e.factors]
    if not all(parts):
        return {}
    kind = k.kind
    k.stirred = False
    acc = {(): _num(e.coeff)}
    sums = []
    for part in parts:
        if len(part) > 1:
            sums.append(part)
            continue
        ((m, c),) = part.items()
        if any(kind[g] == _SUM and type(n) is int and n > 0 for g, n in m):
            rest = []
            for g, n in m:
                if kind[g] == _SUM and type(n) is int and n > 0:
                    if n > _EXPAND_POW_CAP:
                        raise _cap_error("power of a sum with exponent", n)
                    sums.append(k.sum_power(g, n))
                else:
                    rest.append((g, n))
            part = {tuple(rest): c}
        acc = ref_times(k, acc, part)
    for part in sorted(sums, key=len):
        acc = ref_times(k, acc, part)
    return k.settle(acc) if k.stirred else acc
