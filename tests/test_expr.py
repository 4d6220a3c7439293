"""Core expression engine: canonicalization, differentiation, substitution,
zero testing, collection, exact evaluation."""
import pickle
from fractions import Fraction

import pytest

import liesym as ls
from liesym import Add, Const, Func, Jet, Mul, Param, Pow, UFunc, Var
from liesym.expr import ONE, ZERO, subterms

from conftest import rand_expr, rand_poly, rand_rational

x = Var(1)
u = Jet(1, ())
ux = Jet(1, (1,))
uxx = Jet(1, (1, 1))


def ref_diff(e, v):
    """Single-variable differentiation, one tree walk per variable: the
    reference that every partial derivative :func:`ls.partials` returns must
    equal node for node."""
    if e == v:
        return ONE
    if isinstance(e, (Const, Var, Jet, Param)):
        return ZERO
    if isinstance(e, UFunc):
        parts = [
            UFunc(e.name, e.args, e.deriv + (k,))
            for k, a in enumerate(e.args)
            if a == v
        ]
        return ls.add(*parts) if parts else ZERO
    if isinstance(e, Add):
        return ls.add(*(ref_diff(t, v) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(ls.mul(Const(e.coeff), ref_diff(f, v), *rest))
        return ls.add(*parts)
    if isinstance(e, Pow):
        return ls.mul(Const(e.exp), ls.pow_(e.base, e.exp - 1), ref_diff(e.base, v))
    if isinstance(e, Func):
        d = ref_diff(e.arg, v)
        if e.fname == "exp":
            outer = ls.func("exp", e.arg)
        elif e.fname == "log":
            outer = ls.pow_(e.arg, Fraction(-1))
        elif e.fname == "sin":
            outer = ls.func("cos", e.arg)
        else:
            outer = ls.neg(ls.func("sin", e.arg))
        return ls.mul(outer, d)
    raise TypeError(type(e))


class TestNormalize:
    def test_like_terms(self):
        assert ls.add(x, x) == ls.mul(2, x)

    def test_product_power_merge(self):
        assert ls.sub(ls.mul(ux, ux), ls.pow_(ux, 2)) == ls.Const(Fraction(0))
        # fractional powers of a product base that sum to an integer
        h = ls.pow_(ls.mul(2, x), Fraction(1, 2))
        assert ls.mul(h, h) == ls.mul(2, x)
        assert ls.mul(h, x, h) == ls.mul(2, ls.pow_(x, 2))

    def test_commutativity(self):
        a = ls.add(1, ls.pow_(ux, 2))
        b = ls.add(ls.pow_(ux, 2), 1)
        assert a == b

    def test_idempotent(self, rng):
        atoms = [x, u, ux, Param("c")]
        for _ in range(200):
            e = rand_expr(rng, atoms)
            assert ls.normalize(e) == e

    def test_zero_power_negative_exponent_rejected(self):
        with pytest.raises(ls.DegenerateExpression):
            ls.pow_(ls.Const(0), -1)

    def test_pow_folding(self):
        assert ls.pow_(x, 0) == ls.Const(1)
        assert ls.pow_(x, 1) == x
        assert ls.pow_(ls.Const(Fraction(4)), Fraction(1, 2)) == ls.Const(2)
        assert ls.pow_(ls.Const(Fraction(8, 27)), Fraction(2, 3)) == ls.Const(Fraction(4, 9))
        # no exact rational root: stays symbolic
        assert isinstance(ls.pow_(ls.Const(2), Fraction(1, 2)), Pow)
        # roots too large or too close for a float are still found exactly
        assert ls.pow_(ls.Const(10**400), Fraction(1, 2)) == ls.Const(10**200)
        n = 3**40 + 1
        assert ls.is_zero(ls.sub(ls.pow_(ls.Const(n * n), Fraction(1, 2)), n))
        assert ls.pow_(ls.Const(n**3), Fraction(2, 3)) == ls.Const(n**2)
        assert isinstance(ls.pow_(ls.Const(n**3 + 1), Fraction(1, 3)), Pow)

    def test_mul_zero_short_circuit(self):
        assert ls.mul(0, ux, ls.func("exp", x)) == ls.Const(0)


class TestDiff:
    def test_polynomial(self):
        e = ls.mul(ls.pow_(x, 2), u)
        assert ls.diff(e, x) == ls.mul(2, x, u)

    def test_jet_power(self):
        assert ls.diff(ls.pow_(ux, 2), ux) == ls.mul(2, ux)

    def test_jets_are_independent(self):
        assert ls.diff(ux, u) == ls.Const(0)
        assert ls.diff(u, ux) == ls.Const(0)

    def test_unknown_function_chain_rule(self):
        ctx = ls.Context(("x", "t"), ("u",), (), (("xi", ("x", "t", "u")),))
        xi = ctx.ufunc("xi")
        assert ls.diff(xi, u) == ctx.ufunc("xi", "u")
        assert ls.diff(ctx.ufunc("xi", "x"), u) == ctx.ufunc("xi", "x", "u")

    def test_elementary_functions(self):
        assert ls.diff(ls.func("sin", x), x) == ls.func("cos", x)
        assert ls.diff(ls.func("cos", x), x) == ls.neg(ls.func("sin", x))
        assert ls.diff(ls.func("exp", u), u) == ls.func("exp", u)
        assert ls.diff(ls.func("log", x), x) == ls.pow_(x, -1)

    def test_linearity_and_leibniz(self, rng):
        atoms = [x, u, ux]
        for _ in range(100):
            e1 = rand_poly(rng, atoms)
            e2 = rand_poly(rng, atoms)
            v = rng.choice(atoms)
            lhs = ls.diff(ls.mul(e1, e2), v)
            rhs = ls.add(ls.mul(ls.diff(e1, v), e2), ls.mul(e1, ls.diff(e2, v)))
            assert ls.is_zero(ls.sub(lhs, rhs))

    def test_undeclared_symbol(self):
        with pytest.raises(ls.UnknownSymbol):
            ls.diff(x, ls.func("sin", x))

    def test_compound_unknown_argument_has_no_chain_rule(self):
        g = UFunc("G", (u, ls.add(x, ux)))
        assert ls.diff(g, u) == UFunc("G", g.args, (0,))
        assert ls.diff(g, x) == ZERO
        assert ls.diff(g, ux) == ZERO
        assert ls.partials(g) == {u: UFunc("G", g.args, (0,))}


class TestPartials:
    c = Param("c")
    # unknown functions with a repeated argument atom and a compound argument
    F = UFunc("F", (x, x))
    G = UFunc("G", (u, ls.add(x, ux)), (1,))
    ATOMS = [x, u, ux, c, F, UFunc("F", (x, x), (1,)), G]

    def trees(self, rng, n):
        return [rand_expr(rng, self.ATOMS, depth=4) for _ in range(n)]

    def test_trees_cover_every_rule(self, rng):
        seen = set()
        for e in self.trees(rng, 300):
            for s in subterms(e):
                if isinstance(s, Mul) and s.coeff.denominator != 1:
                    seen.add("rational coeff")
                elif isinstance(s, Pow):
                    seen.add("negative exp" if s.exp < 0 else "positive exp")
                    if s.exp.denominator != 1:
                        seen.add("fractional exp")
                elif isinstance(s, Func):
                    seen.add(s.fname)
                elif isinstance(s, (Add, Param)):
                    seen.add(type(s).__name__)
                elif isinstance(s, UFunc):
                    seen.add(s.name)
        assert seen == {"rational coeff", "negative exp", "positive exp",
                        "fractional exp", "exp", "log", "sin", "cos",
                        "Add", "Param", "F", "G"}

    def test_matches_reference(self, rng):
        for e in self.trees(rng, 300):
            wrt = {a for a in ls.atoms_of(e) if isinstance(a, (Var, Jet, Param))}
            wrt |= {x, u, ux, self.c, uxx}
            try:
                ref = {v: ref_diff(e, v) for v in wrt}
            except ls.DegenerateExpression:
                # a log(0) subterm: every differentiation of e raises
                for v in wrt:
                    with pytest.raises(ls.DegenerateExpression):
                        ls.diff(e, v)
                with pytest.raises(ls.DegenerateExpression):
                    ls.partials(e)
                continue
            for v, d in ref.items():
                assert ls.diff(e, v) == d
            assert ls.partials(e) == {v: d for v, d in ref.items() if d != ZERO}

    def test_repeated_argument(self):
        # one term per matching argument slot
        assert ls.partials(ls.mul(3, self.F)) == {
            x: ls.add(ls.mul(3, UFunc("F", (x, x), (0,))),
                      ls.mul(3, UFunc("F", (x, x), (1,))))}

    def test_cancelling_partial_is_dropped(self):
        # d/du of u*x - x*(1 + u) cancels inside the sum rule
        e = ls.add(ls.mul(u, x), ls.mul(-1, x, ls.add(1, u)))
        assert ref_diff(e, u) == ZERO
        assert ls.partials(e) == {x: Const(-1)}
        assert ls.partials(Const(5)) == {}


class TestAddHash:
    def test_equal_sums_hash_equal(self):
        s1 = ls.add(x, u, ls.mul(2, ux))
        s2 = ls.add(ls.mul(2, ux), ls.add(u, x))
        s3 = ls.sub(ls.add(x, u, ux, ux, ux), ux)
        for s in (s2, s3):
            assert s == s1 and s is not s1
            assert hash(s) == hash(s1)
        for s in (s1, s2, s3):
            assert isinstance(s, Add)
            assert hash(s) == hash((s.terms,))
            assert s._hash == hash((s.terms,))       # filled on first use
            assert hash(ls.mul(2, ls.pow_(s, 3))) == hash(ls.mul(ls.pow_(s1, 3), 2))

    def test_repr_and_pickle_omit_cache(self):
        s = ls.add(x, u)
        hash(s)
        assert repr(s) == "Add(terms=(Var(index=1), Jet(dep=1, idx=())))"
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back._hash is None
        assert hash(back) == hash(s)


class TestSubstitute:
    def test_jet_replacement(self):
        ut = Jet(1, (2,))
        e = ls.add(ut, ux)
        assert ls.substitute(e, {ut: uxx}) == ls.add(uxx, ux)

    def test_to_zero(self):
        e = ls.add(ls.pow_(x, 2), ls.pow_(u, 2))
        assert ls.substitute(e, {x: ls.Const(0), u: ls.Const(0)}) == ls.Const(0)

    def test_homomorphism(self, rng):
        atoms = [x, u, ux]
        for _ in range(50):
            e1 = rand_poly(rng, atoms)
            e2 = rand_poly(rng, atoms)
            b = {u: rand_poly(rng, [x, ux])}
            lhs = ls.substitute(ls.mul(e1, e2), b)
            rhs = ls.mul(ls.substitute(e1, b), ls.substitute(e2, b))
            assert ls.is_zero(ls.sub(lhs, rhs))

    def test_bad_key(self):
        with pytest.raises(ls.UnknownSymbol):
            ls.substitute(x, {ls.add(x, u): u})


class TestIsZero:
    def test_cancellation(self):
        y = Jet(1, ())   # treat u as second coordinate of the plane
        e = ls.add(ls.mul(-2, x, y), ls.mul(2, x, y))
        assert ls.is_zero(e)

    def test_nonzero(self):
        assert not ls.is_zero(ux)

    def test_trig_identity_not_provable(self):
        e = ls.sub(ls.add(ls.pow_(ls.func("sin", x), 2),
                          ls.pow_(ls.func("cos", x), 2)), 1)
        assert not ls.is_zero(e)

    def test_rational_function_cancellation(self):
        s = ls.add(1, ls.pow_(ux, 2))
        e = ls.sub(ls.mul(uxx, ls.pow_(s, Fraction(-1, 2))),
                   ls.mul(uxx, s, ls.pow_(s, Fraction(-3, 2))))
        assert ls.is_zero(e)

    def test_random_sum_cancellation(self, rng):
        atoms = [x, u, ux, Param("c")]
        for _ in range(100):
            e1 = rand_expr(rng, atoms)
            e2 = rand_expr(rng, atoms)
            assert ls.is_zero(ls.sub(ls.add(e1, e2), ls.add(e2, e1)))


class TestCollect:
    def test_monomial_coefficients(self):
        ctx = ls.Context(("x", "t"), ("u",), (), (("tau", ("x", "t", "u")),
                                                  ("phi", ("x", "t", "u"))))
        uxt = Jet(1, (1, 2))
        e = ls.add(ls.mul(-2, ctx.ufunc("tau", "u"), ux, uxt),
                   ctx.ufunc("phi", "t"))
        got = ls.collect(e, [ux, uxt])
        assert got == {
            ls.mul(ux, uxt): ls.mul(-2, ctx.ufunc("tau", "u")),
            ls.Const(1): ctx.ufunc("phi", "t"),
        }

    def test_zero_is_empty(self):
        assert ls.collect(ls.Const(0), [ux]) == {}

    def test_square_expansion(self):
        got = ls.collect(ls.pow_(ls.add(ux, uxx), 2), [ux, uxx])
        assert got == {
            ls.pow_(ux, 2): ls.Const(1),
            ls.mul(ux, uxx): ls.Const(2),
            ls.pow_(uxx, 2): ls.Const(1),
        }

    def test_not_polynomial(self):
        with pytest.raises(ls.NotPolynomial):
            ls.collect(ls.pow_(ux, -1), [ux])
        with pytest.raises(ls.NotPolynomial):
            ls.collect(ls.func("sin", ux), [ux])

    def test_round_trip(self, rng):
        atoms = [x, u, ux]
        for _ in range(50):
            e = rand_poly(rng, atoms, degree=3, terms=4)
            got = ls.collect(e, [ux])
            back = ls.add(*(ls.mul(m, c) for m, c in got.items()))
            assert ls.is_zero(ls.sub(back, e))


class TestEvaluate:
    def test_numeric_consistency(self, rng):
        atoms = [x, u, ux]
        for _ in range(100):
            e = rand_poly(rng, atoms, degree=3, terms=4)
            env = {a: rand_rational(rng) for a in atoms}
            assert ls.evaluate(ls.normalize(e), env) == ls.evaluate(e, env)

    def test_missing_binding(self):
        with pytest.raises(ls.EvaluationError):
            ls.evaluate(x, {})

    def test_exact_root(self):
        e = ls.pow_(ls.add(x, 3), Fraction(1, 2))
        assert ls.evaluate(e, {x: Fraction(1)}) == 2
        with pytest.raises(ls.EvaluationError):
            ls.evaluate(e, {x: Fraction(2)})
        assert ls.evaluate(e, {x: Fraction(10**400 - 3)}) == 10**200


class TestExpand:
    def test_integer_power_of_sum(self):
        e = ls.pow_(ls.add(x, u), 2)
        ex = ls.expand(e)
        expect = ls.add(ls.pow_(x, 2), ls.mul(2, x, u), ls.pow_(u, 2))
        assert ex == expect

    def test_merge_shifted_powers(self):
        s = ls.add(1, ls.pow_(ux, 2))
        e = ls.add(ls.mul(x, ls.pow_(s, Fraction(-1, 2))),
                   ls.mul(u, ls.pow_(s, Fraction(-3, 2))))
        ex = ls.expand(e)
        # single common power of the sum base remains
        bases = {f.base for t in (ex.terms if isinstance(ex, ls.Add) else (ex,))
                 for f in (t.factors if isinstance(t, ls.Mul) else (t,))
                 if isinstance(f, Pow)}
        exps = {f.exp for t in (ex.terms if isinstance(ex, ls.Add) else (ex,))
                for f in (t.factors if isinstance(t, ls.Mul) else (t,))
                if isinstance(f, Pow) and isinstance(f.base, ls.Add)}
        assert exps == {Fraction(-3, 2)}
        # one round rewrites e but cannot confirm the result
        with pytest.raises(ls.SimplificationIncomplete):
            ls.expand(e, max_rounds=1)
