"""Core expression engine: canonicalization, differentiation, substitution,
zero testing, collection, exact evaluation."""
from fractions import Fraction

import pytest

import liesym as ls
from liesym import Const, Jet, Param, Pow, UFunc, Var

from conftest import rand_expr, rand_poly, rand_rational

x = Var(1)
u = Jet(1, ())
ux = Jet(1, (1,))
uxx = Jet(1, (1, 1))


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
