"""Jet calculus: total derivatives, prolongation, characteristics, brackets."""
from fractions import Fraction

import pytest

import liesym as ls
from liesym import Jet, Param, UFunc, Var

from conftest import rand_expr, rand_point_vf, rand_poly, rand_rational

x = Var(1)
u = Jet(1, ())
ux = Jet(1, (1,))
uxx = Jet(1, (1, 1))


def ref_total_derivative(e, i):
    """D_i e with one single-variable diff per jet in e: the reference the
    one-pass total derivative must equal node for node."""
    parts = [ls.diff(e, Var(i))]
    for j in sorted(ls.jets_of(e), key=lambda j: (j.dep, j.idx)):
        d = ls.diff(e, j)
        if d != ls.Const(0):
            parts.append(ls.mul(Jet(j.dep, j.idx + (i,)), d))
    return ls.add(*parts)


class TestTotalDerivative:
    def test_leibniz(self):
        got = ls.total_derivative(ls.mul(x, ux), 1)
        assert got == ls.add(ux, ls.mul(x, uxx))

    def test_unknown_function_chain_rule(self):
        ctx = ls.Context(("x", "t"), ("u",), (), (("phi", ("x", "t", "u")),))
        phi = ctx.ufunc("phi")
        got = ls.total_derivative(phi, 2)
        expect = ls.add(ctx.ufunc("phi", "t"),
                        ls.mul(Jet(1, (2,)), ctx.ufunc("phi", "u")))
        assert got == expect

    def test_mixed_partials_commute_on_jets(self):
        uy = Jet(1, (2,))
        got = ls.sub(ls.total_derivative(uy, 1), ls.total_derivative(ux, 2))
        assert ls.is_zero(got)

    def test_commutation_random(self, rng):
        ctx_atoms = [x, Var(2), u, ux, Jet(1, (2,)), Jet(1, (1, 2)), uxx]
        for _ in range(40):
            e = rand_poly(rng, ctx_atoms, degree=3)
            d12 = ls.total_derivative(ls.total_derivative(e, 1), 2)
            d21 = ls.total_derivative(ls.total_derivative(e, 2), 1)
            assert ls.is_zero(ls.sub(d12, d21))

    def test_no_jets_reduces_to_partial(self, rng):
        for _ in range(20):
            e = rand_poly(rng, [x, Var(2)], degree=3)
            assert ls.is_zero(ls.sub(ls.total_derivative(e, 1),
                                     ls.diff(e, x)))

    def test_multi_order_independent(self):
        e = ls.add(x, ls.mul(u, ux))
        a = ls.total_derivative_multi(e, (1, 2))
        b = ls.total_derivative_multi(e, (2, 1))
        assert a == b

    def test_multi_on_u(self):
        assert ls.total_derivative_multi(u, (1, 1)) == uxx

    def test_matches_per_jet_reference(self, rng):
        t, v = Var(2), Jet(2, ())
        args = (x, t, u, v)
        atoms = [x, t, u, v, ux, Jet(1, (1, 2)), Jet(2, (2,)), Param("c"),
                 UFunc("phi", args), UFunc("phi", args, (2, 3)),
                 UFunc("G", (u, ls.add(x, Jet(2, (1,)))))]
        for _ in range(200):
            e = rand_expr(rng, atoms, depth=4)
            for i in (1, 2):
                try:
                    ref = ref_total_derivative(e, i)
                except ls.DegenerateExpression:
                    with pytest.raises(ls.DegenerateExpression):
                        ls.total_derivative(e, i)
                    continue
                assert ls.total_derivative(e, i) == ref


class TestTotalDivergence:
    def test_null_divergence_pair(self):
        uy = Jet(1, (2,))
        assert ls.total_divergence((uy, ls.neg(ux)), 2) == ls.Const(Fraction(0))

    def test_gradient(self):
        uy = Jet(1, (2,))
        got = ls.total_divergence((ux, uy), 2)
        assert got == ls.add(uxx, Jet(1, (2, 2)))

    def test_arity(self):
        with pytest.raises(ls.ArityError):
            ls.total_divergence((u,), 2)


class TestProlong:
    def test_rotation_first_order(self, rotation):
        pv = ls.prolong(rotation, 1)
        assert pv.coeffs[ux] == ls.add(1, ls.pow_(ux, 2))

    def test_rotation_second_order(self, rotation):
        pv = ls.prolong(rotation, 2)
        assert pv.coeffs[uxx] == ls.mul(3, ux, uxx)

    def test_scaling_second_order(self, ctx_xu):
        v = ls.VectorField(ctx_xu, (x,), (u,))
        pv = ls.prolong(v, 2)
        assert pv.coeffs[ux] == ls.Const(0)
        assert pv.coeffs[uxx] == ls.neg(uxx)

    def test_translation_all_zero(self, ctx_xu):
        v = ls.VectorField(ctx_xu, (ls.Const(1),), (ls.Const(0),))
        pv = ls.prolong(v, 3)
        assert all(c == ls.Const(0) for c in pv.coeffs.values())

    def test_recursion_agrees(self, rotation):
        a = ls.prolong(rotation, 2)
        b = ls.prolong_recursive(rotation, 2)
        assert a.coeffs == b.coeffs

    def test_recursion_agrees_random(self, rng):
        for _ in range(50):
            p = rng.randint(1, 2)
            q = rng.randint(1, 2)
            ctx = ls.Context(tuple("xy"[:p]), tuple("uv"[:q]))
            v = rand_point_vf(rng, ctx)
            n = rng.randint(1, 3)
            a = ls.prolong(v, n)
            b = ls.prolong_recursive(v, n)
            assert set(a.coeffs) == set(b.coeffs)
            for j in a.coeffs:
                assert ls.is_zero(ls.sub(a.coeffs[j], b.coeffs[j]))

    def test_linearity(self, rng, ctx_xy):
        for _ in range(20):
            v = rand_point_vf(rng, ctx_xy)
            w = rand_point_vf(rng, ctx_xy)
            a = rand_rational(rng)
            left = ls.prolong(v.scale(a).plus(w), 2)
            for j, c in left.coeffs.items():
                rhs = ls.add(ls.mul(a, ls.prolong(v, 2).coeffs[j]),
                             ls.prolong(w, 2).coeffs[j])
                assert ls.is_zero(ls.sub(c, rhs))

    def test_order0_coeff_is_phi(self, rotation):
        pv = ls.prolong(rotation, 1)
        assert pv.phi == rotation.phi


class TestCharacteristic:
    def test_rotation(self, rotation):
        q = ls.characteristic_of(rotation)
        assert q.q == (ls.add(x, ls.mul(u, ux)),)

    def test_traveling_wave(self, ctx_heat):
        c = ls.Const(3)
        v = ls.VectorField(ctx_heat, (c, ls.Const(1)), (ls.Const(0),))
        q = ls.characteristic_of(v)
        ut = Jet(1, (2,))
        assert q.q == (ls.sub(ls.neg(ut), ls.mul(3, ux)),)

    def test_vertical_field(self, ctx_xu):
        phi = ls.mul(x, u)
        v = ls.VectorField(ctx_xu, (ls.Const(0),), (phi,))
        assert ls.characteristic_of(v).q == (phi,)


class TestEvolutionary:
    def test_simple(self, ctx_xu):
        q = ls.Characteristic(ctx_xu, (ux,))
        pv = ls.evolutionary_prolong(q, 1)
        assert pv.phi == (ux,)
        assert pv.coeffs[ux] == uxx

    def test_zero(self, ctx_xu):
        q = ls.Characteristic(ctx_xu, (ls.Const(0),))
        pv = ls.evolutionary_prolong(q, 2)
        assert all(c == ls.Const(0) for c in pv.coeffs.values())

    def test_decomposition_identity(self, rng, ctx_xu):
        # pr v(L) = pr v_Q(L) + sum_i xi^i D_i L
        for _ in range(25):
            v = rand_point_vf(rng, ctx_xu)
            n = rng.randint(1, 2)
            atoms = [x, u] + [Jet(1, (1,) * k) for k in range(1, n + 1)]
            L = rand_poly(rng, atoms, degree=2)
            lhs = ls.apply_prolonged(ls.prolong(v, n), L)
            q = ls.characteristic_of(v)
            rhs = ls.add(
                ls.apply_prolonged(ls.evolutionary_prolong(q, n + 1), L),
                ls.mul(v.xi[0], ls.total_derivative(L, 1)),
            )
            assert ls.is_zero(ls.sub(lhs, rhs))


class TestApplyProlonged:
    def test_rotation_on_uxx(self, rotation):
        pv = ls.prolong(rotation, 2)
        assert ls.apply_prolonged(pv, uxx) == ls.mul(3, ux, uxx)

    def test_rotation_on_curvature(self, rotation):
        kappa = ls.mul(uxx, ls.pow_(ls.add(1, ls.pow_(ux, 2)),
                                    Fraction(-3, 2)))
        got = ls.apply_prolonged(ls.prolong(rotation, 2), kappa)
        assert ls.is_zero(got)

    def test_rotation_on_first_order_ode(self, rotation):
        p = ls.add(ls.mul(ls.sub(u, x), ux), u, x)
        got = ls.apply_prolonged(ls.prolong(rotation, 1), p)
        assert ls.is_zero(ls.sub(got, ls.mul(ux, p)))

    def test_order_exceeded(self, rotation):
        with pytest.raises(ls.OrderError):
            ls.apply_prolonged(ls.prolong(rotation, 1), uxx)


class TestLieBracket:
    def test_translation_scaling(self, ctx_xu):
        v = ls.VectorField(ctx_xu, (ls.Const(1),), (ls.Const(0),))
        w = ls.VectorField(ctx_xu, (x,), (ls.Const(0),))
        b = ls.lie_bracket(v, w)
        assert b.xi == (ls.Const(1),) and b.phi == (ls.Const(0),)

    def test_antisymmetry(self, rng, ctx_xy):
        for _ in range(10):
            v = rand_point_vf(rng, ctx_xy)
            b = ls.lie_bracket(v, v)
            assert all(e == ls.Const(0) for e in b.xi + b.phi)

    def test_heat_generators(self, ctx_heat):
        t = Var(2)
        v1 = ls.VectorField(ctx_heat, (ls.Const(1), ls.Const(0)), (ls.Const(0),))
        v5 = ls.VectorField(ctx_heat, (ls.mul(2, t), ls.Const(0)),
                            (ls.neg(ls.mul(x, u)),))
        b = ls.lie_bracket(v1, v5)
        assert b.xi == (ls.Const(0), ls.Const(0))
        assert b.phi == (ls.neg(u),)

    def test_prolongation_bracket_compatibility(self, rng, ctx_xy):
        # coefficients of pr [v, w] equal the commutator action on each jet
        for _ in range(10):
            v = rand_point_vf(rng, ctx_xy, degree=1)
            w = rand_point_vf(rng, ctx_xy, degree=1)
            n = 2
            pb = ls.prolong(ls.lie_bracket(v, w), n)
            pv = ls.prolong(v, n + 1)
            pw = ls.prolong(w, n + 1)
            for j in pb.coeffs:
                comm = ls.sub(
                    ls.apply_prolonged(pv, ls.apply_prolonged(pw, j)),
                    ls.apply_prolonged(pw, ls.apply_prolonged(pv, j)),
                )
                assert ls.is_zero(ls.sub(pb.coeffs[j], comm))
