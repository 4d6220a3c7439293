"""Solved-form systems: reduction, symmetry checks, determining equations,
linear solving, rank probing."""
import time
from fractions import Fraction

import pytest

import liesym as ls
from liesym import Ansatz, DiffSystem, Jet, Var

from conftest import rand_poly

x = Var(1)
t = Var(2)
u = Jet(1, ())
ux = Jet(1, (1,))
ut = Jet(1, (2,))
uxx = Jet(1, (1, 1))

# fixed expressions for the heat equation's six point-symmetry generators
def heat_basis(ctx):
    zero, one = ls.Const(0), ls.Const(1)
    return [
        ls.VectorField(ctx, (one, zero), (zero,)),
        ls.VectorField(ctx, (zero, one), (zero,)),
        ls.VectorField(ctx, (zero, zero), (u,)),
        ls.VectorField(ctx, (x, ls.mul(2, t)), (zero,)),
        ls.VectorField(ctx, (ls.mul(2, t), zero), (ls.neg(ls.mul(x, u)),)),
        ls.VectorField(ctx, (ls.mul(4, t, x), ls.mul(4, t, t)),
                       (ls.neg(ls.mul(ls.add(ls.pow_(x, 2), ls.mul(2, t)), u)),)),
    ]


class TestDiffSystem:
    def test_heat_order(self, heat_system):
        assert heat_system.order == 2

    def test_residuals(self, heat_system):
        assert heat_system.residuals() == [ls.sub(ut, uxx)]

    def test_not_solved_form(self, ctx_heat):
        # right side outranks the lead
        with pytest.raises(ls.NotSolvedForm):
            DiffSystem(ctx_heat, ((uxx, ut),))

    def test_lead_in_rhs_rejected(self, ctx_heat):
        with pytest.raises(ls.NotSolvedForm):
            DiffSystem(ctx_heat, ((ut, ls.mul(u, ut)),))

    def test_wave_as_first_order_system(self, ctx_wave):
        vx = Jet(2, (1,))
        vt = Jet(2, (2,))
        sys_ = DiffSystem(ctx_wave, ((ut, vx), (vt, ux)))
        assert sys_.order == 1


class TestReduce:
    def test_heat_second_time_derivative(self, heat_system):
        # u_tt -> u_xxxx through two replacements
        utt = Jet(1, (2, 2))
        got = ls.reduce_mod_system(utt, heat_system)
        assert got == Jet(1, (1, 1, 1, 1))

    def test_mixed_derivative(self, heat_system):
        uxt = Jet(1, (1, 2))
        assert ls.reduce_mod_system(uxt, heat_system) == Jet(1, (1, 1, 1))

    def test_fixed_point(self, heat_system):
        e = ls.add(ls.mul(u, ux), uxx)
        assert ls.reduce_mod_system(e, heat_system) == e

    def test_additive(self, rng, heat_system):
        atoms = [x, t, u, ux, ut, uxx, Jet(1, (1, 2)), Jet(1, (2, 2))]
        for _ in range(25):
            a = rand_poly(rng, atoms)
            b = rand_poly(rng, atoms)
            lhs = ls.reduce_mod_system(ls.add(a, b), heat_system)
            rhs = ls.add(ls.reduce_mod_system(a, heat_system),
                         ls.reduce_mod_system(b, heat_system))
            assert ls.is_zero(ls.sub(lhs, rhs))

    def test_order_cap(self, heat_system):
        big = Jet(1, (2,) * 4)     # reduces to order 8, beyond cap 6
        with pytest.raises(ls.OrderCapExceeded):
            ls.reduce_mod_system(big, heat_system)
        assert ls.reduce_mod_system(big, heat_system, order_cap=8) == \
            Jet(1, (1,) * 8)


class TestCheckSymmetry:
    def test_heat_basis(self, heat_system):
        for v in heat_basis(heat_system.ctx):
            assert ls.check_symmetry(v, heat_system)

    def test_non_symmetry(self, heat_system):
        v = ls.VectorField(heat_system.ctx, (u, ls.Const(0)), (ls.Const(0),))
        assert not ls.check_symmetry(v, heat_system)

    def test_defect_of_galilean(self, heat_system):
        # v5 acting on u_t - u_xx gives a multiple of the residual itself
        v5 = heat_basis(heat_system.ctx)[4]
        pv = ls.prolong(v5, 2)
        raw = ls.apply_prolonged(pv, ls.sub(ut, uxx))
        assert ls.is_zero(ls.sub(raw, ls.mul(-1, x, ls.sub(ut, uxx))))


class TestDeterminingEquations:
    @pytest.fixture
    def heat_det(self, heat_system):
        return ls.determining_equations(heat_system,
                                        xi_names=("xi", "tau"),
                                        phi_names=("phi",))

    def test_count(self, heat_det):
        # ten coefficient rows, one identically zero, so nine survive
        assert len(heat_det.equations) == 9

    def test_table_rows(self, heat_det):
        ctx = heat_det.ctx
        uf = ctx.ufunc
        expected = [
            ls.mul(-2, uf("tau", "u")),                                   # u_x u_xt
            ls.mul(-2, uf("tau", "x")),                                   # u_xt
            ls.neg(uf("tau", "u", "u")),                                  # u_x^2 u_xx
            ls.sub(ls.mul(-2, uf("tau", "x", "u")),
                   ls.mul(2, uf("xi", "u"))),                             # u_x u_xx
            ls.sub(ls.sub(uf("tau", "t"), uf("tau", "x", "x")),
                   ls.mul(2, uf("xi", "x"))),                             # u_xx
            ls.neg(uf("xi", "u", "u")),                                   # u_x^3
            ls.sub(uf("phi", "u", "u"), ls.mul(2, uf("xi", "x", "u"))),   # u_x^2
            ls.add(uf("xi", "t"),
                   ls.sub(ls.mul(2, uf("phi", "x", "u")), uf("xi", "x", "x"))),  # u_x
            ls.sub(uf("phi", "t"), uf("phi", "x", "x")),                  # 1
        ]
        for e in expected:
            assert any(
                ls.is_zero(ls.sub(e, q)) or ls.is_zero(ls.add(e, q))
                for q in heat_det.equations
            ), e

    def test_trivial_row_dropped(self, heat_det):
        # coefficient of u_xx^2 vanishes identically and is not reported
        assert all(not ls.is_zero(q) for q in heat_det.equations)

    def test_default_names(self, heat_system):
        ds = ls.determining_equations(heat_system)
        assert ds.xi_names == ("xi1", "xi2") and ds.phi_names == ("phi",)


class TestSolveDetermining:
    def test_heat_dimension_and_generators(self, heat_system):
        start = time.monotonic()
        ds = ls.determining_equations(heat_system,
                                      xi_names=("xi", "tau"),
                                      phi_names=("phi",))
        basis = ls.solve_determining(ds, Ansatz(3))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        assert len(basis) == 10
        for v in basis:
            assert ls.check_symmetry(v, heat_system)
        # the six classical generators lie in the span; quick spot check
        # that translations and the scaling field appear up to scale
        def present(target):
            return any(
                all(ls.is_zero(ls.sub(a, b))
                    for a, b in zip(v.xi + v.phi, target.xi + target.phi))
                for v in basis
            )
        ctx = ds.ctx
        v1 = ls.VectorField(ctx, (ls.Const(1), ls.Const(0)), (ls.Const(0),))
        assert present(v1)

    def test_soundness_random_combination(self, rng, heat_system):
        ds = ls.determining_equations(heat_system)
        basis = ls.solve_determining(ds, Ansatz(2))
        coeffs = [ls.Const(Fraction(rng.randint(-3, 3))) for _ in basis]
        comb = basis[0].scale(coeffs[0])
        for c, v in zip(coeffs[1:], basis[1:]):
            comb = comb.plus(v.scale(c))
        assert ls.check_symmetry(comb, heat_system)

    def test_dimension_monotone_in_degree(self, heat_system):
        ds = ls.determining_equations(heat_system)
        dims = [len(ls.solve_determining(ds, Ansatz(d))) for d in (1, 2, 3)]
        assert dims[0] <= dims[1] <= dims[2]
        assert dims[-1] == 10

    def test_ode_flow_field_found(self, ctx_xu):
        # for u_x = u^2 + x the flow direction d/dx + (u^2+x) d/du is the
        # unique symmetry with polynomial coefficients of degree <= 2
        sys_ = DiffSystem(ctx_xu, ((ux, ls.add(ls.pow_(u, 2), x)),))
        ds = ls.determining_equations(sys_)
        basis = ls.solve_determining(ds, Ansatz(2))
        assert len(basis) == 1
        v = basis[0]
        assert v.xi == (ls.Const(1),)
        assert ls.is_zero(ls.sub(v.phi[0], ls.add(ls.pow_(u, 2), x)))
        assert ls.check_symmetry(v, sys_)


class TestSolveDeterminingErrors:
    @staticmethod
    def determining(decl, rhs):
        prob = ls.parse_problem(f"indep x t\ndep u\n{decl}system s: u_t = {rhs}")
        return ls.determining_equations(prob.systems["s"])

    @pytest.mark.parametrize("decl,rhs,message", [
        ("", "u_xx/x", "non-polynomial exponent -1"),
        ("", "exp(u)*u_xx", "inside non-polynomial factor"),
        ("param nu\n", "nu*u_xx", "not linear homogeneous"),
        ("param nu\n", "nu*u_xx", "system parameter in the coefficients: nu"),
        ("param nu\n", "u_xx + nu*u", "system parameter in the coefficients: nu"),
        ("param a b\n", "a*b*u_xx", "system parameters in the coefficients: a, b"),
    ])
    def test_not_polynomial(self, decl, rhs, message):
        with pytest.raises(ls.NotPolynomial, match=message):
            ls.solve_determining(self.determining(decl, rhs), Ansatz(2))

    def test_term_vanishing_under_ansatz(self):
        # every term carrying nu also carries a derivative of a coefficient,
        # which a degree-0 ansatz annihilates, so no such term survives
        basis = ls.solve_determining(self.determining("param nu\n", "nu*u_xx"),
                                     Ansatz(0))
        assert len(basis) == 3


class TestLieClosure:
    def test_heat_basis(self, heat_system):
        assert ls.verify_lie_closure(heat_basis(heat_system.ctx), heat_system)

    def test_single_field(self, heat_system):
        assert ls.verify_lie_closure(heat_basis(heat_system.ctx)[:1],
                                     heat_system)

    def test_broken_collection(self, heat_system):
        bad = ls.VectorField(heat_system.ctx, (u, ls.Const(0)), (ls.Const(0),))
        fields = [heat_basis(heat_system.ctx)[4], bad]
        assert not ls.verify_lie_closure(fields, heat_system)


class TestRankProbe:
    def test_heat_constant_row(self, heat_system):
        sample = {ut: Fraction(1), uxx: Fraction(1)}
        assert ls.rank_probe(heat_system, [sample])

    def test_laplace_solved_form(self, ctx_xy):
        uyy = Jet(1, (2, 2))
        sys_ = DiffSystem(ctx_xy, ((uyy, ls.neg(uxx)),))
        samples = [
            {uyy: Fraction(-2), uxx: Fraction(2)},
            {uyy: Fraction(0), uxx: Fraction(0)},
        ]
        assert ls.rank_probe(sys_, samples)

    def test_off_variety_sample(self, heat_system):
        with pytest.raises(ls.InvalidSample):
            ls.rank_probe(heat_system, [{ut: Fraction(1), uxx: Fraction(0)}])

    def test_nonlinear_system(self, ctx_xu):
        sys_ = DiffSystem(ctx_xu, ((ux, ls.pow_(u, 2)),))
        assert ls.rank_probe(sys_, [{ux: Fraction(4), u: Fraction(2)}])
