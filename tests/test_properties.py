"""Seeded algebraic property suites, all checked exactly."""
import random

import pytest

import liesym as ls
from liesym import Jet, Var

from conftest import SEED, rand_expr, rand_point_vf, rand_poly

x = Var(1)
u = Jet(1, ())


@pytest.fixture
def rng():
    return random.Random(SEED + 1)


def test_normalize_idempotent(rng):
    atoms = [x, Var(2), u, Jet(1, (1,)), Jet(1, (1, 2)), ls.Param("c")]
    for _ in range(300):
        e = rand_expr(rng, atoms)
        assert ls.normalize(e) == e


def test_total_derivatives_commute(rng):
    atoms = [x, Var(2), u, Jet(1, (1,)), Jet(1, (2,)), Jet(1, (1, 2))]
    for _ in range(60):
        e = rand_poly(rng, atoms, degree=3)
        d12 = ls.total_derivative(ls.total_derivative(e, 1), 2)
        d21 = ls.total_derivative(ls.total_derivative(e, 2), 1)
        assert ls.is_zero(ls.sub(d12, d21))


def test_prolongation_linearity(rng, ctx_xy):
    for _ in range(25):
        v = rand_point_vf(rng, ctx_xy)
        w = rand_point_vf(rng, ctx_xy)
        a = ls.Const(rng.randint(-3, 3))
        left = ls.prolong(v.scale(a).plus(w), 2)
        pv, pw = ls.prolong(v, 2), ls.prolong(w, 2)
        for j, c in left.coeffs.items():
            assert ls.is_zero(ls.sub(c, ls.add(ls.mul(a, pv.coeffs[j]),
                                               pw.coeffs[j])))


def test_prolongation_bracket_compatibility(rng, ctx_xy):
    for _ in range(8):
        v = rand_point_vf(rng, ctx_xy, degree=1)
        w = rand_point_vf(rng, ctx_xy, degree=1)
        pb = ls.prolong(ls.lie_bracket(v, w), 2)
        pv = ls.prolong(v, 3)
        pw = ls.prolong(w, 3)
        for j in pb.coeffs:
            comm = ls.sub(ls.apply_prolonged(pv, ls.apply_prolonged(pw, j)),
                          ls.apply_prolonged(pw, ls.apply_prolonged(pv, j)))
            assert ls.is_zero(ls.sub(pb.coeffs[j], comm))


def test_evolutionary_decomposition(rng, ctx_xu):
    # pr v(L) = pr v_Q(L) + sum_i xi^i D_i L
    for _ in range(30):
        v = rand_point_vf(rng, ctx_xu)
        n = rng.randint(1, 2)
        atoms = [x, u] + [Jet(1, (1,) * k) for k in range(1, n + 1)]
        L = rand_poly(rng, atoms, degree=2)
        lhs = ls.apply_prolonged(ls.prolong(v, n), L)
        q = ls.characteristic_of(v)
        rhs = ls.add(ls.apply_prolonged(ls.evolutionary_prolong(q, n + 1), L),
                     ls.mul(v.xi[0], ls.total_derivative(L, 1)))
        assert ls.is_zero(ls.sub(lhs, rhs))


def test_derivative_of_invariant_lemma(rng, ctx_xu):
    # pr^(n+1) v (D_x z) = D_x(pr^(n) v (z)) - (D_x xi) (D_x z)
    for _ in range(30):
        v = rand_point_vf(rng, ctx_xu)
        n = rng.randint(1, 2)
        atoms = [x, u] + [Jet(1, (1,) * k) for k in range(1, n + 1)]
        z = rand_poly(rng, atoms)
        dz = ls.total_derivative(z, 1)
        lhs = ls.apply_prolonged(ls.prolong(v, n + 1), dz)
        rhs = ls.sub(
            ls.total_derivative(ls.apply_prolonged(ls.prolong(v, n), z), 1),
            ls.mul(ls.total_derivative(v.xi[0], 1), dz))
        assert ls.is_zero(ls.sub(lhs, rhs))


def test_heat_basis_closes_under_bracket(heat_system):
    from test_detsys import heat_basis
    basis = heat_basis(heat_system.ctx)
    pairs = [(v, w) for i, v in enumerate(basis) for w in basis[i + 1:]]
    assert len(pairs) == 15
    for v, w in pairs:
        assert ls.check_symmetry(ls.lie_bracket(v, w), heat_system)
