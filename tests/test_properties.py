"""Seeded algebraic property suites, all checked exactly."""
import pickle
import random

import pytest

import liesym as ls
from liesym import Jet, Var

from conftest import SEED, rand_expr, rand_point_vf, rand_poly, rand_rational

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


def rebuilt(e, rng):
    """An equal tree rebuilt through the constructors, its atoms through a
    pickle, with the children of every sum and product passed in shuffled
    order."""
    if isinstance(e, ls.Add):
        parts = [rebuilt(t, rng) for t in e.terms]
        rng.shuffle(parts)
        return ls.add(*parts)
    if isinstance(e, ls.Mul):
        parts = [ls.Const(e.coeff)] + [rebuilt(f, rng) for f in e.factors]
        rng.shuffle(parts)
        return ls.mul(*parts)
    if isinstance(e, ls.Pow):
        return ls.pow_(rebuilt(e.base, rng), e.exp)
    return pickle.loads(pickle.dumps(e))


def test_zero_test_soundness(rng):
    # is_zero(e) True must mean e vanishes identically, so it vanishes at
    # every sample point (Schwartz 1980); a canonical copy always cancels
    atoms = [x, Var(2), u, Jet(1, (1,)), ls.Param("c")]
    points = [{a: rand_rational(rng) for a in atoms} for _ in range(6)]
    confirmed = 0
    for _ in range(120):
        p, q = (rand_poly(rng, atoms, degree=3, terms=4) for _ in range(2))
        sums = (ls.add(p, q), ls.sub(p, q), ls.sub(p, p))
        products = (ls.mul(p, q),
                    ls.sub(ls.mul(p, q), ls.mul(q, p)),
                    ls.sub(ls.mul(ls.add(p, q), ls.sub(p, q)),
                           ls.sub(ls.mul(p, p), ls.mul(q, q))))
        for e in sums + products:
            if ls.is_zero(e):
                confirmed += 1
                assert all(ls.evaluate(e, pt) == 0 for pt in points)
            copy = rebuilt(e, rng)
            assert copy == e and ls.is_zero(ls.sub(e, copy))
    assert confirmed >= 3 * 120


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
