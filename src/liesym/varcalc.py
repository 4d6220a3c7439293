"""Calculus of variations: Euler operator, Euler-Lagrange equations,
variational and divergence symmetry checks, first-order Noether currents.

Orientation note: the first-order current produced by
:func:`noether_current_first_order` satisfies Div F = (-Q) . E(L) for the
characteristic Q of the generating field; pass the negated characteristic to
:func:`verify_noether_identity`, which checks Div F = Q . E(L) literally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ArityError, NotASymmetry, OrderError
from .expr import (
    Context,
    Expr,
    Jet,
    ZERO,
    _partials,
    add,
    is_zero,
    jet_order,
    mul,
    neg,
    sub,
)
from .jet import (
    Characteristic,
    VectorField,
    _prolonged_action,
    multi_indices,
    total_derivative_multi,
    total_divergence,
)


@dataclass(frozen=True)
class Lagrangian:
    ctx: Context
    L: Expr

    @property
    def order(self) -> int:
        return jet_order(self.L)


@dataclass(frozen=True)
class ConservedCurrent:
    ctx: Context
    f: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.f) != self.ctx.p:
            raise ArityError(
                f"current has {len(self.f)} components, expected {self.ctx.p}"
            )


def euler_operator(lag: Lagrangian, alpha: int) -> Expr:
    """E_a(L) = sum_J (-D)_J dL/du^a_J, truncated at the order of L."""
    p = lag.ctx.p
    n = lag.order
    grads = _partials(lag.L)
    parts = []
    for k in range(n + 1):
        sign = (-1) ** k
        for idx in multi_indices(p, k):
            d = grads.get(Jet(alpha, idx))
            if d is not None:
                parts.append(mul(sign, total_derivative_multi(d, idx)))
    return add(*parts)


def euler_lagrange(lag: Lagrangian) -> list[Expr]:
    return [euler_operator(lag, a + 1) for a in range(lag.ctx.q)]


def variational_symmetry_defect(v: VectorField, lag: Lagrangian) -> Expr:
    """pr v(L) + L * Div(xi); zero iff v generates a variational symmetry.
    Only the coefficients of the jets L reads are built."""
    (action,) = _prolonged_action(v, max(lag.order, 1), [lag.L])
    return add(action, mul(lag.L, total_divergence(v.xi, lag.ctx.p)))


def divergence_symmetry_check(v: VectorField, lag: Lagrangian,
                              b: Sequence[Expr]) -> bool:
    if len(b) != lag.ctx.p:
        raise ArityError(f"B has {len(b)} components, expected {lag.ctx.p}")
    return is_zero(sub(variational_symmetry_defect(v, lag),
                       total_divergence(b, lag.ctx.p)))


def noether_current_first_order(v: VectorField, lag: Lagrangian,
                                b: Sequence[Expr] | None = None) -> ConservedCurrent:
    """Explicit first-order current
    F_i = sum_a phi_a dL/du^a_i + xi^i L - sum_{a,j} xi^j u^a_j dL/du^a_i - B_i."""
    ctx = lag.ctx
    if lag.order > 1:
        raise OrderError("explicit Noether currents require a first-order Lagrangian")
    if b is None:
        b = (ZERO,) * ctx.p
    if not divergence_symmetry_check(v, lag, b):
        raise NotASymmetry(
            "the defect of v is not the total divergence of the given B"
        )
    grads = _partials(lag.L)
    f = []
    for i in range(ctx.p):
        parts = [mul(v.xi[i], lag.L), neg(b[i])]
        for a in range(ctx.q):
            dl = grads.get(Jet(a + 1, (i + 1,)), ZERO)
            parts.append(mul(v.phi[a], dl))
            for j in range(ctx.p):
                parts.append(neg(mul(v.xi[j], Jet(a + 1, (j + 1,)), dl)))
        f.append(add(*parts))
    return ConservedCurrent(ctx, tuple(f))


def verify_noether_identity(current: ConservedCurrent, q: Characteristic,
                            lag: Lagrangian) -> bool:
    """Div F = sum_a Q_a E_a(L), checked identically (no reduction)."""
    rhs = add(*(mul(q.q[a], euler_operator(lag, a + 1))
                for a in range(lag.ctx.q)))
    return is_zero(sub(total_divergence(current.f, lag.ctx.p), rhs))
