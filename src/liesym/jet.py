"""Jet-space calculus.

Total derivatives and total divergence, prolongation of point vector fields
(closed formula and level-by-level recursion), characteristics, evolutionary
representatives, and the coordinate Lie bracket.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import ArityError, OrderError
from .expr import (
    Context,
    Expr,
    Jet,
    Var,
    ZERO,
    _partials,
    add,
    jet_order,
    mul,
    neg,
    partials,
    sub,
)


def multi_indices(p: int, k: int) -> list[tuple[int, ...]]:
    """All sorted multi-indices of order k over indices 1..p."""
    return [tuple(c) for c in itertools.combinations_with_replacement(range(1, p + 1), k)]


def total_derivative(e: Expr, i: int) -> Expr:
    """D_i e: differentiate treating dependent variables as functions of x.

    D_i e = de/dx^i + sum_J u_{J,i} de/du_J, with every partial derivative
    taken from one :func:`partials` pass over ``e``.  The sum runs over every
    jet coordinate present in the expression (including order-0 jets inside
    unknown-function arguments), so unknown functions pick up their u-slot
    terms automatically.  The prolongations derive every D_i of one
    expression from that same pass (see :func:`evolutionary_prolong`).
    """
    return _total_derivative(partials(e), i)


def _total_derivative(grads: dict[Expr, Expr], i: int) -> Expr:
    """D_i of the expression whose partial derivatives are ``grads``."""
    parts = [grads.get(Var(i), ZERO)]
    for j, d in grads.items():
        if isinstance(j, Jet):
            parts.append(mul(Jet(j.dep, j.idx + (i,)), d))
    return add(*parts)


def total_derivative_multi(e: Expr, idx: Iterable[int]) -> Expr:
    """D_K e for the indices K in ``idx``, applied in order; the partials
    walks along the chain share one memo, so a subtree that recurs in a
    later derivative is walked once."""
    memo: dict = {}
    out = e
    for i in idx:
        out = _total_derivative(_partials(out, memo), i)
    return out


def total_divergence(f: Sequence[Expr], p: int | None = None) -> Expr:
    if p is not None and len(f) != p:
        raise ArityError(f"current has {len(f)} components, expected {p}")
    return add(*(total_derivative(fi, i + 1) for i, fi in enumerate(f)))


def _dj_table(e: Expr, p: int, n: int, memo: dict,
              rest: Callable[[tuple[int, ...], int], Iterable[Expr]] | None = None
              ) -> dict[tuple[int, ...], Expr]:
    """The prefix table {J: D_J e} over the sorted multi-indices J of order
    0..n in 1..p, built level by level as D_{J,i} = D_i(D_J) plus, when
    given, the terms ``rest(J, i)``.  Each prefix D_J is walked by
    :func:`partials` once, with ``memo``, and D_i for every i from J's last
    index to p is read off that one dict.  Keys come in the order of
    :func:`multi_indices`, level by level."""
    table: dict[tuple[int, ...], Expr] = {(): e}
    for k in range(n):
        for prev in multi_indices(p, k):
            grads = _partials(table[prev], memo)
            for i in range(prev[-1] if prev else 1, p + 1):
                d = _total_derivative(grads, i)
                table[prev + (i,)] = d if rest is None else add(d, *rest(prev, i))
    return table


@dataclass(frozen=True)
class VectorField:
    """Point vector field v = sum xi^i d/dx^i + sum phi_a d/du^a."""

    ctx: Context
    xi: tuple[Expr, ...]
    phi: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(self.xi))
        object.__setattr__(self, "phi", tuple(self.phi))
        if len(self.xi) != self.ctx.p or len(self.phi) != self.ctx.q:
            raise ArityError("coefficient counts do not match the context")
        for e in self.xi + self.phi:
            if jet_order(e) > 0:
                raise OrderError(
                    "point vector field coefficients must have jet order 0"
                )

    def apply0(self, f: Expr) -> Expr:
        """Action on an order-0 expression (no prolongation)."""
        if jet_order(f) > 0:
            raise OrderError("expression must have jet order 0")
        grads = partials(f)
        parts = [mul(x, grads.get(Var(i + 1), ZERO)) for i, x in enumerate(self.xi)]
        parts += [
            mul(p, grads.get(Jet(a + 1, ()), ZERO)) for a, p in enumerate(self.phi)
        ]
        return add(*parts)

    def scale(self, c) -> "VectorField":
        return VectorField(
            self.ctx,
            tuple(mul(c, x) for x in self.xi),
            tuple(mul(c, p) for p in self.phi),
        )

    def plus(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.ctx,
            tuple(add(a, b) for a, b in zip(self.xi, other.xi)),
            tuple(add(a, b) for a, b in zip(self.phi, other.phi)),
        )


@dataclass(frozen=True)
class Characteristic:
    """Q_a = phi_a - sum_i xi^i u^a_i; entries have jet order at most 1."""

    ctx: Context
    q: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        if len(self.q) != self.ctx.q:
            raise ArityError("characteristic length does not match the context")
        for e in self.q:
            if jet_order(e) > 1:
                raise OrderError("characteristic entries must have jet order <= 1")


@dataclass(frozen=True)
class ProlongedVectorField:
    """Lift of a vector field to the order-n jet space.

    ``phi`` holds the order-0 coefficients and ``coeffs`` maps every jet
    coordinate of order 1..n to its coefficient.
    """

    ctx: Context
    order: int
    xi: tuple[Expr, ...]
    phi: tuple[Expr, ...]
    coeffs: dict[Jet, Expr] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 0:
            raise OrderError(f"prolongation order {self.order} is negative")

    def coeff(self, j: Jet) -> Expr:
        if j.order == 0:
            return self.phi[j.dep - 1]
        return self.coeffs[j]

    def __call__(self, e: Expr) -> Expr:
        return apply_prolonged(self, e)


def characteristic_of(v: VectorField) -> Characteristic:
    q = tuple(
        sub(v.phi[a], add(*(mul(v.xi[i], Jet(a + 1, (i + 1,))) for i in range(v.ctx.p))))
        for a in range(v.ctx.q)
    )
    return Characteristic(v.ctx, q)


def prolong(v: VectorField, n: int) -> ProlongedVectorField:
    """Closed-formula prolongation.

    The order-J coefficient is D_J(Q_a) + sum_i xi^i u^a_{J,i} with Q the
    characteristic; the D_J(Q_a) are those of :func:`evolutionary_prolong`.
    """
    ctx = v.ctx
    dq = evolutionary_prolong(characteristic_of(v), n).coeffs
    coeffs = {
        j: add(d, *(mul(v.xi[i], Jet(j.dep, j.idx + (i + 1,))) for i in range(ctx.p)))
        for j, d in dq.items()
    }
    return ProlongedVectorField(ctx, n, v.xi, v.phi, coeffs)


def prolong_recursive(v: VectorField, n: int) -> ProlongedVectorField:
    """Level-by-level prolongation via the recursion
    phi^{J,k} = D_k phi^J - sum_i D_k xi^i * u^a_{J,i}.

    The phi^J of each component form a prefix table (see
    :func:`evolutionary_prolong`): each phi^J is walked by :func:`partials`
    once for all its D_k, and one memo serves the whole call."""
    ctx = v.ctx
    memo: dict = {}
    dxi = {}
    for i in range(ctx.p):
        grads = _partials(v.xi[i], memo)
        for k in range(1, ctx.p + 1):
            dxi[(i, k)] = _total_derivative(grads, k)
    coeffs: dict[Jet, Expr] = {}
    for a in range(ctx.q):
        def rest(prev, last, dep=a + 1):
            return (neg(mul(dxi[(i, last)], Jet(dep, prev + (i + 1,))))
                    for i in range(ctx.p))
        level = _dj_table(v.phi[a], ctx.p, n, memo, rest)
        coeffs.update((Jet(a + 1, idx), val) for idx, val in level.items() if idx)
    return ProlongedVectorField(ctx, n, v.xi, v.phi, coeffs)


def evolutionary_prolong(q: Characteristic, n: int) -> ProlongedVectorField:
    """pr v_Q = sum_{a,J} D_J Q_a d/du^a_J, with zero horizontal part.

    The D_J Q_a of each component form a prefix table: D_{J,i} = D_i(D_J Q_a),
    where each D_J Q_a is walked by :func:`partials` once and D_i for every
    i from J's last index on is read off that one dict.  One memo serves the
    whole call, so a subtree that recurs across levels and components is
    differentiated once; it dies with the call."""
    ctx = q.ctx
    memo: dict = {}
    coeffs: dict[Jet, Expr] = {}
    for a in range(ctx.q):
        dq = _dj_table(q.q[a], ctx.p, n, memo)
        coeffs.update((Jet(a + 1, idx), d) for idx, d in dq.items() if idx)
    zero_xi = (ZERO,) * ctx.p
    return ProlongedVectorField(ctx, n, zero_xi, q.q, coeffs)


def apply_prolonged(pv: ProlongedVectorField, e: Expr) -> Expr:
    if jet_order(e) > pv.order:
        raise OrderError(
            f"expression has jet order {jet_order(e)} > prolongation order {pv.order}"
        )
    grads = partials(e)
    parts = [mul(x, grads.get(Var(i + 1), ZERO)) for i, x in enumerate(pv.xi)]
    parts += [mul(p, grads.get(Jet(a + 1, ()), ZERO)) for a, p in enumerate(pv.phi)]
    for j, d in grads.items():
        if isinstance(j, Jet) and j.order >= 1:
            parts.append(mul(pv.coeffs[j], d))
    return add(*parts)


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Coordinate bracket [v, w]; each slot is v(w^k) - w(v^k)."""
    ctx = v.ctx
    xi = tuple(sub(v.apply0(w.xi[i]), w.apply0(v.xi[i])) for i in range(ctx.p))
    phi = tuple(sub(v.apply0(w.phi[a]), w.apply0(v.phi[a])) for a in range(ctx.q))
    return VectorField(ctx, xi, phi)
