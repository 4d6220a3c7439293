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
    _Q1,
    _merge_term,
    _partials,
    _term_order,
    add,
    jet_order,
    jets_of,
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
            parts.append(_merge_term(_Q1, d, (Jet(j.dep, j.idx + (i,)),)))
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


def _prefix_closure(idxs: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The nonempty prefixes of the sorted multi-indices ``idxs``, those
    included, listed level by level in the order of :func:`multi_indices`."""
    closed = {idx[:k] for idx in idxs for k in range(1, len(idx) + 1)}
    return sorted(closed, key=lambda idx: (len(idx), idx))


def _dj_table(e: Expr, idxs: Iterable[tuple[int, ...]], memo: dict,
              rest: Callable[[tuple[int, ...], int], Iterable[Expr]] | None = None,
              table: dict[tuple[int, ...], Expr] | None = None
              ) -> dict[tuple[int, ...], Expr]:
    """The prefix table {J: D_J e} over the nonempty sorted multi-indices
    ``idxs``, a prefix-closed set listed level by level (as
    :func:`_prefix_closure` lists it), plus () for ``e`` itself.

    D_{J,i} is D_i(D_J) plus, when given, the terms ``rest(J, i)``.  Each
    prefix D_J with a requested child is walked by :func:`partials` once,
    with ``memo``, and only the requested D_i are read off that one dict.
    ``table``, when given, is a table of ``e`` to extend: its entries are
    kept, and only the missing ones are derived."""
    if table is None:
        table = {(): e}
    prev = grads = None
    for idx in idxs:
        if idx in table:
            continue
        if idx[:-1] != prev:
            prev = idx[:-1]
            grads = _partials(table[prev], memo)
        d = _total_derivative(grads, idx[-1])
        table[idx] = d if rest is None else add(d, *rest(prev, idx[-1]))
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
    pv = _prolong_for(v, n, _jets_read(exprs, n))
    return [apply_prolonged(pv, e) for e in exprs]


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
    idxs = _idxs_upto(ctx.p, n)
    coeffs: dict[Jet, Expr] = {}
    for a in range(ctx.q):
        def rest(prev, last, dep=a + 1):
            return (neg(mul(dxi[(i, last)], Jet(dep, prev + (i + 1,))))
                    for i in range(ctx.p))
        level = _dj_table(v.phi[a], idxs, memo, rest)
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
    coeffs = _evolutionary_coeffs(q, _jets_upto(ctx, n))
    return ProlongedVectorField(ctx, n, (ZERO,) * ctx.p, q.q, coeffs)


def _evolutionary_coeffs(q: Characteristic, jets: Sequence[Jet]) -> dict[Jet, Expr]:
    """{u^a_J: D_J Q_a} for the jet coordinates ``jets`` of order >= 1, in
    their order.  Each component's table holds the prefixes of its requested
    jets only; one memo serves all components."""
    memo: dict = {}
    wanted: dict[int, list[tuple[int, ...]]] = {}
    for j in jets:
        wanted.setdefault(j.dep, []).append(j.idx)
    tables = {dep: _dj_table(q.q[dep - 1], _prefix_closure(idxs), memo)
              for dep, idxs in sorted(wanted.items())}
    return {j: tables[j.dep][j.idx] for j in jets}


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
