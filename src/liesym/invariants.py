"""Invariants of group actions: infinitesimal invariance, differential
invariants, derived higher-order invariants, characteristic ODE systems."""
from __future__ import annotations

from .errors import DegenerateDenominator, OrderError
from .expr import Expr, div, is_zero, jet_order
from .jet import VectorField, _prolonged_action, total_derivative


def invariance_defect(v: VectorField, f: Expr) -> Expr:
    """v(f) for an order-0 function; zero iff f is invariant under the flow."""
    if jet_order(f) > 0:
        raise OrderError("invariance_defect expects an expression of jet order 0")
    return v.apply0(f)


def differential_invariant_check(v: VectorField, n: int, eta: Expr) -> bool:
    """True iff the prolonged action of v annihilates eta.  Only the
    coefficients of the jets eta reads are built."""
    (action,) = _prolonged_action(v, n, [eta])
    return is_zero(action)


def next_invariant(eta: Expr, zeta: Expr) -> Expr:
    """D_x zeta / D_x eta; raises the order of an invariant pair by one.

    Single independent variable only: with eta and zeta both invariant, the
    quotient is again a differential invariant.
    """
    d_eta = total_derivative(eta, 1)
    if is_zero(d_eta):
        raise DegenerateDenominator("derivative of the base invariant vanishes")
    return div(total_derivative(zeta, 1), d_eta)


def characteristic_system(v: VectorField) -> str:
    """The ODE system dx^i/dt = xi^i, du^a/dt = phi_a, one equation per line."""
    from .parse import format_exprs

    ctx = v.ctx
    texts = format_exprs(v.xi + v.phi, ctx)
    return "\n".join(f"d{name}/dt = {s}"
                     for name, s in zip(ctx.indep + ctx.dep, texts))
