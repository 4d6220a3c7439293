"""Determining equations in a differential polynomial ring.

:func:`liesym.detsys.determining_equations` builds the symmetry defects of a
polynomial system here, as ``{monomial: coefficient}`` dicts on the
generator table of :class:`liesym._distributed._Poly`, and hands their
coefficients to ``solve`` as dicts, as the tree path does.  The
generators are jet coordinates, independent variables, parameters and the
unknown coefficient functions of the generic field.  The total derivative
``D_i`` acts on them as a derivation, cached per generator:

- ``D_i x^k`` is 1 when k = i and 0 otherwise, and ``D_i`` of a parameter is 0;
- ``D_i u^a_J`` is ``u^a_{J,i}``;
- ``D_i f = f_{x^i} + sum_a u^a_i f_{u^a}`` for an unknown function f.

This is the ring of differential polynomials of J. F. Ritt, *Differential
Algebra* (1950), and E. R. Kolchin, *Differential Algebra and Algebraic
Groups* (1973), with the total derivative as the derivation on jet
coordinates of P. J. Olver, *Applications of Lie Groups to Differential
Equations* (1993), ch. 2.  The lift follows :func:`liesym.jet.prolong`: each
coefficient is ``D_J Q_a + sum_i xi^i u^a_{J,i}``, with ``D_{J,i} Q_a`` taken
as ``D_i`` of ``D_J Q_a``.  Where the tree path keeps each ``D_i`` on its
node, the ring keeps the dicts ``D_J Q_a`` in one prefix table per
component (:meth:`_Ring.dj`).  The reduction modulo the system is the ring
homomorphism that sends each jet to its normal form: a jet ``D_K(lead)`` of
the first lead that divides it goes to the normal form of ``D_K(rhs)``, taken
from one prefix table per equation, and every other generator stays.  It is
the map :func:`liesym.detsys.reduce_mod_system` applies, so each defect is
the polynomial ``expand`` makes of that function's tree.

A system takes this path only when every right-hand side expands to a
polynomial in variables, jets and parameters with non-negative integral
exponents and keeps every jet of its tree, and every lead has order >= 1.
Any other system, and a reduction whose ``D_K(rhs)`` would pass the order
cap, raises :class:`_Fallback`; the caller then runs the tree path, which
decides whether the jet is an error and words the message.
"""
from __future__ import annotations

from typing import Callable

from ._distributed import _FLAT, _Poly, _num
from .errors import LiesymError
from .expr import Expr, Jet, UFunc, Var, jets_of


class _Fallback(Exception):
    """The ring cannot hold the system or reduce it within the order cap."""


def _lower(m: tuple, n: int) -> tuple:
    """Monomial ``m`` with the exponent of its ``n``-th pair lowered by one."""
    g, k = m[n]
    return m[:n] + ((g, k - 1),) + m[n + 1:] if k > 1 else m[:n] + m[n + 1:]


def _add_to(out: dict, poly: dict, scale=1) -> None:
    for m, c in poly.items():
        out[m] = out.get(m, 0) + scale * c


def _nonzero(poly: dict) -> dict:
    return {m: _num(c) for m, c in poly.items() if c}


class _Ring:
    """Differential polynomials of one determining system."""

    def __init__(self, equations, p: int, cap: int,
                 reduction: Callable[[Jet], tuple[int, tuple[int, ...]] | None]):
        self.k = _Poly()
        self.p = p
        self.cap = cap
        self.reduction = reduction
        self.derivs: dict[tuple[int, int], dict] = {}     # (generator, i) -> D_i
        self.forms: dict[int, dict | None] = {}           # generator -> normal form
        self.rhs = [self.read(rhs) for _, rhs in equations]
        self.tables = [{(): r} for r in self.rhs]

    def atom(self, a: Expr) -> dict:
        return {((self.k.gen(a), 1),): 1}

    def read(self, e: Expr) -> dict | None:
        """``e`` as a polynomial in variables, jets and parameters with
        non-negative integral exponents that keeps every jet of ``e``, or
        None."""
        k = self.k
        try:
            poly = k.monomials(e)
        except LiesymError:
            return None
        jets = set()
        for m in poly:
            for g, x in m:
                a = k.gens[g]
                if type(a) not in _FLAT or type(x) is not int or x < 0:
                    return None
                if type(a) is Jet:
                    jets.add(a)
        # a jet that cancels from the expansion can stay in the tree path's
        # defects, and so among its splitting variables
        return poly if jets == set(jets_of(e)) else None

    # -- the derivation -----------------------------------------------------

    def dgen(self, g: int, i: int) -> dict:
        """D_i of generator ``g``."""
        got = self.derivs.get((g, i))
        if got is None:
            k = self.k
            a = k.gens[g]
            got = {}
            if type(a) is Var:
                if a.index == i:
                    got[()] = 1
            elif type(a) is Jet:
                got[((k.gen(Jet(a.dep, a.idx + (i,))), 1),)] = 1
            elif type(a) is UFunc:
                for pos, arg in enumerate(a.args):
                    f = k.gen(UFunc(a.name, a.args, a.deriv + (pos,)))
                    if arg == Var(i):
                        got[((f, 1),)] = 1
                    elif type(arg) is Jet:
                        u = k.gen(Jet(arg.dep, arg.idx + (i,)))
                        got[tuple(sorted(((f, 1), (u, 1))))] = 1
            self.derivs[(g, i)] = got
        return got

    def derive(self, poly: dict, i: int) -> dict:
        """D_i of ``poly``, by the product rule on each monomial."""
        merge = self.k.merge
        out: dict = {}
        for m, c in poly.items():
            for n, (g, k) in enumerate(m):
                dg = self.dgen(g, i)
                if not dg:
                    continue
                rest, ck = _lower(m, n), c * k
                for md, cd in dg.items():
                    mm = merge(rest, md)
                    out[mm] = out.get(mm, 0) + ck * cd
        return _nonzero(out)

    def partial(self, poly: dict, g: int) -> dict:
        """The partial derivative of ``poly`` by generator ``g``."""
        out: dict = {}
        for m, c in poly.items():
            for n, (h, k) in enumerate(m):
                if h == g:
                    rest = _lower(m, n)
                    out[rest] = out.get(rest, 0) + c * k
        return _nonzero(out)

    def dj(self, table: dict, idx: tuple[int, ...]) -> dict:
        """D_idx of ``table[()]``, filling the prefix table ``table``."""
        got = table.get(idx)
        if got is None:
            got = table[idx] = self.derive(self.dj(table, idx[:-1]), idx[-1])
        return got

    # -- reduction modulo the system ----------------------------------------

    def form(self, g: int) -> dict | None:
        """The normal form of generator ``g``, or None when no lead divides it."""
        if g in self.forms:
            return self.forms[g]
        a = self.k.gens[g]
        hit = self.reduction(a) if type(a) is Jet else None
        got = None
        if hit is not None:
            eq, extra = hit
            repl = self.dj(self.tables[eq], extra)
            gens = self.k.gens
            if max((len(gens[h].idx) for m in repl for h, _ in m
                    if type(gens[h]) is Jet), default=0) > self.cap:
                raise _Fallback
            got = self.reduce(repl)
        self.forms[g] = got
        return got

    def reduce(self, poly: dict) -> dict:
        """``poly`` with every generator replaced by its normal form."""
        out: dict = {}
        for m, c in poly.items():
            keep, forms = [], []
            for g, k in m:
                f = self.form(g)
                if f is None:
                    keep.append((g, k))
                else:
                    forms.append(self.power(f, k))
            if not forms:
                out[m] = out.get(m, 0) + c
                continue
            part = {tuple(keep): c}
            for f in forms:
                part = self.k.times(part, f)
            _add_to(out, part)
        return _nonzero(out)

    def power(self, f: dict, k: int) -> dict:
        """``f`` to the ``k``-th power, as ``f^(k-1)*f``."""
        return f if k == 1 else self.k.times(self.power(f, k - 1), f)

    # -- the symmetry defects -----------------------------------------------

    def defects(self, equations, xi, phi) -> list[dict]:
        """The reduced defect of each residual ``lead - rhs`` under the
        generic field with coefficients ``xi``, ``phi``."""
        k, p = self.k, self.p
        xs = [self.atom(x) for x in xi]
        tables = []
        for a, f in enumerate(phi):
            q = dict(self.atom(f))
            for i in range(p):
                _add_to(q, k.times(xs[i], self.atom(Jet(a + 1, (i + 1,)))), -1)
            tables.append({(): _nonzero(q)})
        lifts: dict[int, dict] = {}

        def lift(g: int) -> dict:
            """The reduced coefficient of jet generator ``g`` in the lift."""
            got = lifts.get(g)
            if got is None:
                j = k.gens[g]
                out = dict(self.dj(tables[j.dep - 1], j.idx))
                for i in range(p):
                    _add_to(out, k.times(xs[i], self.atom(Jet(j.dep, j.idx + (i + 1,)))))
                got = lifts[g] = self.reduce(_nonzero(out))
            return got

        out = []
        for (lead, _), rhs in zip(equations, self.rhs):
            r = dict(self.atom(lead))
            _add_to(r, rhs, -1)
            r = _nonzero(r)
            defect: dict = {}
            for g in sorted({g for m in r for g, _ in m}):
                a = k.gens[g]
                if type(a) is Var:
                    coeff = xs[a.index - 1]
                elif type(a) is Jet:
                    coeff = lift(g) if a.idx else self.atom(phi[a.dep - 1])
                else:
                    continue
                _add_to(defect, k.times(coeff, self.reduce(self.partial(r, g))))
            out.append(_nonzero(defect))
        return out

    def term_key(self, term: tuple) -> tuple:
        """The key of the tree ``k.product(m, c)`` of ``term = (m, c)`` in
        canonical order (``_term_order``), computed on the monomial: a
        constant, a lone generator, a power of one, or a product of such
        factors sorted by generator, then its coefficient."""
        m, c = term
        if not m:
            return 0, c                 # a Const's key
        gens = self.k.gens
        # a product lists its factors by base, and the bases are distinct
        pairs = sorted((gens[g]._ord, x) for g, x in m)
        fs = [a if x == 1 else (6, a, x) for a, x in pairs]     # Pow's key
        if len(fs) == 1 and c == 1:
            return fs[0]
        return 7, tuple(fs), c          # Mul's key

    def coefficients(self, defect: dict, split: set[int]) -> list[dict]:
        """The coefficients of ``defect`` over the monomials in the
        generators ``split``, as polynomials in the other generators, in the
        order :func:`liesym.expr.collect` gives them: by first occurrence
        among the terms of the canonical sum."""
        terms = sorted(defect.items(), key=self.term_key)
        groups: dict[tuple, dict] = {}
        for m, c in terms:
            mono = tuple(x for x in m if x[0] in split)
            rest = tuple(x for x in m if x[0] not in split)
            groups.setdefault(mono, {})[rest] = c
        return list(groups.values())


def ring_determining(sys, xi, phi, cap: int, reduction):
    """(split jets, the ring's ``_Poly``, coefficient dicts) of the generic
    field with coefficients ``xi``, ``phi`` on ``sys``: the coefficients of
    the defects in turn, each in ``collect``'s order.  Raises
    :class:`_Fallback` when ``sys`` has a lead of order 0 or a right-hand
    side the ring cannot hold, or when a reduction would pass ``cap``.
    ``reduction(j)`` names the first equation whose lead divides jet ``j``
    and the extra indices K, or is None."""
    if any(not lead.idx for lead, _ in sys.equations):
        raise _Fallback
    ring = _Ring(sys.equations, sys.ctx.p, cap, reduction)
    if any(r is None for r in ring.rhs):
        raise _Fallback
    defects = ring.defects(sys.equations, xi, phi)
    gens = ring.k.gens
    split = {g for d in defects for m in d for g, _ in m
             if type(gens[g]) is Jet and gens[g].idx}
    return ({gens[g] for g in split}, ring.k,
            [c for d in defects for c in ring.coefficients(d, split)])
