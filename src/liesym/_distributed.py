"""Sparse distributed polynomials: the kernel of :func:`liesym.expr.expand`.

One round of ``expand`` reads an expression tree bottom-up into a dict from
monomials to rational coefficients, merges integer-shifted powers of common
sum bases on that dict, and builds one canonical tree from it with the
constructors of :mod:`liesym.expr` (S. C. Johnson 1974, "Sparse polynomial
arithmetic"; Monagan & Pearce 2007 for exponent-vector monomials).  A round
reaches as far as a walk that distributes over the tree node by node would.
A fractional exponent is stored as one :class:`_Exp` per value and kernel,
whose hash is computed once; trees get plain fractions back.

A round expands each distinct subtree once.  The prolongations and the
partials memo return one node object for equal subtrees, so a tree such as
``D_x zeta / D_x eta`` reaches some nodes many times, and its unfolded size
doubles with each level of nesting.  A sum, product or power reached a
second time, by object identity, gets the dict of its first visit back;
only such nodes are stored, so a node that occurs once costs no memory.
First visits keep their order, and so does the numbering of generators.

:func:`liesym.expr.collect` and :func:`liesym.detsys.solve_determining` read
the monomials of ``expand(e)`` from the kernel (:meth:`_Poly.monomials`) and
build trees only for what they return.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import SimplificationIncomplete
from .expr import (
    _Q1,
    Add,
    Const,
    Expr,
    Func,
    Jet,
    Mul,
    Param,
    Pow,
    UFunc,
    Var,
    _digit_count,
    _factor_order,
    _term,
    add,
    func,
    mul,
    pow_,
)

# Integer powers of sums are multiplied out up to this exponent, and so are
# integer shifts between powers of one sum; expand raises beyond it.
_EXPAND_POW_CAP = 64

# A polynomial ansatz is refused when it has more parameters (columns of the
# determining matrix) than this; the 2-D heat equation at degree 6 has 840.
_ANSATZ_COLUMN_CAP = 100_000

# Exact powers of rational constants are computed up to results of this many
# bits; pow_ and evaluate raise beyond it.
_CONST_POW_BITS = 1 << 20

# Generator kinds.  A plain generator (atom, unknown function, elementary
# function) never folds under mul.  A sum may be multiplied out.  Any other
# base (a constant, a product or a power under a fractional exponent) may
# fold into something else once its exponent changes.
_PLAIN, _SUM, _ODD = 0, 1, 2
_ATOMS = (Var, Jet, Param, Const)
_FLAT = (Var, Jet, Param)


def _num(q):
    """An integral rational as an int, so that keys and products stay off
    the slower Fraction paths; any other value unchanged."""
    return q.numerator if q.denominator == 1 else q


class _Exp(Fraction):
    """A fractional exponent in a monomial, hashed once when made: every
    dict lookup of a monomial hashes its exponents, and ``Fraction`` hashes
    in pure Python.  Arithmetic on it gives plain fractions."""

    __slots__ = ("_hash",)

    def __new__(cls, q: Fraction):
        self = super().__new__(cls, q.numerator, q.denominator)
        self._hash = Fraction.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


def _drop_zeros(poly: dict, zeros: list) -> dict:
    """``poly`` without those of the monomials ``zeros`` whose coefficient
    is still 0, deleted in place: rebuilding the dict would hash every
    monomial again, and a fractional exponent hashes in pure Python."""
    for m in zeros:
        if not poly.get(m, 1):
            del poly[m]
    return poly


def _cap_error(what: str, k, limit=f"the expansion limit {_EXPAND_POW_CAP}",
               error=SimplificationIncomplete):
    try:
        text = str(k)
    except ValueError:
        # more digits than the interpreter converts to a string
        text = f"of {_digit_count(k.numerator)} digits"
    return error(f"{what} {text} exceeds {limit}")


class _Poly:
    """The distributed form behind :func:`expand`.

    A polynomial is a dict ``{monomial: coefficient}``; a monomial is a tuple
    of ``(generator, exponent)`` pairs sorted by generator number.  A
    generator is the base of a factor that is not multiplied out, numbered in
    this object's table.  Integral coefficients and exponents are stored as
    ints, and fractional exponents are interned (:meth:`exp`).  Every
    polynomial that :meth:`expand_once` yields is in the form
    the tree built from it has: each monomial converts to one term of that
    tree, with no folding left for :func:`mul` to do.  The merge may leave
    exponents of foldable generators to :func:`mul` (see :meth:`product`).
    """

    __slots__ = ("gens", "index", "kind", "subtrees", "rounds", "seen",
                 "powers", "stirred", "exps")

    def __init__(self):
        self.gens: list[Expr] = []
        self.index: dict[Expr, int] = {}
        self.kind: list[int] = []
        # id(node) -> (node, its tree after one round), for power bases and
        # function arguments, which recur across terms and rounds; holding
        # the node keeps its id unique
        self.subtrees: dict[int, tuple[Expr, Expr]] = {}
        # id(node) -> (node, its polynomial after one round), for a sum,
        # product or power reached a second time, as a shared subtree is;
        # holding the node keeps its id unique.  ``seen`` holds the ids of
        # those reached once, so a node that occurs once keeps no entry; an
        # id that a dead node left there only makes the next node at that
        # address stored on its first visit
        self.rounds: dict[int, tuple[Expr, dict]] = {}
        self.seen: set[int] = set()
        # (sum generator, k) -> (its terms to the k-th power, stirred); the
        # merge multiplies the same shift into many terms
        self.powers: dict[tuple[int, int], tuple[dict, bool]] = {}
        # set when a product merges exponents of a generator that may fold
        self.stirred = False
        # (numerator, denominator) -> the one _Exp of that fractional value
        self.exps: dict[tuple[int, int], _Exp] = {}

    # -- reading trees ------------------------------------------------------

    def exp(self, k):
        """Exponent ``k`` as a monomial holds it: an int when integral, else
        this kernel's one :class:`_Exp` of that value."""
        if k.denominator == 1:
            return k.numerator
        key = (k.numerator, k.denominator)
        e = self.exps.get(key)
        if e is None:
            e = self.exps[key] = _Exp(k)
        return e

    def gen(self, b: Expr) -> int:
        i = self.index.get(b)
        if i is None:
            i = self.index[b] = len(self.gens)
            self.gens.append(b)
            t = type(b)
            self.kind.append(_SUM if t is Add else
                             _ODD if t is Const or t is Mul or t is Pow else _PLAIN)
        return i

    def term(self, t: Expr) -> tuple:
        """(coefficient, monomial) of one canonical term."""
        if type(t) is Mul:
            c, fs = t.coeff, t.factors
        elif type(t) is Const:
            return _num(t.value), ()
        else:
            c, fs = _Q1, (t,)
        mono: dict[int, object] = {}
        for f in fs:
            if type(f) is Pow:
                g, k = self.gen(f.base), self.exp(f.exp)
            else:
                g, k = self.gen(f), 1
            p = mono.get(g)
            if p is None:
                mono[g] = k
            else:
                k = self.exp(p + k)
                if k:
                    mono[g] = k
                else:
                    del mono[g]
        return _num(c), tuple(sorted(mono.items()))

    def read(self, e: Expr) -> dict:
        """The polynomial whose monomials are the terms of ``e``."""
        out: dict = {}
        zeros = []
        for t in e.terms if type(e) is Add else (e,):
            c, m = self.term(t)
            p = out.get(m)
            if p is not None:
                c += p
            out[m] = c
            if not c:
                zeros.append(m)
        return _drop_zeros(out, zeros)

    # -- arithmetic ---------------------------------------------------------

    def times(self, a: dict, b: dict) -> dict:
        """The product as one :func:`mul` per pair of terms would merge it,
        before folding (see :meth:`settle`)."""
        kind = self.kind
        out: dict = {}
        zeros = []
        for ma, ca in a.items():
            da = dict(ma)
            for mb, cb in b.items():
                if not mb:
                    m = ma
                elif not ma:
                    m = mb
                else:
                    d = da.copy()
                    for g, k in mb:
                        p = d.get(g)
                        if p is None:
                            d[g] = k
                            continue
                        k = p + k
                        if type(k) is not int:
                            k = self.exp(k)
                        if k:
                            d[g] = k
                        else:
                            del d[g]
                        if kind[g] == _ODD or (k == 1 and kind[g] == _SUM):
                            self.stirred = True
                    m = tuple(sorted(d.items()))
                c = ca * cb
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                p = out.get(m)
                if p is None:
                    out[m] = c
                else:
                    out[m] = c = p + c
                    if not c:
                        zeros.append(m)
        return _drop_zeros(out, zeros)

    def sum_power(self, g: int, k: int) -> dict:
        """The terms of sum generator ``g`` multiplied out to the ``k``-th
        power, ``0 < k <= _EXPAND_POW_CAP``."""
        hit = self.powers.get((g, k))
        if hit is None:
            stirred, self.stirred = self.stirred, False
            if k == 1:
                out = self.read(self.gens[g])
            else:
                out = self.times(self.sum_power(g, k - 1), self.sum_power(g, 1))
            hit = self.powers[(g, k)] = (out, self.stirred)
            self.stirred = stirred
        self.stirred = self.stirred or hit[1]
        return hit[0]

    def settle(self, poly: dict) -> dict:
        """Fold what :func:`mul` folds in a product's monomials: a lone sum
        to the first power, and any constant, product or power base."""
        kind = self.kind
        out: dict = {}
        zeros = []
        for m, c in poly.items():
            if (len(m) == 1 and m[0][1] == 1 and kind[m[0][0]] == _SUM) or \
                    any(kind[g] == _ODD for g, _ in m):
                terms = [(m2, c * c2) for m2, c2 in
                         self.read(self.product(m, _Q1)).items()]
            else:
                terms = ((m, c),)
            for m2, c2 in terms:
                p = out.get(m2)
                if p is not None:
                    c2 += p
                    if not c2:
                        zeros.append(m2)
                out[m2] = _num(c2)
        return _drop_zeros(out, zeros)

    # -- rounds -------------------------------------------------------------

    def fixed_point(self, e: Expr, max_rounds: int = 12) -> Expr:
        """The round loop of :func:`liesym.expr.expand`."""
        for _ in range(max_rounds):
            nxt = self.tree(self.merge_sum_powers(self.expand_once(e)))
            if nxt == e:
                return e
            e = nxt
        raise SimplificationIncomplete(
            f"expand reached no fixed point within {max_rounds} rounds")

    def monomials(self, e: Expr) -> dict:
        """The polynomial of ``expand(e)``.  A flat ``e`` (each term a
        constant or a product of powers of variables, jets, parameters and
        unknown functions of atoms) is its own expansion: it is read as it
        stands, which registers the generators a round would, in its order."""
        for t in e.terms if type(e) is Add else (e,):
            if type(t) is Const:
                continue
            for f in t.factors if type(t) is Mul else (t,):
                b = f.base if type(f) is Pow else f
                if not (type(b) in _FLAT or type(b) is UFunc
                        and all(type(a) in _ATOMS for a in b.args)):
                    return self.read(self.fixed_point(e))
        return self.read(e)

    def expand_once(self, e: Expr) -> dict:
        """Multiply out products and integer powers of sums, bottom-up, with
        the same reach per round as the tree walk it replaces: a product
        multiplies out its sum factors, and powers of sums to an exponent in
        (1, _EXPAND_POW_CAP] inside a single-term factor; a power node
        multiplies out its base when that base is a sum.

        A sum, product or power reached a second time, as a shared subtree
        is, returns the dict of its first visit, which no caller changes."""
        t = type(e)
        if t is Add or t is Mul or t is Pow:
            i = id(e)
            hit = self.rounds.get(i)
            if hit is not None:
                return hit[1]
            if t is Add:
                out: dict = {}
                zeros = []
                for s in e.terms:
                    for m, c in self.expand_once(s).items():
                        p = out.get(m)
                        if p is None:
                            out[m] = c
                        else:
                            out[m] = c = p + c
                            if not c:
                                zeros.append(m)
                out = _drop_zeros(out, zeros)
            elif t is Mul:
                out = self._product(e)
            else:
                out = self._power(e)
            if i in self.seen:
                self.rounds[i] = (e, out)
            else:
                self.seen.add(i)
            return out
        if t is Const:
            return self.read(e)
        if t is Func:
            return self.read(func(e.fname, self.subtree(e.arg)))
        if t is UFunc and not all(type(a) in _ATOMS for a in e.args):
            e = UFunc(e.name, tuple(map(self.subtree, e.args)), e.deriv)
        return {((self.gen(e), 1),): 1}

    def _product(self, e: Mul) -> dict:
        parts = [self.expand_once(f) for f in e.factors]
        if not all(parts):
            return {}
        kind = self.kind
        self.stirred = False
        acc = {(): _num(e.coeff)}
        sums = []
        for part in parts:
            if len(part) > 1:
                sums.append(part)
                continue
            # a single term: its sums to a positive integer power are
            # factors of this product and get multiplied out
            ((m, c),) = part.items()
            if any(kind[g] == _SUM and type(k) is int and k > 0 for g, k in m):
                rest = []
                for g, k in m:
                    if kind[g] == _SUM and type(k) is int and k > 0:
                        if k > _EXPAND_POW_CAP:
                            raise _cap_error("power of a sum with exponent", k)
                        sums.append(self.sum_power(g, k))
                    else:
                        rest.append((g, k))
                part = {tuple(rest): c}
            acc = self.times(acc, part)
        for part in sorted(sums, key=len):
            acc = self.times(acc, part)
        return self.settle(acc) if self.stirred else acc

    def _power(self, e: Pow) -> dict:
        n = e.exp
        if n.denominator == 1 and n > 1:
            base = self.expand_once(e.base)
            if len(base) > 1:
                if n > _EXPAND_POW_CAP:
                    raise _cap_error("power of a sum with exponent", n.numerator)
                self.stirred = False
                out = base
                for _ in range(n.numerator - 1):
                    out = self.times(out, base)
                return self.settle(out) if self.stirred else out
            return self.read(pow_(self.tree(base), n))
        return self.read(pow_(self.subtree(e.base), n))

    def merge_sum_powers(self, poly: dict) -> dict:
        """Factor powers of a common sum base whose exponents differ by
        integers.

        ``a*S^(-1/2) + b*S^(-3/2)`` becomes ``(a*S + b)*S^(-3/2)`` with the
        integer part multiplied out, which lets rational-function
        cancellations finish.  Each sum base gets one target, the least of
        its exponents, when all of them differ from it by integers; a term
        that lacks the base counts as exponent 0 when that keeps the shifts
        integral.
        """
        if len(poly) < 2:
            return poly
        kind = self.kind
        exps: dict[int, set] = {}
        seen: dict[int, int] = {}
        for m in poly:
            for g, k in m:
                if kind[g] == _SUM:
                    exps.setdefault(g, set()).add(k)
                    seen[g] = seen.get(g, 0) + 1
        targets: dict[int, object] = {}
        for g, ks in exps.items():
            mn = min(ks)
            if seen[g] < len(poly) and mn < 0 and mn.denominator == 1:
                ks.add(0)
            if len(ks) > 1 and all((k - mn).denominator == 1 for k in ks):
                targets[g] = mn
        if not targets:
            return poly
        out: dict = {}
        zeros = []
        for m, c in poly.items():
            keep, extra, bare, present = [], [], [], set()
            for g, k in m:
                mn = targets.get(g)
                if mn is not None:
                    present.add(g)
                    if k != mn:
                        if mn:
                            keep.append((g, mn))
                        extra.append((g, _num(k - mn)))
                        continue
                if k == 1 and kind[g] == _SUM:
                    bare.append(g)
                else:
                    keep.append((g, k))
            for g, mn in targets.items():
                if g not in present and mn < 0 and mn.denominator == 1:
                    keep.append((g, mn))
                    extra.append((g, -mn))
            if not extra:
                p = out.get(m)
                if p is None:
                    out[m] = c
                else:
                    out[m] = c = p + c
                    if not c:
                        zeros.append(m)
                continue
            # a bare sum factor of a rewritten term is multiplied out too
            part = {tuple(sorted(keep)): c}
            for g, k in extra + [(g, 1) for g in bare]:
                if k > _EXPAND_POW_CAP:
                    raise _cap_error("shift between powers of a sum of", k)
                part = self.times(part, self.sum_power(g, k))
            for m2, c2 in part.items():
                p = out.get(m2)
                if p is None:
                    out[m2] = c2
                else:
                    out[m2] = c2 = p + c2
                    if not c2:
                        zeros.append(m2)
        return _drop_zeros(out, zeros)

    # -- back to trees ------------------------------------------------------

    def product(self, m: tuple, c) -> Expr:
        """The term :func:`mul` builds from coefficient ``c`` times monomial
        ``m``."""
        gens, kind = self.gens, self.kind
        if any(kind[g] == _ODD for g, _ in m):
            # mul may fold these; a bare Pow makes it take each base and
            # exponent as they stand
            return mul(Const(c), *(gens[g] if k == 1 and kind[g] == _PLAIN
                                   else Pow(gens[g], k) for g, k in m))
        # atoms, functions and sums to distinct bases: mul would only raise
        # each to its exponent and sort
        fs = [gens[g] if k == 1 else Pow(gens[g], Fraction(k)) for g, k in m]
        if len(fs) > 1:
            fs.sort(key=_factor_order)
        return _term(c if type(c) is Fraction else Fraction(c), tuple(fs))

    def first(self, pairs) -> tuple:
        """Of one monomial's pairs, the one whose factor a product lists first."""
        return min(pairs, key=lambda p: _factor_order(self.product((p,), 1)))

    def tree(self, poly: dict) -> Expr:
        if len(poly) == 1:
            ((m, c),) = poly.items()
            return self.product(m, c)
        return add(*(self.product(m, c) for m, c in poly.items()))

    def subtree(self, e: Expr) -> Expr:
        hit = self.subtrees.get(id(e))
        if hit is None or hit[0] is not e:
            hit = self.subtrees[id(e)] = (e, self.tree(self.expand_once(e)))
        return hit[1]
