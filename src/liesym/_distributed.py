"""Sparse distributed polynomials: the kernel of :func:`liesym.expr.expand`.

One round of ``expand`` reads an expression tree bottom-up into a dict from
monomials to rational coefficients, merges integer-shifted powers of common
sum bases on that dict, and builds one canonical tree from it with the
constructors of :mod:`liesym.expr` (S. C. Johnson 1974, "Sparse polynomial
arithmetic"; Monagan & Pearce 2007 for exponent-vector monomials).  A round
reaches as far as a walk that distributes over the tree node by node would.
Two monomials multiply by one merge of their sorted pairs
(:meth:`_Poly.merge`), as in Johnson's product, with no dict and no sort.
A fractional exponent is stored as one :class:`_Exp` per value and kernel,
whose hash is computed once; trees get plain fractions back.

A round expands each distinct subtree once.  Nodes are interned, so equal
subtrees are one node, and a tree such as ``D_x zeta / D_x eta`` reaches
some nodes many times; its unfolded size doubles with each level of
nesting.  A sum, product or power reached a second time gets the dict of
its first visit back; only such nodes are stored, so a node that occurs
once costs no memory.  First visits keep their order, and so does the
numbering of generators.

:meth:`_Poly.monomials` reads the tree of ``expand(e)`` back into a dict; a
flat ``e`` takes one round, which returns ``e`` itself.  ``collect`` and, for
a system given as trees, ``solve_determining`` read their monomials so; the
latter takes a ring-built system's dicts as they are, with no tree.
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
        # node -> its tree after one round, for power bases and function
        # arguments, which recur across terms and rounds
        self.subtrees: dict[Expr, Expr] = {}
        # node -> its polynomial after one round, for a sum, product or power
        # reached a second time, as a shared subtree is; ``seen`` holds those
        # reached once, so a node that occurs once keeps no entry
        self.rounds: dict[Expr, dict] = {}
        self.seen: set[Expr] = set()
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

    def merge(self, ma: tuple, mb: tuple) -> tuple:
        """The monomial ``ma`` times ``mb``, by one walk over both sorted
        pair tuples: a shared generator gets the sum of its exponents, or no
        pair when that sum is 0, and sets ``stirred`` when :func:`mul` may
        fold the result (see :meth:`settle`)."""
        if not mb:
            return ma
        if not ma:
            return mb
        out = []
        i = j = 0
        na, nb = len(ma), len(mb)
        pa, pb = ma[0], mb[0]
        ga, gb = pa[0], pb[0]
        while True:
            if ga < gb:
                out.append(pa)
                i += 1
                if i == na:
                    out += mb[j:]
                    return tuple(out)
                pa = ma[i]
                ga = pa[0]
            elif gb < ga:
                out.append(pb)
                j += 1
                if j == nb:
                    out += ma[i:]
                    return tuple(out)
                pb = mb[j]
                gb = pb[0]
            else:
                k = pa[1] + pb[1]
                if type(k) is not int:
                    k = self.exp(k)
                if k:
                    out.append((ga, k))
                kind = self.kind[ga]
                if kind == _ODD or (k == 1 and kind == _SUM):
                    self.stirred = True
                i += 1
                j += 1
                if i == na:
                    out += mb[j:]
                    return tuple(out)
                if j == nb:
                    out += ma[i:]
                    return tuple(out)
                pa, pb = ma[i], mb[j]
                ga, gb = pa[0], pb[0]

    def times(self, a: dict, b: dict) -> dict:
        """The product as one :func:`mul` per pair of terms would merge it,
        before folding (see :meth:`settle`)."""
        merge = self.merge
        out: dict = {}
        zeros = []
        bs = list(b.items())
        for ma, ca in a.items():
            for mb, cb in bs:
                m = merge(ma, mb)
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
        """The polynomial of ``expand(e)``: the rounds to its fixed point,
        then a read of that tree."""
        return self.read(self.fixed_point(e))

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
            hit = self.rounds.get(e)
            if hit is not None:
                return hit
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
            if e in self.seen:
                self.rounds[e] = out
            else:
                self.seen.add(e)
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
        # the single-term factors fold into one monomial and coefficient
        mono, coeff = (), _num(e.coeff)
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
                m = tuple(rest)
            mono = self.merge(mono, m)
            coeff *= c
            if type(coeff) is Fraction and coeff.denominator == 1:
                coeff = coeff.numerator
        acc = {mono: coeff}
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
        fs = [gens[g] if k == 1 else Pow(gens[g], k) for g, k in m]
        if len(fs) > 1:
            fs.sort(key=_factor_order)
        return _term(c, tuple(fs))

    def first(self, pairs) -> tuple:
        """Of one monomial's pairs, the one whose factor a product lists first."""
        return min(pairs, key=lambda p: _factor_order(self.product((p,), 1)))

    def tree(self, poly: dict) -> Expr:
        if len(poly) == 1:
            ((m, c),) = poly.items()
            return self.product(m, c)
        return add(*(self.product(m, c) for m, c in poly.items()))

    def subtree(self, e: Expr) -> Expr:
        hit = self.subtrees.get(e)
        if hit is None:
            hit = self.subtrees[e] = self.tree(self.expand_once(e))
        return hit
