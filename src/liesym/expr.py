"""Canonical symbolic expressions over jet coordinates with exact rational arithmetic.

An expression is an immutable tree built from atoms (rational constants,
independent variables, jet coordinates u^alpha_J, ansatz parameters, and
derivatives of declared unknown functions) combined by sums, products, rational
powers and the elementary functions exp/log/sin/cos.

All constructors canonicalize: sums and products are flattened, like terms are
collected with exact rational coefficients, powers of a common base are merged,
and rational constants are folded.  Two expressions built from the same
mathematical content through the constructors are one node.
Powers of sums are *not* expanded automatically; :func:`expand` does that on
demand, and additionally merges powers of a common sum base whose exponents
differ by integers (the step that makes rational-function cancellations such as
``u_xx*(1+u_x^2)^(-1/2) - (1+u_x^2+...)*(1+u_x^2)^(-3/2)`` collapse exactly).

Contract: compound nodes must be built with :func:`add`, :func:`mul`,
:func:`pow_`, :func:`div` and :func:`func` (or the operators, which call them);
a tree so built is canonical, and no operation here re-canonicalizes its
input.  A product holds one factor per base: where the exponents of one base
sum so that :func:`pow_` folds the power to another base
(``((1+x)^2)^(1/2)`` twice is ``(1+x)^2``), :func:`mul` merges the result
with the factors of that base, so every constructor result is a fixed point
of :func:`mul` and :func:`normalize`.  The node dataclasses are exported for
``isinstance`` checks and atoms; a tree assembled from the raw compound
dataclasses must first go through :func:`normalize`.

Canonical order: the terms of a sum and the factors of a product are sorted.
Nodes of different kinds order as constant < independent variable < jet
coordinate < parameter < unknown function < elementary function < power <
product < sum.  Within a kind, constants order by value, variables by index,
jet coordinates by dependent variable, then order, then multi-index,
parameters by name, unknown functions by name, then derivative multiset, then
arguments, elementary functions by name, then argument, powers by base, then
exponent, products by factors, then coefficient, and sums by terms.  Child
sequences compare lexicographically, a proper prefix first.  Product factors
order by base, then exponent (1 for a factor that is no power).  Each node
carries its canonical key, a tuple of its kind's rank and its fields whose
order is this one, built once with the node from its children's keys; a
key holds no node.  Sorting compares keys in C, and a comparison skips the
sub-keys two keys share, since equal children are one node with one key.

:func:`expand` works in rounds until a round reproduces its input.  A round
reads the tree bottom-up into a sparse distributed polynomial, a dict from
monomials to rational coefficients; the private module
``liesym._distributed`` holds this kernel.  A monomial is a sorted tuple of
(generator number, exponent) pairs, and integral exponents are ints.  The
generators are the bases of the factors that are not multiplied out:
atoms, unknown and elementary functions (their arguments expanded), and the
bases of all other powers.  Sums add dicts, products multiply them, and an
integer power of a sum is repeated multiplication, so ``(1+x)^n`` costs
O(n^2) term products.  The shifted sum powers are then merged on the dict,
and one canonical tree is built from it: each term as :func:`mul` would
build it, summed with :func:`add`.  A round expands each distinct subtree
(one node object) once, however often the tree reaches it, and reaches as
far as a walk that distributes over the tree node by node would (see
``liesym._distributed``).  Integer powers of sums and
the shifts of the merge are multiplied out up to exponent 64; beyond that
:func:`expand` raises :class:`~liesym.errors.SimplificationIncomplete`
instead of leaving the power unexpanded.  :func:`collect` and
``liesym.detsys.solve_determining`` read the fixed point's monomials from
the kernel, not its tree.  An exact power of a rational constant past 2^20
bits raises as well.

:func:`partials` differentiates by every atom in one walk of the tree;
:func:`diff` is the single-atom view of it.  Since a node is immutable, its
partials stay valid for as long as it lives: a compound node keeps them in
a private slot from its first walk on, so a subtree is differentiated once
per lifetime, and differentiating it again, in any later call, is a
lookup.  A partial can hold its own node (``d exp(f) = f' exp(f)``); the
cycle that makes is freed by the cyclic collector once the tree is
dropped.  The product rule builds each term ``c * d * (the other
factors)`` by merging the sorted factors of the partial ``d`` with the
other factors, sorted already, in one pass; only where two bases meet does
:func:`mul` build the term.  The prolongations in ``liesym.jet`` build the
terms ``u_{J,i} * d`` of their total derivatives the same way.
:func:`jets_of`, :func:`jet_order`, :func:`contains`, :func:`normalize`,
:func:`substitute` and :func:`evaluate` also visit each distinct node once.

Every node is interned (hash-consed: E. Goto 1974; Filliâtre & Conchon
2006).  Each node class returns from ``__new__`` the one live node of its
kind with the given fields, so equal trees are one object, equality is
identity whatever their size, and two distinct nodes of one kind differ in
a field.  A node hashes by identity too (``object.__hash__``), which agrees
with equality since equal nodes are one object.  Such a hash differs from
run to run, so no output may follow the order of a set of nodes: a scan
whose result depends on its order sorts first.  The rational fields
``Const.value``, ``Pow.exp`` and ``Mul.coeff`` are always ``Fraction``s; an
``int`` is converted and anything else raises ``TypeError``.  Independent
variables and jet coordinates stay in their tables for the life of the
process; every other node is held weakly, under a key that names its
children by their serial numbers, never by the nodes, and leaves its table
when it is freed, the partials and total derivatives it keeps with it.  A
key is the kind's tag, its fields (a rational as numerator and denominator)
and its children's serial numbers, one flat tuple, written as a literal for
a product of one or two factors and a sum of two terms.  A new node's
fields are set through its kind's slot descriptors.  Pickling, copying and
``dataclasses.replace`` return the interned node; ``repr`` shows the fields
only, in the dataclass form, and cuts the text with ``...`` after
``_REPR_BUDGET`` characters, since a shared subtree is written at each use.

Zero testing is syntactic after :func:`expand`; transcendental identities are
deliberately out of reach (``sin(x)^2 + cos(x)^2 - 1`` is reported as not
provably zero).  An :func:`expand` that reaches no fixed point within its round
limit, or would pass the exponent limit, raises
:class:`~liesym.errors.SimplificationIncomplete`, so :func:`is_zero` never
answers an unconfirmed False.
"""
from __future__ import annotations

import itertools
import math
import operator
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import (
    DegenerateExpression,
    EvaluationError,
    NotPolynomial,
    SimplificationIncomplete,
    UnknownSymbol,
)

FUNC_NAMES = ("exp", "log", "sin", "cos")


# ---------------------------------------------------------------------------
# node types
# ---------------------------------------------------------------------------

class Expr:
    """Base class of the node kinds, immutable and interned dataclasses."""

    # _n: the node's serial number, never reused; _grads: the node's
    # partials once walked (see _partials); _tds: its total derivatives
    # {i: D_i node} once taken (see liesym.jet._td).  None is a field, so
    # repr, pickling and copies skip them
    __slots__ = ("__weakref__", "_ord", "_n", "_grads", "_tds")

    # object's comparison and hash: a node is equal only to itself, which
    # interning makes agree with equal fields
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self):
        # rebuilt through __new__, so unpickling and copying give the
        # interned node
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self):
        # the dataclass repr's text, built without recursion and cut at
        # _REPR_BUDGET characters, since a shared subtree shows at each use
        out, size, todo = [], 0, [self]
        while todo and size <= _REPR_BUDGET:
            x = todo.pop()
            if isinstance(x, Expr):
                parts = [type(x).__qualname__, "("]
                for i, name in enumerate(x.__match_args__):
                    v = getattr(x, name)
                    seq = v if type(v) is tuple else (v,)
                    parts += (", " if i else "", name, "=", "(" if seq is v else "")
                    for k, item in enumerate(seq):
                        parts += (", " if k else "",
                                  item if isinstance(item, Expr) else repr(item))
                    parts.append(("," if len(v) == 1 else "") + ")" if seq is v else "")
                parts.append(")")
                todo += reversed(parts)
            else:
                out.append(x)
                size += len(x)
        text = "".join(out)
        return text if size <= _REPR_BUDGET else text[:_REPR_BUDGET] + "..."

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_(self, exponent)


# A node's key is its kind's tag, the first item of its _ord, and its
# fields, a rational as its numerator and denominator (faster to hash than a
# Fraction) and a child as its serial number, in one flat tuple.  A key
# holds no node, so a node among its own partials (see _partials) is freed
# by the cyclic collector, and a serial number is never reused, so no key
# can match a node made after the child it names was freed.  A dead entry
# goes by _remove_dead_weakref, the atomic delete-if-dead of
# WeakValueDictionary.
_node = dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
_new = object.__new__
_NODES: dict = {}       # key -> _Ref to the node, for all kinds but Var and Jet
_serial = itertools.count()
_sn = operator.attrgetter("_n")
_REPR_BUDGET = 500_000
# slot setters, skipping the frozen __setattr__ (each kind's in _SETTERS)
_set_ord, _set_n, _set_grads, _set_tds = (
    getattr(Expr, s).__set__ for s in ("_ord", "_n", "_grads", "_tds"))


def _make(cls, fields: tuple):
    node = _new(cls)
    for put, value in zip(_SETTERS[cls], fields):
        put(node, value)
    _set_ord(node, _ORD[cls](*fields))
    _set_n(node, next(_serial))
    _set_grads(node, None)
    _set_tds(node, None)
    return node


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref, _nodes=_NODES, _remove=_remove_dead_weakref):
    # the defaults outlive the module's globals at exit
    _remove(_nodes, ref.key)


def _intern(cls, key: tuple, *fields):
    ref = _NODES.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = _make(cls, fields)
        ref = _Ref(node, _forget)
        ref.key = key
        # racing threads all get the node registered first; a dead entry is
        # dropped, atomically, so no live node is ever replaced
        while (old := _NODES.setdefault(key, ref)) is not ref:
            if (live := old()) is not None:
                return live
            _remove_dead_weakref(_NODES, key)
    return node


def _rational(q) -> Fraction:
    if type(q) is Fraction:
        return q
    if isinstance(q, (int, Fraction)):
        return Fraction(q)
    raise TypeError(f"cannot treat {q!r} as an expression")


@_node
class Const(Expr):
    value: Fraction

    def __new__(cls, value):
        q = _rational(value)
        return _intern(cls, (0, q.numerator, q.denominator), q)


# Var and Jet stay in their tables for the life of the process, each under
# every argument form it was asked for.
_VARS: dict = {}
_JETS: dict = {}


@_node
class Var(Expr):
    """Independent variable x^index, 1-based."""

    index: int

    def __new__(cls, index):
        try:
            return _VARS[index]
        except KeyError:
            pass
        if index < 1:
            raise UnknownSymbol(f"no independent variable has index {index}")
        return _VARS.setdefault(index, _make(cls, (index,)))


@_node
class Jet(Expr):
    """Jet coordinate u^dep_idx; ``idx`` is the sorted multi-index tuple and
    may be given in any order."""

    dep: int
    idx: tuple[int, ...]

    def __new__(cls, dep, idx):
        try:
            return _JETS[dep, idx]
        except (KeyError, TypeError):   # a miss, or a multi-index list
            pass
        key = (dep, tuple(sorted(idx)))
        if dep < 1 or key[1] and key[1][0] < 1:
            raise UnknownSymbol(f"no jet coordinate has dependent variable "
                                f"{dep} and multi-index {key[1]}")
        node = _JETS.setdefault(key, _make(cls, key))
        if type(idx) is tuple:
            _JETS.setdefault((dep, idx), node)
        return node

    @property
    def order(self) -> int:
        return len(self.idx)


@_node
class Param(Expr):
    """Unknown ansatz constant."""

    name: str

    def __new__(cls, name):
        return _intern(cls, (3, name), name)


@_node
class UFunc(Expr):
    """Derivative of a declared unknown function.

    ``args`` are the atoms the function depends on (independent variables and
    order-0 jets); ``deriv`` is the sorted multiset of argument positions the
    function has been differentiated by, given in any order.  Empty ``deriv``
    is the function itself.
    """

    name: str
    args: tuple[Expr, ...]
    deriv: tuple[int, ...]

    def __new__(cls, name, args, deriv=()):
        deriv = tuple(sorted(deriv))
        return _intern(cls, (4, name, deriv, *map(_sn, args)), name, args, deriv)


@_node
class Func(Expr):
    fname: str
    arg: Expr

    def __new__(cls, fname, arg):
        return _intern(cls, (5, fname, arg._n), fname, arg)


@_node
class Pow(Expr):
    base: Expr
    exp: Fraction

    def __new__(cls, base, exp):
        e = _rational(exp)
        return _intern(cls, (6, base._n, e.numerator, e.denominator), base, e)


@_node
class Mul(Expr):
    """coeff * factors[0] * factors[1] * ...; factors sorted, coeff != 0."""

    coeff: Fraction
    factors: tuple[Expr, ...]

    def __new__(cls, coeff, factors):
        c = _rational(coeff)
        n, d, k = c.numerator, c.denominator, len(factors)
        if not n:
            raise ValueError("a product's coefficient is 0")
        # (7, n, d, *map(_sn, factors)), a literal for the common lengths
        key = ((7, n, d, factors[0]._n) if k == 1 else
               (7, n, d, factors[0]._n, factors[1]._n) if k == 2 else
               (7, n, d, *map(_sn, factors)))
        return _intern(cls, key, c, factors)


@_node
class Add(Expr):
    terms: tuple[Expr, ...]

    def __new__(cls, terms):
        key = ((8, terms[0]._n, terms[1]._n) if len(terms) == 2 else
               (8, *map(_sn, terms)))
        return _intern(cls, key, terms)


# ---------------------------------------------------------------------------
# canonical ordering
# ---------------------------------------------------------------------------

_Q1 = Fraction(1)

# Each kind's canonical key (the _ord of its nodes, see the module docstring)
# from the node's fields; a child enters as its own key.
_term_order = operator.attrgetter("_ord")
_ORD = {
    Const: lambda value: (0, value),
    Var: lambda index: (1, index),
    Jet: lambda dep, idx: (2, dep, len(idx), idx),
    Param: lambda name: (3, name),
    UFunc: lambda name, args, deriv: (
        4, name, deriv, tuple(map(_term_order, args))),
    Func: lambda fname, arg: (5, fname, arg._ord),
    Pow: lambda base, exp: (6, base._ord, exp),
    Mul: lambda coeff, factors: (7, tuple(map(_term_order, factors)), coeff),
    Add: lambda terms: (8, tuple(map(_term_order, terms))),
}
_SETTERS = {cls: tuple(getattr(cls, f).__set__ for f in cls.__match_args__)
            for cls in _ORD}


def _factor_order(f: Expr) -> tuple:
    """Order of product factors: by base, then by exponent."""
    return (f.base._ord, f.exp) if type(f) is Pow else (f._ord, _Q1)


ZERO = Const(0)
ONE = Const(1)


def _coerce(x) -> Expr:
    return x if isinstance(x, Expr) else Const(x)


# ---------------------------------------------------------------------------
# declaration context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Context:
    """Declared names: independent and dependent variables, parameters, and
    unknown-function signatures (name, argument names)."""

    indep: tuple[str, ...]
    dep: tuple[str, ...]
    params: tuple[str, ...] = ()
    unknowns: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "indep", tuple(self.indep))
        object.__setattr__(self, "dep", tuple(self.dep))
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(
            self, "unknowns", tuple((n, tuple(a)) for n, a in self.unknowns)
        )
        names = list(self.indep) + list(self.dep) + list(self.params)
        names += [n for n, _ in self.unknowns]
        if len(names) != len(set(names)):
            raise UnknownSymbol("declared names must be unique across categories")

    @property
    def p(self) -> int:
        return len(self.indep)

    @property
    def q(self) -> int:
        return len(self.dep)

    def var(self, name: str) -> Var:
        try:
            return Var(self.indep.index(name) + 1)
        except ValueError:
            raise UnknownSymbol(f"{name!r} is not an independent variable") from None

    def dep_index(self, name: str) -> int:
        try:
            return self.dep.index(name) + 1
        except ValueError:
            raise UnknownSymbol(f"{name!r} is not a dependent variable") from None

    def jet(self, dep_name: str, *indep_names: str) -> Jet:
        alpha = self.dep_index(dep_name)
        idx = tuple(self.var(n).index for n in indep_names)
        return Jet(alpha, idx)

    def unknown_args(self, name: str) -> tuple[str, ...]:
        for n, args in self.unknowns:
            if n == name:
                return args
        raise UnknownSymbol(f"{name!r} is not a declared unknown function")

    def unknown_arg_atoms(self, name: str) -> tuple[Expr, ...]:
        out = []
        for a in self.unknown_args(name):
            if a in self.indep:
                out.append(self.var(a))
            elif a in self.dep:
                out.append(Jet(self.dep_index(a), ()))
            else:
                raise UnknownSymbol(
                    f"unknown-function argument {a!r} is not a declared variable"
                )
        return tuple(out)

    def ufunc(self, name: str, *deriv_names: str) -> UFunc:
        args = self.unknown_arg_atoms(name)
        arg_names = self.unknown_args(name)
        deriv = []
        for d in deriv_names:
            try:
                deriv.append(arg_names.index(d))
            except ValueError:
                raise UnknownSymbol(
                    f"{name!r} does not depend on {d!r}"
                ) from None
        return UFunc(name, args, tuple(deriv))


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------

def _term(coeff: Fraction, factors: tuple[Expr, ...]) -> Expr:
    if not coeff or not factors:
        return Const(coeff)
    if len(factors) == 1:
        if coeff == 1:
            return factors[0]
        # distribute a scalar over a lone sum so that e - e collapses
        if isinstance(factors[0], Add):
            return add(*(mul(Const(coeff), t) for t in factors[0].terms))
    return Mul(coeff, factors)


def add(*args) -> Expr:
    # factor tuple -> (coefficient, the input term while it is the tuple's
    # only term and equals what _term would build from it, else None); ZERO
    # is skipped and a Mul is never zero, so a kept input is nonzero
    acc: dict[tuple[Expr, ...], tuple] = {}
    for a in args:
        if type(a) is Add:
            terms = a.terms
        else:
            terms = (a if isinstance(a, Expr) else _coerce(a),)
        for t in terms:
            tt = type(t)
            if tt is Mul:
                c, fs = t.coeff, t.factors
                if len(fs) < 2 and (not fs or c == 1 or type(fs[0]) is Add):
                    t = None
            elif tt is Const:
                if t is ZERO:
                    continue
                c, fs = t.value, ()
            else:
                c, fs = _Q1, (t,)
            prev = acc.get(fs)
            acc[fs] = (c, t) if prev is None else (prev[0] + c, None)
    out = [t if t is not None else _term(c, fs)
           for fs, (c, t) in acc.items() if t is not None or c]
    if len(out) < 2:
        return out[0] if out else ZERO
    if len(out) > 2:
        out.sort(key=_term_order)
    elif out[0]._ord > out[1]._ord:
        out.reverse()
    return Add(tuple(out))


# Bases of a lone power that mul keeps; pow_ folds a Const, Pow or Mul base.
_POW_BASES_KEPT = frozenset((Var, Jet, Param, UFunc, Func, Add))


def mul(*args) -> Expr:
    coeff = _Q1
    # base -> (exponent, the input factor while it is the base's only factor)
    bases: dict[Expr, tuple] = {}
    work = [a if isinstance(a, Expr) else _coerce(a) for a in reversed(args)]
    while work:
        a = work.pop()
        ta = type(a)
        if ta is Const:
            v = a.value
            if not v:
                return ZERO
            coeff = v if coeff is _Q1 else coeff * v
            continue
        if ta is Mul:
            coeff = a.coeff if coeff is _Q1 else coeff * a.coeff
            work.extend(reversed(a.factors))
            continue
        b, e = (a.base, a.exp) if ta is Pow else (a, _Q1)
        prev = bases.get(b)
        bases[b] = (e, a) if prev is None else (prev[0] + e, None)
    factors: list[Expr] = []
    folded: list[Expr] = []
    for b, (e, f) in bases.items():
        # pow_ would rebuild a lone power equal, unless it folds the base or
        # normalizes the exponent
        if f is None or type(f) is Pow and (
                e == 1 or not e or type(b) not in _POW_BASES_KEPT):
            if not e:
                continue
            f = pow_(b, e)
            if type(f) is Const:
                coeff *= f.value
                continue
            if type(f) is Mul or (f.base if type(f) is Pow else f) is not b:
                # a power or product base whose fractional powers summed to
                # an integer folded to other bases, which may meet the
                # factors already here
                folded.append(f)
                continue
        factors.append(f)
    if folded:
        return mul(Const(coeff), *factors, *folded)
    if len(factors) > 1:
        factors.sort(key=_factor_order)
    return _term(coeff, tuple(factors))


def _merge_term(c: Fraction, d: Expr, rest: tuple[Expr, ...]) -> Expr:
    """``mul(Const(c), d, *rest)`` node for node, for ``c != 0``, canonical
    ``d`` and ``rest`` the sorted factors of a canonical product: the two
    sorted factor lists merge in one pass, and only where two bases meet
    does ``mul`` build the term."""
    if type(d) is Const:
        return _term(c * d.value, rest)
    ds, cd = ((d.factors, d.coeff if c is _Q1 else c * d.coeff)
              if type(d) is Mul else ((d,), c))
    out = []
    i = j = 0
    while i < len(ds) and j < len(rest):
        f, g = ds[i], rest[j]
        kf = f.base._ord if type(f) is Pow else f._ord
        kg = g.base._ord if type(g) is Pow else g._ord
        if kf is kg:
            return mul(Const(c), d, *rest)
        if kf < kg:
            out.append(f)
            i += 1
        else:
            out.append(g)
            j += 1
    fs = (*out, *ds[i:], *rest[j:])
    return Mul(cd, fs) if len(fs) > 1 else _term(cd, fs)


def neg(e: Expr) -> Expr:
    return mul(Const(Fraction(-1)), e)


def sub(a, b) -> Expr:
    return add(a, neg(_coerce(b)))


def _digit_count(n: int) -> int:
    """Decimal digits of ``|n| >= 1``, counted without converting it to a
    string."""
    n = abs(n)
    k = int(n.bit_length() * math.log10(2))    # the count is k or k + 1
    return k + (n >= 10 ** k)


def _int_nth_root(n: int, k: int) -> int | None:
    """The exact integer k-th root of n >= 0, or None if n is no k-th power."""
    if n < 0:
        return None
    if n < 2:
        return n
    if n.bit_length() <= k:     # 1 < n < 2^k, so its floor root is 1
        return None
    if k == 2:
        r = math.isqrt(n)
    else:
        # integer Newton iteration from above converges to floor(n^(1/k))
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == n else None


def _rat_power(v: Fraction, e: Fraction, error=SimplificationIncomplete):
    """``v ** e``, or None when ``v`` has no exact rational root of order
    ``e.denominator``; ``error`` when the size bound, ``|e.numerator|`` times
    the root's numerator or denominator bit length, passes _CONST_POW_BITS."""
    if e.denominator != 1:
        rn = _int_nth_root(v.numerator, e.denominator)
        rd = _int_nth_root(v.denominator, e.denominator)
        if rn is None or rd is None:
            return None
        v = Fraction(rn, rd)
    bits = max(abs(v.numerator), v.denominator).bit_length()
    if bits > 1 and bits * abs(e.numerator) > _CONST_POW_BITS:    # not 0 or +-1
        raise _cap_error("power of a constant with exponent", e,
                         f"the size limit of {_CONST_POW_BITS} bits", error)
    return v ** e.numerator


def pow_(base, exponent) -> Expr:
    base = _coerce(base)
    e = _rational(exponent)
    if not e:
        return ONE
    if e == 1:
        return base
    if isinstance(base, Const):
        v = base.value
        if not v:
            if e < 0:
                raise DegenerateExpression("0 raised to a negative power")
            return ZERO
        if v == 1:
            return ONE
        r = _rat_power(v, e)
        return Pow(base, e) if r is None else Const(r)
    if isinstance(base, Pow) and e.denominator == 1:
        return pow_(base.base, base.exp * e)
    if isinstance(base, Mul) and e.denominator == 1:
        parts = [Const(_rat_power(base.coeff, e))]
        parts.extend(pow_(f, e) for f in base.factors)
        return mul(*parts)
    return Pow(base, e)


def div(a, b) -> Expr:
    return mul(_coerce(a), pow_(b, Fraction(-1)))


def func(name: str, arg) -> Expr:
    if name not in FUNC_NAMES:
        raise UnknownSymbol(f"unknown function {name!r}")
    arg = _coerce(arg)
    if isinstance(arg, Const):
        v = arg.value
        if name == "exp" and v == 0:
            return ONE
        if name == "log":
            if not v:
                raise DegenerateExpression("log(0) is undefined")
            if v == 1:
                return ZERO
        if name == "sin" and v == 0:
            return ZERO
        if name == "cos" and v == 0:
            return ONE
    return Func(name, arg)


# ---------------------------------------------------------------------------
# structural map and normalization
# ---------------------------------------------------------------------------

def _map(e: Expr, f, stop=lambda x: None):
    """The image of ``e`` under ``f(node, images of its children)``, called
    once per distinct node, children first and left to right; a node whose
    ``stop(node)`` is not None takes that image, and its children go unvisited."""
    images: dict = {}

    def image(x):
        if x not in images:
            y = stop(x)
            # map, unlike a comprehension, adds no Python frame per level
            images[x] = f(x, tuple(map(image, _kids(x)))) if y is None else y
        return images[x]

    return image(e)


def _rebuild(e: Expr, kids: tuple) -> Expr:
    """``e`` rebuilt through the constructors from ``kids``, the images of
    its children in order; an atom without children comes back unchanged."""
    if isinstance(e, Add):
        return add(*kids)
    if isinstance(e, Mul):
        return mul(Const(e.coeff), *kids)
    if isinstance(e, Pow):
        return pow_(kids[0], e.exp)
    if isinstance(e, Func):
        return func(e.fname, kids[0])
    if isinstance(e, UFunc):
        return UFunc(e.name, kids, e.deriv)
    return e


def normalize(e: Expr) -> Expr:
    """Canonicalize a tree built from the raw node dataclasses (idempotent).

    Trees built by the constructors are canonical already and come back equal.
    """
    return _map(e, _rebuild)


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------

def _kids(x: Expr) -> tuple[Expr, ...]:
    t = type(x)
    return (x.terms if t is Add else x.factors if t is Mul else (x.base,)
            if t is Pow else (x.arg,) if t is Func else x.args if t is UFunc
            else ())


def subterms(e: Expr) -> Iterator[Expr]:
    """Every node of ``e`` in pre-order, a shared subtree at each use."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(_kids(x)))


def atoms_of(e: Expr) -> Iterator[Expr]:
    for s in subterms(e):
        if isinstance(s, (Var, Jet, Param, UFunc)):
            yield s


def _distinct(e: Expr) -> Iterator[Expr]:
    """Each distinct node of ``e`` once, so a shared subtree is walked once."""
    seen, stack = {e}, [e]
    while stack:
        x = stack.pop()
        yield x
        for k in _kids(x):
            if k not in seen:
                seen.add(k)
                stack.append(k)


def jets_of(e: Expr) -> tuple[Jet, ...]:
    """The distinct jet coordinates in ``e``, in canonical order (dependent
    variable, order, multi-index)."""
    return tuple(sorted({a for a in _distinct(e) if type(a) is Jet},
                        key=_term_order))


def jet_order(e: Expr) -> int:
    return max((len(a.idx) for a in _distinct(e) if type(a) is Jet), default=0)


def contains(e: Expr, atom: Expr) -> bool:
    return any(s == atom for s in _distinct(e))


# ---------------------------------------------------------------------------
# differentiation and substitution
# ---------------------------------------------------------------------------

def diff(e: Expr, v: Expr) -> Expr:
    """Partial derivative with respect to a single atom.

    Jet coordinates other than ``v`` count as constants; the derivative of
    an unknown function ``F(a_1, ..., a_m)`` is ``sum_k F_k(a) * da_k/dv``,
    the chain rule through every argument.
    """
    if not isinstance(v, (Var, Jet, Param)):
        raise UnknownSymbol(f"cannot differentiate with respect to {v!r}")
    return _partials(e).get(v, ZERO)


def partials(e: Expr) -> dict[Expr, Expr]:
    """Every partial derivative of ``e`` that is not structurally zero, keyed
    by atom (variable, jet coordinate or parameter), in one walk of the tree
    that visits each distinct subtree once.

    ``partials(e).get(v, ZERO)`` equals ``diff(e, v)`` node for node.  A
    compound node keeps its partials for as long as it lives, so a node
    walked before, by any call, is a lookup.  The returned dict is a copy
    and belongs to the caller.
    """
    # the recursion stays private: the benchmark's tracer wraps every public
    # function, and a traced public recursion would open a span per node
    return dict(_partials(e))


def _partials(e: Expr) -> dict[Expr, Expr]:
    """:func:`partials` of ``e``, shared and read-only.

    A compound node stores its partials in its ``_grads`` slot the first
    time it is walked, and every later walk, in this call or any other,
    reads them back."""
    # Each node applies the rule diff(node, v) would apply, for every atom v
    # below it at once; a child without v contributes a structural zero,
    # which add and mul drop, so it is skipped.
    if isinstance(e, (Var, Jet, Param)):
        return {e: ONE}
    if isinstance(e, Const):
        return {}
    out = e._grads
    if out is None:
        out = _node_partials(e)
        _set_grads(e, out)
    return out


def _node_partials(e: Expr) -> dict[Expr, Expr]:
    parts: dict[Expr, list[Expr]] = {}
    if isinstance(e, Add):
        for t in e.terms:
            for v, d in _partials(t).items():
                parts.setdefault(v, []).append(d)
    elif isinstance(e, Mul):
        coeff, fs = e.coeff, e.factors
        for i, f in enumerate(fs):
            grads = _partials(f)
            if grads:
                rest = fs[:i] + fs[i + 1:]
                for v, d in grads.items():
                    parts.setdefault(v, []).append(_merge_term(coeff, d, rest))
    elif isinstance(e, UFunc):
        # chain rule; a bare atom argument contributes F_k itself
        for k, a in enumerate(e.args):
            grads = _partials(a)
            if grads:
                fk = (UFunc(e.name, e.args, e.deriv + (k,)),)
                for v, d in grads.items():
                    parts.setdefault(v, []).append(_merge_term(_Q1, d, fk))
    else:
        # chain rule; the outer derivative is built even for a constant
        # argument (func rejects log(0) when the node is built, so no log
        # node has a zero argument)
        if isinstance(e, Pow):
            outer = (Const(e.exp), pow_(e.base, e.exp - 1))
            grads = _partials(e.base)
        elif isinstance(e, Func):
            grads = _partials(e.arg)
            if e.fname == "exp":
                outer = (func("exp", e.arg),)
            elif e.fname == "log":
                outer = (pow_(e.arg, Fraction(-1)),)
            elif e.fname == "sin":
                outer = (func("cos", e.arg),)
            else:
                outer = (neg(func("sin", e.arg)),)
        else:
            raise TypeError(type(e))
        return _nonzero({v: mul(*outer, d) for v, d in grads.items()})
    # a lone partial is canonical already, and add would return it equal
    return _nonzero({v: add(*ds) if len(ds) > 1 else ds[0]
                     for v, ds in parts.items()})


def _nonzero(grads: dict[Expr, Expr]) -> dict[Expr, Expr]:
    return {v: d for v, d in grads.items() if type(d) is not Const or d.value}


def substitute(e: Expr, bindings: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous substitution of atoms, followed by normalization."""
    for k in bindings:
        if not isinstance(k, (Var, Jet, Param, UFunc)):
            raise UnknownSymbol(f"substitution key {k!r} is not an atom")
    return _map(e, _rebuild, lambda x: None if (
        hit := bindings.get(x)) is None else _coerce(hit))


# ---------------------------------------------------------------------------
# expansion and zero testing
# ---------------------------------------------------------------------------

# The kernel of expand builds on the constructors above, so it is imported
# only once they exist.
from ._distributed import _CONST_POW_BITS, _Poly, _cap_error  # noqa: E402


def expand(e: Expr, max_rounds: int = 12) -> Expr:
    """Multiply out products and integer powers of sums, then merge
    integer-shifted powers of common sum bases, in rounds (described in the
    module docstring), to a fixed point.  Raises
    :class:`SimplificationIncomplete` when ``max_rounds`` rounds pass without
    one that reproduces its input, and when a power of a sum or a shift
    between two powers of one sum would be multiplied out with an exponent
    above 64 (``liesym._distributed._EXPAND_POW_CAP``).
    """
    return _Poly().fixed_point(e, max_rounds)


def is_zero(e: Expr) -> bool:
    """True iff the expression is provably the constant zero.

    Func applications are treated as opaque atoms, so identities like
    ``sin^2 + cos^2 = 1`` are (by design) not recognized.  Raises
    :class:`SimplificationIncomplete` rather than answer an unconfirmed False.
    """
    return expand(e) == ZERO


def equal(a: Expr, b: Expr) -> bool:
    return is_zero(sub(a, b))


# ---------------------------------------------------------------------------
# collection into monomials
# ---------------------------------------------------------------------------

def collect(e: Expr, variables: Iterable[Expr]) -> dict[Expr, Expr]:
    """Write ``e`` as a sum of monomial * coefficient over ``variables``.

    The expression must be polynomial in the given atoms; monomial keys are
    power products (``ONE`` for the constant part) and coefficients are free
    of the variables.  Zero coefficients are dropped.  A
    :class:`NotPolynomial` carries the offending variable or factor as its
    ``expr``.
    """
    vars_ = set(variables)
    k = _Poly()
    poly = k.monomials(e)
    out: dict[tuple, dict] = {}
    for m, c in poly.items():
        mono, rest, bad = [], [], []
        for p in m:
            b = k.gens[p[0]]
            if b in vars_:
                (bad if p[1] < 0 or p[1].denominator != 1 else mono).append(p)
            else:
                (bad if any(contains(b, v) for v in vars_) else rest).append(p)
        if bad:
            g, x = k.first(bad)
            if k.gens[g] in vars_:
                raise NotPolynomial(f"variable {{}} occurs with non-polynomial "
                                    f"exponent {x}", k.gens[g])
            raise NotPolynomial("variable occurs inside non-polynomial factor {}",
                                k.product(((g, x),), 1))
        out.setdefault(tuple(mono), {})[tuple(rest)] = c
    return {k.product(m, 1): k.tree(rest) for m, rest in out.items()}


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, env: Mapping[Expr, Fraction]) -> Fraction:
    """Evaluate to an exact rational under an atom assignment."""
    def leaf(x):
        if isinstance(x, Const):
            return x.value
        if isinstance(x, (Var, Jet, Param, UFunc)):
            try:
                return Fraction(env[x])
            except KeyError:
                raise EvaluationError(f"no value assigned to {x!r}") from None
        if isinstance(x, Func):
            raise EvaluationError(f"cannot evaluate {x.fname} exactly")

    return _map(e, _value, leaf)


def _value(e: Expr, vals: tuple) -> Fraction:
    if isinstance(e, Add):
        return sum(vals, Fraction(0))
    if isinstance(e, Mul):
        return math.prod(vals, start=e.coeff)
    if isinstance(e, Pow):
        b = vals[0]
        if b == 0 and e.exp < 0:
            raise EvaluationError("division by zero during evaluation")
        r = _rat_power(b, e.exp, EvaluationError)
        if r is None:
            raise EvaluationError(f"{b} has no exact rational root of order {e.exp.denominator}")
        return r
    raise TypeError(type(e))
