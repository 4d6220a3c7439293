"""Canonical symbolic expressions over jet coordinates with exact rational arithmetic.

An expression is an immutable tree built from atoms (rational constants,
independent variables, jet coordinates u^alpha_J, ansatz parameters, and
derivatives of declared unknown functions) combined by sums, products, rational
powers and the elementary functions exp/log/sin/cos.

All constructors canonicalize: sums and products are flattened, like terms are
collected with exact rational coefficients, powers of a common base are merged,
and rational constants are folded.  Two expressions built from the same
mathematical content through the constructors compare equal structurally.
Powers of sums are *not* expanded automatically; :func:`expand` does that on
demand, and additionally merges powers of a common sum base whose exponents
differ by integers (the step that makes rational-function cancellations such as
``u_xx*(1+u_x^2)^(-1/2) - (1+u_x^2+...)*(1+u_x^2)^(-3/2)`` collapse exactly).

Contract: compound nodes must be built with :func:`add`, :func:`mul`,
:func:`pow_`, :func:`div` and :func:`func` (or the operators, which call them);
a tree so built is canonical, and no operation here re-canonicalizes its
input.  The node dataclasses are exported for ``isinstance`` checks and
atoms; a tree assembled from the raw compound dataclasses must first go
through :func:`normalize`.

:func:`partials` differentiates by every atom in one walk of the tree;
:func:`diff` is the single-atom view of it.  Sums cache their structural hash
on first use, because :func:`add` and :func:`mul` key dicts on factor tuples
that contain them; the cache takes no part in equality, ``repr`` or pickling.

Zero testing is syntactic after :func:`expand`; transcendental identities are
deliberately out of reach (``sin(x)^2 + cos(x)^2 - 1`` is reported as not
provably zero).  An :func:`expand` that reaches no fixed point within its round
limit raises :class:`~liesym.errors.SimplificationIncomplete`, so
:func:`is_zero` never answers an unconfirmed False.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import (
    DegenerateExpression,
    EvaluationError,
    NotPolynomial,
    SimplificationIncomplete,
    UnknownSymbol,
)

Rat = Fraction

FUNC_NAMES = ("exp", "log", "sin", "cos")


def rat(num, den=1) -> Fraction:
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# node types
# ---------------------------------------------------------------------------

class Expr:
    """Base class; all concrete nodes are immutable dataclasses."""

    __slots__ = ()

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


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True, slots=True)
class Var(Expr):
    """Independent variable x^index, 1-based."""

    index: int


@dataclass(frozen=True, slots=True)
class Jet(Expr):
    """Jet coordinate u^dep_idx; ``idx`` is the sorted multi-index tuple."""

    dep: int
    idx: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "idx", tuple(sorted(self.idx)))

    @property
    def order(self) -> int:
        return len(self.idx)


@dataclass(frozen=True, slots=True)
class Param(Expr):
    """Unknown ansatz constant."""

    name: str


@dataclass(frozen=True, slots=True)
class UFunc(Expr):
    """Derivative of a declared unknown function.

    ``args`` are the atoms the function depends on (independent variables and
    order-0 jets); ``deriv`` is the sorted multiset of argument positions the
    function has been differentiated by.  Empty ``deriv`` is the function
    itself.
    """

    name: str
    args: tuple[Expr, ...]
    deriv: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "deriv", tuple(sorted(self.deriv)))


@dataclass(frozen=True, slots=True)
class Func(Expr):
    fname: str
    arg: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exp: Fraction


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    """coeff * factors[0] * factors[1] * ...; factors sorted, coeff != 0."""

    coeff: Fraction
    factors: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Add(Expr):
    terms: tuple[Expr, ...]
    # Sums are the compound keys add and mul hash most often, inside factor
    # tuples; the hash is computed once, on first use.
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.terms,))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # string hashes differ between processes, so a pickle omits the cache
        return (Add, (self.terms,))


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot treat {x!r} as an expression")


def const(x) -> Const:
    return Const(Fraction(x))


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
# canonical ordering
# ---------------------------------------------------------------------------

def sort_key(e: Expr):
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, e.index)
    if isinstance(e, Jet):
        return (2, e.dep, len(e.idx), e.idx)
    if isinstance(e, Param):
        return (3, e.name)
    if isinstance(e, UFunc):
        return (4, e.name, e.deriv, tuple(sort_key(a) for a in e.args))
    if isinstance(e, Func):
        return (5, e.fname, sort_key(e.arg))
    if isinstance(e, Pow):
        return (6, sort_key(e.base), e.exp)
    if isinstance(e, Mul):
        return (7, tuple(sort_key(f) for f in e.factors), e.coeff)
    if isinstance(e, Add):
        return (8, tuple(sort_key(t) for t in e.terms))
    raise TypeError(type(e))


def _base_exp(f: Expr) -> tuple[Expr, Fraction]:
    if isinstance(f, Pow):
        return f.base, f.exp
    return f, Fraction(1)


def _factor_key(f: Expr):
    b, e = _base_exp(f)
    return (sort_key(b), e)


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------

def _split(e: Expr) -> tuple[Fraction, tuple[Expr, ...]]:
    """Split into (rational coefficient, unit factor tuple)."""
    if isinstance(e, Const):
        return e.value, ()
    if isinstance(e, Mul):
        return e.coeff, e.factors
    return Fraction(1), (e,)


def _term(coeff: Fraction, factors: tuple[Expr, ...]) -> Expr:
    if coeff == 0 or not factors:
        return Const(coeff)
    if len(factors) == 1:
        if coeff == 1:
            return factors[0]
        # distribute a scalar over a lone sum so that e - e collapses
        if isinstance(factors[0], Add):
            return add(*(mul(Const(coeff), t) for t in factors[0].terms))
    return Mul(coeff, factors)


def add(*args) -> Expr:
    acc: dict[tuple[Expr, ...], Fraction] = {}
    stack = [_coerce(a) for a in args]
    for a in stack:
        terms = a.terms if isinstance(a, Add) else (a,)
        for t in terms:
            c, fs = _split(t)
            if c == 0:
                continue
            acc[fs] = acc.get(fs, Fraction(0)) + c
    out = [_term(c, fs) for fs, c in acc.items() if c != 0]
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=sort_key)
    return Add(tuple(out))


def mul(*args) -> Expr:
    coeff = Fraction(1)
    bases: dict[Expr, Fraction] = {}
    work = [_coerce(a) for a in reversed(args)]
    while work:
        a = work.pop()
        if isinstance(a, Const):
            coeff *= a.value
            if coeff == 0:
                return ZERO
            continue
        if isinstance(a, Mul):
            coeff *= a.coeff
            work.extend(reversed(a.factors))
            continue
        b, e = _base_exp(a)
        bases[b] = bases.get(b, 0) + e
    factors: list[Expr] = []
    products: list[Expr] = []
    for b, e in bases.items():
        if e == 0:
            continue
        f = pow_(b, e)
        if isinstance(f, Const):
            coeff *= f.value
        elif isinstance(f, Mul):
            # a product base whose fractional powers summed to an integer
            products.append(f)
        else:
            factors.append(f)
    if products:
        return mul(Const(coeff), *factors, *products)
    factors.sort(key=_factor_key)
    return _term(coeff, tuple(factors))


def neg(e: Expr) -> Expr:
    return mul(Const(Fraction(-1)), e)


def sub(a, b) -> Expr:
    return add(a, neg(_coerce(b)))


def _int_nth_root(n: int, k: int) -> int | None:
    """The exact integer k-th root of n >= 0, or None if n is no k-th power."""
    if n < 0:
        return None
    if n < 2:
        return n
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


def pow_(base, exponent) -> Expr:
    base = _coerce(base)
    e = Fraction(exponent)
    if e == 0:
        return ONE
    if e == 1:
        return base
    if isinstance(base, Const):
        v = base.value
        if v == 0:
            if e < 0:
                raise DegenerateExpression("0 raised to a negative power")
            return ZERO
        if v == 1:
            return ONE
        if e.denominator == 1:
            return Const(v ** e.numerator)
        rn = _int_nth_root(v.numerator, e.denominator)
        rd = _int_nth_root(v.denominator, e.denominator)
        if rn is not None and rd is not None:
            return Const(Fraction(rn, rd) ** e.numerator)
        return Pow(base, e)
    if isinstance(base, Pow) and e.denominator == 1:
        return pow_(base.base, base.exp * e)
    if isinstance(base, Mul) and e.denominator == 1:
        parts = [Const(base.coeff ** e.numerator)]
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
        if name == "log" and v == 1:
            return ZERO
        if name == "sin" and v == 0:
            return ZERO
        if name == "cos" and v == 0:
            return ONE
    return Func(name, arg)


# ---------------------------------------------------------------------------
# structural map and normalization
# ---------------------------------------------------------------------------

def _rebuild(e: Expr, f, *args) -> Expr:
    """Apply ``f(child, *args)`` to every child of ``e`` and rebuild the node
    through the constructors; atoms without children come back unchanged."""
    # map, unlike a comprehension, adds no Python frame per tree level
    fixed = [itertools.repeat(a) for a in args]
    if isinstance(e, Add):
        return add(*map(f, e.terms, *fixed))
    if isinstance(e, Mul):
        return mul(Const(e.coeff), *map(f, e.factors, *fixed))
    if isinstance(e, Pow):
        return pow_(f(e.base, *args), e.exp)
    if isinstance(e, Func):
        return func(e.fname, f(e.arg, *args))
    if isinstance(e, UFunc):
        return UFunc(e.name, tuple(map(f, e.args, *fixed)), e.deriv)
    return e


def normalize(e: Expr) -> Expr:
    """Canonicalize a tree built from the raw node dataclasses (idempotent).

    Trees built by the constructors are canonical already and come back equal.
    """
    return _rebuild(e, normalize)


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------

def subterms(e: Expr) -> Iterator[Expr]:
    yield e
    if isinstance(e, Add):
        for t in e.terms:
            yield from subterms(t)
    elif isinstance(e, Mul):
        for f in e.factors:
            yield from subterms(f)
    elif isinstance(e, Pow):
        yield from subterms(e.base)
    elif isinstance(e, Func):
        yield from subterms(e.arg)
    elif isinstance(e, UFunc):
        for a in e.args:
            yield from subterms(a)


def atoms_of(e: Expr) -> Iterator[Expr]:
    for s in subterms(e):
        if isinstance(s, (Var, Jet, Param, UFunc)):
            yield s


def jets_of(e: Expr) -> set[Jet]:
    return {a for a in atoms_of(e) if isinstance(a, Jet)}


def jet_order(e: Expr) -> int:
    return max((j.order for j in jets_of(e)), default=0)


def contains(e: Expr, atom: Expr) -> bool:
    return any(s == atom for s in subterms(e))


# ---------------------------------------------------------------------------
# differentiation and substitution
# ---------------------------------------------------------------------------

def diff(e: Expr, v: Expr) -> Expr:
    """Partial derivative with respect to a single atom.

    Jet coordinates other than ``v`` count as constants; derivatives of
    unknown functions follow the chain rule through matching argument slots.
    """
    if not isinstance(v, (Var, Jet, Param)):
        raise UnknownSymbol(f"cannot differentiate with respect to {v!r}")
    return _partials(e).get(v, ZERO)


def partials(e: Expr) -> dict[Expr, Expr]:
    """Every partial derivative of ``e`` that is not structurally zero, keyed
    by atom (variable, jet coordinate or parameter), in one walk of the tree.

    ``partials(e).get(v, ZERO)`` equals ``diff(e, v)`` node for node.
    """
    # the recursion stays private: the benchmark's tracer wraps every public
    # function, and a traced public recursion would open a span per node
    return _partials(e)


def _partials(e: Expr) -> dict[Expr, Expr]:
    # Each node applies the rule diff(node, v) would apply, for every atom v
    # below it at once; a child without v contributes a structural zero,
    # which add and mul drop, so it is skipped.
    if isinstance(e, (Var, Jet, Param)):
        return {e: ONE}
    if isinstance(e, Const):
        return {}
    parts: dict[Expr, list[Expr]] = {}
    if isinstance(e, Add):
        for t in e.terms:
            for v, d in _partials(t).items():
                parts.setdefault(v, []).append(d)
    elif isinstance(e, Mul):
        coeff, fs = Const(e.coeff), e.factors
        for i, f in enumerate(fs):
            grads = _partials(f)
            if grads:
                rest = fs[:i] + fs[i + 1:]
                for v, d in grads.items():
                    parts.setdefault(v, []).append(mul(coeff, d, *rest))
    elif isinstance(e, UFunc):
        # only a bare atom argument gets a chain-rule term
        for k, a in enumerate(e.args):
            if isinstance(a, (Var, Jet, Param)):
                parts.setdefault(a, []).append(UFunc(e.name, e.args, e.deriv + (k,)))
    else:
        # chain rule; the outer derivative is built even for a constant
        # argument, so a log(0) anywhere in the tree raises DegenerateExpression
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
    return _nonzero({v: add(*ds) for v, ds in parts.items()})


def _nonzero(grads: dict[Expr, Expr]) -> dict[Expr, Expr]:
    return {v: d for v, d in grads.items() if d != ZERO}


def substitute(e: Expr, bindings: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous substitution of atoms, followed by normalization."""
    for k in bindings:
        if not isinstance(k, (Var, Jet, Param, UFunc)):
            raise UnknownSymbol(f"substitution key {k!r} is not an atom")
    return _subst(e, bindings)


def _subst(e: Expr, b: Mapping[Expr, Expr]) -> Expr:
    hit = b.get(e)
    if hit is not None:
        return _coerce(hit)
    return _rebuild(e, _subst, b)


def substitute_functions(e: Expr, table: Mapping[str, tuple[tuple[Expr, ...], Expr]]) -> Expr:
    """Replace unknown functions by concrete expressions.

    ``table`` maps a function name to ``(args, body)``; a derivative node is
    replaced by the matching iterated partial derivative of ``body``.
    """
    if isinstance(e, UFunc):
        if e.name not in table:
            return e
        args, body = table[e.name]
        if len(args) != len(e.args):
            raise UnknownSymbol(f"arity mismatch for unknown function {e.name!r}")
        out = body
        for pos in e.deriv:
            out = diff(out, args[pos])
        return out
    return _rebuild(e, substitute_functions, table)


# ---------------------------------------------------------------------------
# expansion and zero testing
# ---------------------------------------------------------------------------

_EXPAND_POW_CAP = 64


def _distribute(factors: list[Expr], coeff: Fraction) -> Expr:
    """Multiply out, distributing over every Add factor."""
    flat: list[list[Expr]] = []
    for f in factors:
        if isinstance(f, Add):
            flat.append(list(f.terms))
        else:
            flat.append([f])
    parts = []
    for combo in itertools.product(*flat):
        parts.append(mul(Const(coeff), *combo))
    return add(*parts)


def _expand_once(e: Expr) -> Expr:
    if isinstance(e, Pow):
        base = _expand_once(e.base)
        if (
            isinstance(base, Add)
            and e.exp.denominator == 1
            and 1 < e.exp.numerator <= _EXPAND_POW_CAP
        ):
            return _distribute([base] * e.exp.numerator, Fraction(1))
        return pow_(base, e.exp)
    if isinstance(e, Mul):
        factors = []
        for f in e.factors:
            g = _expand_once(f)
            if isinstance(g, Mul):
                factors.append(Const(g.coeff))
                factors.extend(g.factors)
            else:
                factors.append(g)
        # re-run integer powers of sums through distribution
        expanded = []
        coeff = e.coeff
        for f in factors:
            if isinstance(f, Const):
                coeff *= f.value
                continue
            if (
                isinstance(f, Pow)
                and isinstance(f.base, Add)
                and f.exp.denominator == 1
                and 1 < f.exp.numerator <= _EXPAND_POW_CAP
            ):
                expanded.extend([f.base] * f.exp.numerator)
            else:
                expanded.append(f)
        if any(isinstance(f, Add) for f in expanded):
            return _distribute(expanded, coeff)
        return mul(Const(coeff), *expanded)
    return _rebuild(e, _expand_once)


def _merge_sum_powers(e: Expr) -> Expr:
    """Factor powers of a common sum base whose exponents differ by integers.

    ``a*S^(-1/2) + b*S^(-3/2)`` becomes ``(a*S + b)*S^(-3/2)`` with the integer
    part multiplied out, which lets rational-function cancellations finish.
    """
    if not isinstance(e, Add):
        return e
    exponents: dict[Expr, set[Fraction]] = {}
    term_bases: list[set[Expr]] = []
    for t in e.terms:
        _, fs = _split(t)
        bases = set()
        for f in fs:
            b, ex = _base_exp(f)
            if isinstance(b, Add):
                exponents.setdefault(b, set()).add(ex)
                bases.add(b)
        term_bases.append(bases)
    targets: dict[Expr, Fraction] = {}
    for b, exps in exponents.items():
        exps = set(exps)
        # terms lacking the base count as exponent 0 and get pulled over the
        # common denominator, provided the shift stays integral
        if any(b not in bs for bs in term_bases) and \
                min(exps) < 0 and min(exps).denominator == 1:
            exps.add(Fraction(0))
        if len(exps) < 2:
            continue
        mn = min(exps)
        if all((x - mn).denominator == 1 for x in exps):
            targets[b] = mn
    if not targets:
        return e
    new_terms = []
    for t in e.terms:
        c, fs = _split(t)
        extra: list[Expr] = []
        kept: list[Expr] = []
        present: set[Expr] = set()
        for f in fs:
            b, ex = _base_exp(f)
            mn = targets.get(b)
            if mn is not None:
                present.add(b)
                if ex != mn:
                    k = ex - mn
                    if k.denominator == 1 and k > 0:
                        if mn != 0:
                            kept.append(Pow(b, mn))
                        extra.extend([b] * k.numerator)
                        continue
            kept.append(f)
        for b, mn in targets.items():
            if b not in present and mn < 0 and mn.denominator == 1:
                kept.append(Pow(b, mn))
                extra.extend([b] * (-mn.numerator))
        if extra:
            new_terms.append(_distribute(kept + extra, c))
        else:
            new_terms.append(_term(c, tuple(fs)))
    return add(*new_terms)


def expand(e: Expr, max_rounds: int = 12) -> Expr:
    """Fully distribute products and integer powers of sums, then merge
    integer-shifted powers of common sum bases, iterating to a fixed point.

    Raises :class:`SimplificationIncomplete` when ``max_rounds`` rounds pass
    without one that reproduces its input.
    """
    cur = e
    for _ in range(max_rounds):
        nxt = _merge_sum_powers(_expand_once(cur))
        if nxt == cur:
            return cur
        cur = nxt
    raise SimplificationIncomplete(
        f"expand reached no fixed point within {max_rounds} rounds"
    )


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
    of the variables.  Zero coefficients are dropped.
    """
    vars_ = set(variables)
    ex = expand(e)
    if ex == ZERO:
        return {}
    out: dict[Expr, list[Expr]] = {}
    terms = ex.terms if isinstance(ex, Add) else (ex,)
    for t in terms:
        c, fs = _split(t)
        mono: list[Expr] = []
        coefs: list[Expr] = []
        for f in fs:
            b, exp = _base_exp(f)
            if b in vars_:
                if exp.denominator != 1 or exp < 0:
                    raise NotPolynomial(
                        f"variable {b!r} occurs with non-polynomial exponent {exp}"
                    )
                mono.append(f)
            else:
                if any(contains(f, v) for v in vars_):
                    raise NotPolynomial(
                        f"variable occurs inside non-polynomial factor {f!r}"
                    )
                coefs.append(f)
        key = mul(*mono) if mono else ONE
        out.setdefault(key, []).append(_term(c, tuple(coefs)))
    result = {}
    for key, parts in out.items():
        coef = add(*parts)
        if coef != ZERO:
            result[key] = coef
    return result


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, env: Mapping[Expr, Fraction]) -> Fraction:
    """Evaluate to an exact rational under an atom assignment."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, Jet, Param)):
        try:
            return Fraction(env[e])
        except KeyError:
            raise EvaluationError(f"no value assigned to {e!r}") from None
    if isinstance(e, UFunc):
        try:
            return Fraction(env[e])
        except KeyError:
            raise EvaluationError(f"no value assigned to {e!r}") from None
    if isinstance(e, Add):
        return sum((evaluate(t, env) for t in e.terms), Fraction(0))
    if isinstance(e, Mul):
        out = e.coeff
        for f in e.factors:
            out *= evaluate(f, env)
        return out
    if isinstance(e, Pow):
        b = evaluate(e.base, env)
        if e.exp.denominator == 1:
            if b == 0 and e.exp < 0:
                raise EvaluationError("division by zero during evaluation")
            return b ** e.exp.numerator
        rn = _int_nth_root(b.numerator, e.exp.denominator)
        rd = _int_nth_root(b.denominator, e.exp.denominator)
        if rn is None or rd is None:
            raise EvaluationError(f"{b} has no exact rational root of order {e.exp.denominator}")
        return Fraction(rn, rd) ** e.exp.numerator
    if isinstance(e, Func):
        raise EvaluationError(f"cannot evaluate {e.fname} exactly")
    raise TypeError(type(e))
