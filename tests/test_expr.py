"""Core expression engine: canonicalization, differentiation, substitution,
zero testing, collection, exact evaluation."""
import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from fractions import Fraction
from typing import Iterable

import pytest

import liesym as ls
from liesym import Add, Const, Func, Jet, Mul, Param, Pow, UFunc, Var
from liesym.expr import (
    ONE,
    ZERO,
    Expr,
    NotPolynomial,
    _NODES,
    _Poly,
    _factor_order,
    _term,
    _term_order,
    add,
    contains,
    expand,
    mul,
    subterms,
)

from liesym._distributed import _Exp, _num

from conftest import base_exp as _base_exp
from conftest import split_term as _split
from conftest import rand_expr, rand_poly, rand_rational, ref_add, same_tree
from conftest import ref_product, ref_rebuild, ref_times

x = Var(1)
u = Jet(1, ())
ux = Jet(1, (1,))
uxx = Jet(1, (1, 1))


def ref_diff(e, v):
    """Single-variable differentiation, one tree walk per variable: the
    reference that every partial derivative :func:`ls.partials` returns must
    equal node for node."""
    if e == v:
        return ONE
    if isinstance(e, (Const, Var, Jet, Param)):
        return ZERO
    if isinstance(e, UFunc):
        # the chain rule through every argument
        return ls.add(*(ls.mul(UFunc(e.name, e.args, e.deriv + (k,)), ref_diff(a, v))
                        for k, a in enumerate(e.args)))
    if isinstance(e, Add):
        return ls.add(*(ref_diff(t, v) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(ls.mul(Const(e.coeff), ref_diff(f, v), *rest))
        return ls.add(*parts)
    if isinstance(e, Pow):
        return ls.mul(Const(e.exp), ls.pow_(e.base, e.exp - 1), ref_diff(e.base, v))
    if isinstance(e, Func):
        d = ref_diff(e.arg, v)
        if e.fname == "exp":
            outer = ls.func("exp", e.arg)
        elif e.fname == "log":
            outer = ls.pow_(e.arg, Fraction(-1))
        elif e.fname == "sin":
            outer = ls.func("cos", e.arg)
        else:
            outer = ls.neg(ls.func("sin", e.arg))
        return ls.mul(outer, d)
    raise TypeError(type(e))


# The canonical order as a key function, kept verbatim from the version of
# liesym.expr that sorted with it: the reference the comparators must match.
def sort_key(e):
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


def factor_key(f):
    if isinstance(f, Pow):
        return (sort_key(f.base), f.exp)
    return (sort_key(f), Fraction(1))


# The tree-walking expand, kept verbatim from the version of liesym.expr
# before its sparse distributed kernel (names prefixed with ref_): the
# reference the kernel's output must equal node for node.  It leaves a power
# of a sum above the cap unexpanded, where the kernel raises.
REF_EXPAND_POW_CAP = 64


def ref_distribute(factors, coeff):
    """Multiply out, distributing over every Add factor."""
    flat = []
    for f in factors:
        if isinstance(f, Add):
            flat.append(list(f.terms))
        else:
            flat.append([f])
    parts = []
    for combo in itertools.product(*flat):
        parts.append(ls.mul(Const(coeff), *combo))
    return ls.add(*parts)


def ref_expand_once(e):
    if isinstance(e, Pow):
        base = ref_expand_once(e.base)
        if (
            isinstance(base, Add)
            and e.exp.denominator == 1
            and 1 < e.exp.numerator <= REF_EXPAND_POW_CAP
        ):
            return ref_distribute([base] * e.exp.numerator, Fraction(1))
        return ls.pow_(base, e.exp)
    if isinstance(e, Mul):
        factors = []
        for f in e.factors:
            g = ref_expand_once(f)
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
                and 1 < f.exp.numerator <= REF_EXPAND_POW_CAP
            ):
                expanded.extend([f.base] * f.exp.numerator)
            else:
                expanded.append(f)
        if any(isinstance(f, Add) for f in expanded):
            return ref_distribute(expanded, coeff)
        return ls.mul(Const(coeff), *expanded)
    return ref_rebuild(e, ref_expand_once)


def ref_merge_sum_powers(e):
    """Factor powers of a common sum base whose exponents differ by integers."""
    if not isinstance(e, Add):
        return e
    exponents = {}
    term_bases = []
    for t in e.terms:
        _, fs = _split(t)
        bases = set()
        for f in fs:
            b, ex = _base_exp(f)
            if isinstance(b, Add):
                exponents.setdefault(b, set()).add(ex)
                bases.add(b)
        term_bases.append(bases)
    targets = {}
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
        extra = []
        kept = []
        present = set()
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
            new_terms.append(ref_distribute(kept + extra, c))
        else:
            new_terms.append(_term(c, tuple(fs)))
    return ls.add(*new_terms)


def ref_expand(e, max_rounds=12):
    cur = e
    for _ in range(max_rounds):
        nxt = ref_merge_sum_powers(ref_expand_once(cur))
        if nxt == cur:
            return cur
        cur = nxt
    raise ls.SimplificationIncomplete(
        f"expand reached no fixed point within {max_rounds} rounds"
    )


def key_sign(key, a, b):
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


class TestNormalize:
    def test_like_terms(self):
        assert ls.add(x, x) == ls.mul(2, x)

    def test_product_power_merge(self):
        assert ls.sub(ls.mul(ux, ux), ls.pow_(ux, 2)) == ls.Const(Fraction(0))
        # fractional powers of a product base that sum to an integer
        h = ls.pow_(ls.mul(2, x), Fraction(1, 2))
        assert ls.mul(h, h) == ls.mul(2, x)
        assert ls.mul(h, x, h) == ls.mul(2, ls.pow_(x, 2))

    def test_commutativity(self):
        a = ls.add(1, ls.pow_(ux, 2))
        b = ls.add(ls.pow_(ux, 2), 1)
        assert a == b

    def test_idempotent(self, rng):
        atoms = [x, u, ux, Param("c")]
        for _ in range(200):
            e = rand_expr(rng, atoms)
            assert ls.normalize(e) == e

    def test_zero_power_negative_exponent_rejected(self):
        with pytest.raises(ls.DegenerateExpression):
            ls.pow_(ls.Const(0), -1)

    def test_log_zero_rejected(self):
        with pytest.raises(ls.DegenerateExpression, match="log"):
            ls.func("log", 0)
        # also where a substitution makes the argument zero
        e = ls.func("log", u)
        with pytest.raises(ls.DegenerateExpression, match="log"):
            ls.substitute(e, {u: ZERO})
        assert ls.substitute(e, {u: ONE}) == ZERO

    def test_pow_folding(self):
        assert ls.pow_(x, 0) == ls.Const(1)
        assert ls.pow_(x, 1) == x
        assert ls.pow_(ls.Const(Fraction(4)), Fraction(1, 2)) == ls.Const(2)
        assert ls.pow_(ls.Const(Fraction(8, 27)), Fraction(2, 3)) == ls.Const(Fraction(4, 9))
        # no exact rational root: stays symbolic
        assert isinstance(ls.pow_(ls.Const(2), Fraction(1, 2)), Pow)
        # roots too large or too close for a float are still found exactly
        assert ls.pow_(ls.Const(10**400), Fraction(1, 2)) == ls.Const(10**200)
        n = 3**40 + 1
        assert ls.is_zero(ls.sub(ls.pow_(ls.Const(n * n), Fraction(1, 2)), n))
        assert ls.pow_(ls.Const(n**3), Fraction(2, 3)) == ls.Const(n**2)
        assert isinstance(ls.pow_(ls.Const(n**3 + 1), Fraction(1, 3)), Pow)

    def test_mul_zero_short_circuit(self):
        assert ls.mul(0, ux, ls.func("exp", x)) == ls.Const(0)

    def test_int_const_powers_stay_exact(self):
        # a Const built directly from an int must not reach a float
        for e, want in [(ls.pow_(Const(2), -1), Fraction(1, 2)),
                        (Const(3) ** -2, Fraction(1, 9))]:
            assert isinstance(e, Const)
            assert type(e.value) is Fraction and e.value == want
        q = ls.div(x, Const(3))
        assert isinstance(q, Mul) and q.factors == (x,)
        assert type(q.coeff) is Fraction and q.coeff == Fraction(1, 3)
        assert ls.evaluate(q, {x: Fraction(1)}) == Fraction(1, 3)
        assert type(ls.evaluate(q, {x: Fraction(1)})) is Fraction
        assert ls.format_expr(q, ls.Context(("x",), ("u",))) == "(1/3)*x"

    def test_constant_powers_are_bounded(self):
        # a result of up to 2^20 bits is computed; a larger one raises before
        # any work, from pow_ on a constant, a root of one or a product's
        # coefficient, and from evaluate
        assert ls.pow_(2, 2**19 - 1) == Const(2 ** (2**19 - 1))
        assert ls.pow_(Fraction(-1, 1), 10**9 + 1) == Const(-1)
        limit = "exceeds the size limit of 1048576 bits"
        for e, n in [(3, 10**9), (Fraction(1, 2), -2**19 - 1),
                     (ls.mul(3, x), 10**9), (4, Fraction(10**9 + 1, 2))]:
            with pytest.raises(ls.SimplificationIncomplete) as info:
                ls.pow_(e, n)
            assert str(info.value) == \
                f"power of a constant with exponent {Fraction(n)} {limit}"
        with pytest.raises(ls.SimplificationIncomplete,
                           match=f"exponent of 5001 digits {limit}"):
            ls.pow_(3, 10**5000)
        p = ls.pow_(x, 10**9)
        assert ls.evaluate(p, {x: Fraction(-1)}) == 1
        for v in (Fraction(3), Fraction(9, 4)):
            with pytest.raises(ls.EvaluationError, match=limit):
                ls.evaluate(p, {x: v})
        with pytest.raises(ls.EvaluationError, match=limit):
            ls.evaluate(ls.pow_(x, Fraction(10**9 + 1, 2)), {x: Fraction(9, 4)})
        # a root order past the bit length has no exact root to look for;
        # without that shortcut the search computes 2^(10^9 - 1)
        start = time.perf_counter()
        assert isinstance(ls.pow_(3, Fraction(1, 10**9)), Pow)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ls.EvaluationError, match="no exact rational root"):
            ls.evaluate(ls.pow_(x, Fraction(1, 10**9)), {x: Fraction(3, 2)})
        assert ls.pow_(Fraction(1, 4), Fraction(1, 2)) == Const(Fraction(1, 2))
        # zero to a negative fractional power is no ZeroDivisionError either
        with pytest.raises(ls.EvaluationError, match="division by zero"):
            ls.evaluate(ls.pow_(x, Fraction(-1, 2)), {x: Fraction(0)})


class TestDiff:
    def test_polynomial(self):
        e = ls.mul(ls.pow_(x, 2), u)
        assert ls.diff(e, x) == ls.mul(2, x, u)

    def test_jet_power(self):
        assert ls.diff(ls.pow_(ux, 2), ux) == ls.mul(2, ux)

    def test_jets_are_independent(self):
        assert ls.diff(ux, u) == ls.Const(0)
        assert ls.diff(u, ux) == ls.Const(0)

    def test_unknown_function_chain_rule(self):
        ctx = ls.Context(("x", "t"), ("u",), (), (("xi", ("x", "t", "u")),))
        xi = ctx.ufunc("xi")
        assert ls.diff(xi, u) == ctx.ufunc("xi", "u")
        assert ls.diff(ctx.ufunc("xi", "x"), u) == ctx.ufunc("xi", "x", "u")

    def test_elementary_functions(self):
        assert ls.diff(ls.func("sin", x), x) == ls.func("cos", x)
        assert ls.diff(ls.func("cos", x), x) == ls.neg(ls.func("sin", x))
        assert ls.diff(ls.func("exp", u), u) == ls.func("exp", u)
        assert ls.diff(ls.func("log", x), x) == ls.pow_(x, -1)

    def test_linearity_and_leibniz(self, rng):
        atoms = [x, u, ux]
        for _ in range(100):
            e1 = rand_poly(rng, atoms)
            e2 = rand_poly(rng, atoms)
            v = rng.choice(atoms)
            lhs = ls.diff(ls.mul(e1, e2), v)
            rhs = ls.add(ls.mul(ls.diff(e1, v), e2), ls.mul(e1, ls.diff(e2, v)))
            assert ls.is_zero(ls.sub(lhs, rhs))

    def test_undeclared_symbol(self):
        with pytest.raises(ls.UnknownSymbol):
            ls.diff(x, ls.func("sin", x))

    def test_compound_unknown_argument_follows_the_chain_rule(self):
        g = UFunc("G", (u, ls.add(x, ux)))
        g0, g1 = UFunc("G", g.args, (0,)), UFunc("G", g.args, (1,))
        assert ls.diff(g, u) is g0
        assert ls.diff(g, x) is g1 and ls.diff(g, ux) is g1
        assert ls.partials(g) == {u: g0, x: g1, ux: g1}
        # d/dx F(x, x^2) = F_0(x, x^2) + 2*x*F_1(x, x^2)
        f = ls.substitute(UFunc("F", (x, u)), {u: ls.pow_(x, 2)})
        want = ls.add(UFunc("F", f.args, (0,)), ls.mul(2, x, UFunc("F", f.args, (1,))))
        assert ls.diff(f, x) is want and ls.total_derivative(f, 1) is want

    def test_diff_commutes_with_substitute_by_the_chain_rule(self, rng):
        # d/dx e(x, g(x)) = (de/dx + de/du * dg/dx)(x, g(x)) over random
        # trees of unknown functions, some with compound arguments
        def tree(atoms, depth):
            if depth == 0 or rng.random() < 0.3:
                return Const(rng.randint(-3, 3)) if rng.random() < 0.2 else rng.choice(atoms)
            op, a = rng.randrange(4), tree(atoms, depth - 1)
            if op == 0:
                return ls.add(a, tree(atoms, depth - 1))
            if op == 1:
                return ls.mul(a, tree(atoms, depth - 1))
            if op == 2:
                return ls.pow_(ls.add(a, 1) if a is ZERO else a, rng.choice((2, 3, -1)))
            return UFunc("K", (a, tree(atoms, depth - 1)))

        e_atoms = [x, u, UFunc("F", (x, u)), UFunc("F", (x, u), (1,)), UFunc("G", (u,))]
        g_atoms = [x, UFunc("H", (x,))]
        compound = 0
        for _ in range(60):
            e, g = tree(e_atoms, 3), tree(g_atoms, 2)
            lhs = ls.diff(ls.substitute(e, {u: g}), x)
            rhs = ls.substitute(ls.add(ls.diff(e, x), ls.mul(ls.diff(e, u), ls.diff(g, x))),
                                {u: g})
            assert ls.is_zero(ls.sub(lhs, rhs))
            compound += any(type(s) is UFunc and any(type(a) not in (Var, Jet)
                                                     for a in s.args)
                            for s in subterms(lhs))
        assert compound > 20


class TestPartials:
    c = Param("c")
    # unknown functions with a repeated argument atom and a compound argument
    F = UFunc("F", (x, x))
    G = UFunc("G", (u, ls.add(x, ux)), (1,))
    ATOMS = [x, u, ux, c, F, UFunc("F", (x, x), (1,)), G]

    def trees(self, rng, n):
        return [rand_expr(rng, self.ATOMS, depth=4) for _ in range(n)]

    def test_trees_cover_every_rule(self, rng):
        seen = set()
        for e in self.trees(rng, 300):
            for s in subterms(e):
                if isinstance(s, Mul) and s.coeff.denominator != 1:
                    seen.add("rational coeff")
                elif isinstance(s, Pow):
                    seen.add("negative exp" if s.exp < 0 else "positive exp")
                    if s.exp.denominator != 1:
                        seen.add("fractional exp")
                elif isinstance(s, Func):
                    seen.add(s.fname)
                elif isinstance(s, (Add, Param)):
                    seen.add(type(s).__name__)
                elif isinstance(s, UFunc):
                    seen.add(s.name)
        assert seen == {"rational coeff", "negative exp", "positive exp",
                        "fractional exp", "exp", "log", "sin", "cos",
                        "Add", "Param", "F", "G"}

    def test_matches_reference(self, rng):
        for e in self.trees(rng, 300):
            wrt = {a for a in ls.atoms_of(e) if isinstance(a, (Var, Jet, Param))}
            wrt |= {x, u, ux, self.c, uxx}
            ref = {v: ref_diff(e, v) for v in wrt}
            for v, d in ref.items():
                assert ls.diff(e, v) == d
            assert ls.partials(e) == {v: d for v, d in ref.items() if d != ZERO}

    def test_repeated_argument(self):
        # one term per matching argument slot
        assert ls.partials(ls.mul(3, self.F)) == {
            x: ls.add(ls.mul(3, UFunc("F", (x, x), (0,))),
                      ls.mul(3, UFunc("F", (x, x), (1,))))}

    def test_cancelling_partial_is_dropped(self):
        # d/du of u*x - x*(1 + u) cancels inside the sum rule
        e = ls.add(ls.mul(u, x), ls.mul(-1, x, ls.add(1, u)))
        assert ref_diff(e, u) == ZERO
        assert ls.partials(e) == {x: Const(-1)}
        assert ls.partials(Const(5)) == {}


class TestAddHash:
    def test_equal_sums_hash_equal(self):
        s1 = ls.add(x, u, ls.mul(2, ux))
        s2 = ls.add(ls.mul(2, ux), ls.add(u, x))
        s3 = ls.sub(ls.add(x, u, ux, ux, ux), ux)
        for s in (s2, s3):
            assert s is s1 and hash(s) == hash(s1)
        assert isinstance(s1, Add)
        assert hash(s1) == object.__hash__(s1)
        assert ls.mul(2, ls.pow_(s3, 3)) is ls.mul(ls.pow_(s1, 3), 2)

    def test_repr_and_pickle_omit_cache(self):
        s = ls.add(x, u)
        assert repr(s) == "Add(terms=(Var(index=1), Jet(dep=1, idx=())))"
        assert s.__reduce__() == (Add, (s.terms,))
        assert pickle.loads(pickle.dumps(s)) is s


class TestUFuncHash:
    def test_hash_is_the_identity(self):
        f = UFunc("F", (x, u), (1, 0))
        assert f.deriv == (0, 1) and f is UFunc("F", (x, u), (0, 1))
        assert hash(f) == object.__hash__(f)

    def test_equal_functions_hash_equal(self):
        f1 = UFunc("F", (x, u), (0, 1))
        f2 = UFunc("F", (Var(1), Jet(1, ())), (1, 0))
        f3 = ls.diff(ls.diff(UFunc("F", (x, u)), u), x)
        for f in (f2, f3):
            assert f is f1 and hash(f) == hash(f1)
        assert ls.mul(2, ls.pow_(f3, 3)) is ls.mul(ls.pow_(f1, 3), 2)

    def test_copies_keep_the_hash(self):
        f = UFunc("F", (x, u), (0,))
        h = hash(f)
        assert [fd.name for fd in dataclasses.fields(f)] == [
            "name", "args", "deriv"]
        assert repr(f) == (
            "UFunc(name='F', args=(Var(index=1), Jet(dep=1, idx=())), deriv=(0,))")
        for c in (pickle.loads(pickle.dumps(f)), dataclasses.replace(f)):
            assert c is f and hash(c) == h
        other = dataclasses.replace(f, name="G")
        assert other is UFunc("G", (x, u), (0,))
        assert hash(other) == object.__hash__(other)


class TestInternedAtoms:
    """``Var`` and ``Jet`` are interned: equal coordinates are one object,
    which compares and hashes by identity."""

    def test_one_object_per_coordinate(self):
        j = Jet(1, (2, 1))
        assert j is Jet(1, [1, 2]) and j is Jet(1, (1, 2))
        assert j.idx == (1, 2) and j.order == 2
        assert Var(2) is Var(2)
        assert Jet(1, ()) is u and Var(1) is x

    def test_copies_return_the_node(self):
        j, v = Jet(1, (2, 1, 1)), Var(2)
        for node in (j, v):
            assert pickle.loads(pickle.dumps(node)) is node
            assert copy.copy(node) is node
            assert copy.deepcopy(node) is node
        assert dataclasses.replace(j, idx=(2,)) is Jet(1, (2,))
        assert dataclasses.replace(v, index=3) is Var(3)
        assert dataclasses.replace(j) is j
        assert repr(j) == "Jet(dep=1, idx=(1, 1, 2))" and repr(v) == "Var(index=2)"
        assert Jet.__match_args__ == ("dep", "idx")
        assert Var.__match_args__ == ("index",)

    def test_hash_is_the_identity(self):
        for j in (u, ux, Jet(2, (2, 1)), Jet(1, (1, 1, 2, 2))):
            assert hash(j) == object.__hash__(j)
            assert hash(Jet(j.dep, j.idx[::-1])) == hash(j)
        for v in (x, Var(2), Var(7)):
            assert hash(v) == object.__hash__(v) == hash(Var(v.index))

    def test_compares_only_to_itself(self):
        j = Jet(1, (1,))
        assert (j == 1) is False and (j != 1) is True
        assert j != Var(1) and Var(1) != Jet(1, ()) and Var(1) != 1
        assert j.__eq__(1) is NotImplemented
        assert j == Jet(1, (1,)) and j != Jet(1, (2,))

    def test_threads_build_one_object(self):
        # rounds of coordinates no other test builds, so that the threads
        # race on misses; in each, every thread builds the same 200 jets
        def work(t, keys, start, built):
            start.wait()
            built[t] = [Jet(d, i[::-1] if t % 2 else list(i)) for d, i in keys]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r in range(10):
                keys = [(1000 + 50 * r + k % 50, (k // 50 + 1, 1)) for k in range(200)]
                start, built = threading.Barrier(8), [None] * 8
                threads = [threading.Thread(target=work, args=(t, keys, start, built))
                           for t in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for k, (d, i) in enumerate(keys):
                    assert len({id(b[k]) for b in built}) == 1
                    assert built[0][k] is Jet(d, tuple(sorted(i)))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("build", [
        lambda: Jet(0, ()), lambda: Jet(-1, (1,)), lambda: Jet(1, (0,)),
        lambda: Jet(1, (2, 0)), lambda: Var(0), lambda: Var(-1),
    ])
    def test_no_coordinate_below_one(self, build):
        with pytest.raises(ls.UnknownSymbol):
            build()

    @pytest.mark.parametrize("e", [Jet(1, (3,)), Jet(2, ()), Jet(2, (1,)),
                                   Var(3), ls.add(x, Jet(1, (1, 3)))])
    def test_atom_beyond_the_context_is_rejected(self, e):
        ctx = ls.Context(("x", "t"), ("u",))
        with pytest.raises(ls.UnknownSymbol):
            ls.format_expr(e, ctx)
        assert ls.format_expr(ls.add(Var(2), Jet(1, (2, 1))), ctx) == "t + u_xt"

    def test_golden_digest_after_reverse_builds(self):
        # a process that interns the jets in another order prints the same
        import test_cli

        generic = Path(test_cli.MINIMAL_PROB).parent / "generic.prob"
        script = (
            "import itertools, sys\n"
            "from liesym import Jet\n"
            "from liesym.cli import main\n"
            "for n in range(7, -1, -1):\n"
            "    for idx in reversed(list(itertools.combinations_with_replacement((1, 2), n))):\n"
            "        Jet(1, idx[::-1])\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(ls.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run(
            [sys.executable, "-c", script, "prolong", "--file", str(generic),
             "--vf", "generic", "--order", "6"],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        result = json.loads(out.stdout)["result"]
        compact = json.dumps(result, separators=(",", ":"))
        assert hashlib.sha256(compact.encode()).hexdigest() == \
            test_cli.TestProlongGolden.DIGEST


class TestInterning:
    """Every node kind is interned: equal nodes are one object, and the
    nodes other than coordinates leave their table with their last
    reference."""

    NODES = [Const(Fraction(-7, 3)), Param("c"), UFunc("F", (x, u), (1,)),
             ls.func("sin", ls.add(x, u)), ls.pow_(ls.add(x, u), Fraction(1, 2)),
             ls.mul(3, x, ux), ls.add(x, ls.mul(2, u))]

    def test_one_identity_model(self):
        assert {type(e) for e in self.NODES} == {Const, Param, UFunc, Func, Pow,
                                                 Mul, Add}
        for cls in (Const, Var, Jet, Param, UFunc, Func, Pow, Mul, Add):
            for name in ("__eq__", "__hash__", "__reduce__"):
                assert getattr(cls, name) is getattr(Expr, name), (cls, name)

    def test_copies_return_the_node(self):
        for e in self.NODES:
            text = repr(e)
            for c in (pickle.loads(pickle.dumps(e)), copy.copy(e),
                      copy.deepcopy(e), dataclasses.replace(e)):
                assert c is e and repr(c) == text
        assert dataclasses.replace(ls.mul(3, x, ux), coeff=5) is ls.mul(5, x, ux)
        assert repr(ls.mul(3, x, ux)) == (
            "Mul(coeff=Fraction(3, 1), factors=(Var(index=1), Jet(dep=1, idx=(1,))))")

    def test_repr_of_a_shared_chain_is_cut(self):
        # the dataclass repr writes the shared subtree at each use, so its
        # text doubles with every level of sharing
        def ref_repr(e):
            if not isinstance(e, Expr):
                if type(e) is not tuple:
                    yield repr(e)
                    return
                yield "("
                for k, item in enumerate(e):
                    yield ", " if k else ""
                    yield from ref_repr(item)
                yield ",)" if len(e) == 1 else ")"
                return
            yield type(e).__qualname__ + "("
            for k, name in enumerate(e.__match_args__):
                yield f"{', ' if k else ''}{name}="
                yield from ref_repr(getattr(e, name))
            yield ")"

        def head(e, n):
            text = ""
            for piece in ref_repr(e):
                text += piece
                if len(text) > n:
                    break
            return text

        e = ls.add(u, 1)
        for k in range(60):
            e = ls.add(ls.mul(ux, e), ls.mul(x, e))
            if k == 3:
                small = e
        budget = ls.expr._REPR_BUDGET
        assert len(repr(small)) < budget and repr(small) == head(small, budget)
        t = time.perf_counter()
        text = repr(e)
        assert time.perf_counter() - t < 0.5
        assert text == head(e, budget)[:budget] + "..."

    def test_chains_built_apart_are_one_node(self):
        a, b = ls.add(u, 1), ls.add(1, u)
        for _ in range(30):
            a = ls.add(ls.mul(ux, a), ls.mul(x, a))
            b = ls.add(ls.mul(b, x), ls.mul(b, ux))
        assert a is b

        def compare():
            t = time.perf_counter()
            assert a == b and not a != b
            return time.perf_counter() - t

        assert min(compare() for _ in range(5)) < 1e-3

    def test_hash_is_the_identity(self):
        for e in (*self.NODES, x, u, ux):
            h = hash(e)
            assert h == object.__hash__(e)
            for c in (pickle.loads(pickle.dumps(e)), copy.copy(e),
                      copy.deepcopy(e), dataclasses.replace(e)):
                assert hash(c) == h

    def test_hash_lasts_as_long_as_the_node(self):
        def tree(k):
            c = Param("lasting")
            e = ls.add(u, c)
            for _ in range(k):
                e = ls.mul(ls.add(ux, e), ls.add(x, c))
            return e

        e = tree(6)
        nodes = list(subterms(e))
        hashes = [hash(n) for n in nodes]
        table = dict(zip(nodes, hashes))
        for r in range(20):
            # garbage and dropped nodes of the same kinds reuse freed memory
            junk = [bytes(k % 61) for k in range(500 * r)]
            ls.expand(ls.sub(tree(r % 5), Param(f"dropped{r}")))
            del junk
            gc.collect()
        assert tree(6) is e
        assert [hash(n) for n in subterms(e)] == hashes
        assert all(table[n] == hash(n) for n in nodes)

    def test_a_new_child_never_meets_a_dead_key(self):
        # a key names its children by serial numbers, never reused, so a
        # node made where a dead key's child was cannot find that key's entry
        gc.collect()
        before = len(_NODES)
        for k in range(2000):
            p = Param(f"short{k % 3}")
            s = ls.add(x, p)
            f = UFunc("F", (x, p) if k % 2 else (p,))
            assert s.terms == (x, p) and f.args[-1] is p
            del p, s, f
        assert len(_NODES) == before

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(3), Fraction(-2),
                                   Fraction(1, 2), Fraction(-7, 3)])
    def test_rational_fields_hash_by_ratio(self, q):
        # every form of one ratio gives one node, hashed by its identity; a
        # product's coefficient is never zero (TestInternKeys)
        b = ls.add(x, u)
        n, d = q.numerator, q.denominator
        muls = [Mul(q, (x, ux))] if n else []
        for e in (Const(q), Pow(b, q), *muls):
            assert hash(e) == object.__hash__(e)
        if d == 1:
            assert Const(n) is Const(q) and Pow(b, n) is Pow(b, q)
            assert not n or Mul(n, (x, ux)) is Mul(q, (x, ux))
        assert Pow(b, _Exp(q)) is Pow(b, q)
        fields = [(Const(n), "value"), (Pow(b, n), "exp"), (Pow(b, _Exp(q)), "exp")]
        if n:
            fields.append((Mul(n, (x,)), "coeff"))
        for e, name in fields:
            assert type(getattr(e, name)) is Fraction

    @pytest.mark.parametrize("build", [
        lambda: Const(0.5), lambda: Pow(x, 0.5), lambda: Mul(0.5, (x,)),
        lambda: ls.mul(Const(0.1), x), lambda: x * 0.5, lambda: ls.add(x, 0.1),
        lambda: Const("1/2"), lambda: Var(1) ** 0.1, lambda: ls.pow_(x, 0.5),
        lambda: ls.pow_(ls.add(x, u), 0.25),
    ])
    def test_a_float_is_refused(self, build):
        with pytest.raises(TypeError, match="cannot treat"):
            build()

    def test_exponents_are_exact(self):
        assert not hasattr(ls.expr, "const")
        e = ls.pow_(ls.add(x, u), Fraction(1, 2))
        assert type(e.exp) is Fraction and e is ls.add(x, u) ** Fraction(1, 2)
        assert x ** 2 is ls.pow_(x, Fraction(2)) and (x ** 2).exp == 2

    def test_exact_results_are_fractions(self):
        for e, env, want in ((Const(2), {}, 2),
                             (ls.mul(Const(Fraction(1, 2)), x), {x: 2}, 1),
                             (ls.add(x, Const(Fraction(1, 10))), {x: Fraction(1, 5)},
                              Fraction(3, 10))):
            got = ls.evaluate(e, env)
            assert got == want and type(got) is Fraction
        s = ls.add(Const(1), Const(Fraction(1, 10)), Const(Fraction(1, 5)))
        assert s is Const(Fraction(13, 10))
        ctx = ls.Context(("x",), ("u",))
        assert ls.format_expr(ls.mul(Const(Fraction(1, 10)), x), ctx) == "(1/10)*x"

    def test_threads_build_one_node_of_every_kind(self):
        # rounds of nodes no other test builds, so that the threads race on
        # misses; in each, every thread builds the same nodes of every kind,
        # odd threads from other argument forms
        def nodes(r, k, odd):
            p = Param(f"race{r}.{k}")
            c = Const(1000 * r + k if odd else Fraction(1000 * r + k))
            f = UFunc(p.name, (x, u), (1, 0) if odd else [0, 1])
            return [p, c, f, Func("exp", Add((c, p))), Pow(f, k + 2),
                    Mul(Fraction(k + 2, 3), (p, f)), Add((c, p, f))]

        def work(t, r, start, built):
            start.wait()
            built[t] = [n for k in range(30) for n in nodes(r, k, t % 2)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r in range(10):
                start, built = threading.Barrier(8), [None] * 8
                threads = [threading.Thread(target=work, args=(t, r, start, built))
                           for t in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                want = [n for k in range(30) for n in nodes(r, k, 0)]
                assert {type(n) for n in want} == {Const, Param, UFunc, Func, Pow,
                                                   Mul, Add}
                for k, n in enumerate(want):
                    assert all(b[k] is n for b in built)
        finally:
            sys.setswitchinterval(interval)

    def test_a_dead_entry_is_replaced(self):
        # a reference whose node is gone, still in the table
        class Gone:
            pass

        key = (3, "dead entry")
        obj = Gone()
        _NODES[key] = weakref.ref(obj)
        del obj
        p = Param("dead entry")
        assert _NODES[key]() is p and Param("dead entry") is p

    def test_a_dropped_tree_leaves_the_table(self):
        def build():
            c = Param("dropped")
            e = ls.add(u, c)
            for _ in range(30):
                e = ls.add(ls.mul(ux, e), ls.mul(x, e), c)
            assert len(_NODES) > before + 60
            assert ls.expand(ls.sub(e, e)) is ZERO

        gc.collect()
        gc.disable()
        try:
            before = len(_NODES)
            build()
            assert len(_NODES) == before
        finally:
            gc.enable()
        assert (3, "dropped") not in _NODES


def ref_key(e):
    """The ``_NODES`` key of a node, as ``(tag, *fields, *map(_sn,
    children))`` builds it: a rational field as its numerator and
    denominator, a child by its serial number."""
    def q(v):
        return (v.numerator, v.denominator)

    sn = [k._n for k in (e.terms if isinstance(e, Add) else e.factors
                         if isinstance(e, Mul) else e.args if isinstance(e, UFunc)
                         else (e.base,) if isinstance(e, Pow) else (e.arg,)
                         if isinstance(e, Func) else ())]
    if isinstance(e, Const):
        return (0, *q(e.value))
    if isinstance(e, Param):
        return (3, e.name)
    if isinstance(e, UFunc):
        return (4, e.name, e.deriv, *sn)
    if isinstance(e, Func):
        return (5, e.fname, *sn)
    if isinstance(e, Pow):
        return (6, *sn, *q(e.exp))
    if isinstance(e, Mul):
        return (7, *q(e.coeff), *sn)
    return (8, *sn)


class TestInternKeys:
    """A fresh node's key in the table is exactly the reference key, and a
    fresh node of every kind starts with no partials, no total derivatives
    and the reference order key."""

    @staticmethod
    def fresh(name):
        # nodes no other test builds, each a miss: every one holds a fresh
        # parameter; 1, 2 and 3 or more children for each sequence kind
        p, r = Param(name), Param(name + "'")
        kids = [p, ls.add(x, p), ls.mul(u, r), r, ls.func("sin", p)]
        nodes = [Const(Fraction(len(name) * 1000 + 7, 3)), p,
                 Func("exp", p), Pow(ls.add(x, p), Fraction(-3, 2)), Pow(p, 2)]
        for k in (1, 2, 3, 5):
            nodes += [UFunc(name, tuple(kids[:k]), (0,) * k),
                      Mul(Fraction(-k, 2), tuple(kids[:k])),
                      Mul(Fraction(k), tuple(kids[:k])), Add(tuple(kids[:k]))]
        return nodes

    def test_fresh_keys_are_the_reference(self):
        nodes = self.fresh("keyed")
        keys = {}
        for e in nodes:
            key = ref_key(e)
            assert _NODES[key]() is e and _NODES[key].key == key, e
            assert [k for k, r in _NODES.items() if r() is e] == [key]
            keys[key] = e
        assert len(keys) == len(nodes)
        # a tag names one kind, so keys of two kinds never meet
        tags = {}
        for key, e in keys.items():
            assert tags.setdefault(key[0], type(e)) is type(e)
        assert set(tags.values()) == {Const, Param, UFunc, Func, Pow, Mul, Add}

    def test_hit_and_miss_give_one_key(self):
        p = Param("rebuilt")
        for build in (lambda: ls.mul(3, x, p), lambda: ls.add(x, p),
                      lambda: ls.mul(p, ls.add(u, p)), lambda: ls.add(x, u, p),
                      lambda: UFunc("G", (x, p)), lambda: ls.mul(Fraction(1, 2), p)):
            e = build()
            assert build() is e and _NODES[ref_key(e)]() is e

    def test_fresh_nodes_start_empty(self):
        nodes = self.fresh("empty") + [Var(977), Jet(1, (4, 4, 4, 4, 4, 4, 4))]
        assert {type(e) for e in nodes} == {Const, Var, Jet, Param, UFunc, Func,
                                            Pow, Mul, Add}
        for e in nodes:
            assert e._grads is None and e._tds is None, e
            assert e._ord == sort_key(e), e

    @pytest.mark.parametrize("args", [
        (ZERO,), (x, ZERO), (Const(Fraction(0, 3)), x), (x, ls.neg(x)),
        (ls.mul(2, x), ls.mul(-2, x), 1), (Mul(2, (x,)),),
        (Mul(Fraction(-3), (x, Var(2))),), (Mul(Fraction(-3), (x, Var(2))), u),
        (Add((ZERO, x)),), (Mul(Fraction(2, 2), (x, u)), ls.mul(x, u)),
    ])
    def test_add_against_the_reference(self, args):
        assert same_tree(ls.add(*args), ref_add(*args))

    @pytest.mark.parametrize("coeff", [0, Fraction(0)])
    def test_a_zero_coefficient_is_refused(self, coeff):
        # add keeps a lone product input without testing its coefficient
        for factors in ((x,), (x, Var(2)), (x, u, ux)):
            with pytest.raises(ValueError, match="coefficient is 0"):
                Mul(coeff, factors)


class TestPartialsCache:
    """A compound node keeps its partials for as long as it lives."""

    @staticmethod
    def tree(name, k=4, w=ux):
        # an algebraic tree no other test builds: sums, products, rational
        # powers and log, all below a fresh parameter
        c = Param(name)
        e = ls.add(u, c)
        for _ in range(k):
            e = ls.add(ls.mul(w, e), ls.mul(x, ls.pow_(ls.add(e, c), Fraction(1, 2))),
                       ls.func("log", ls.add(c, w)))
        return e

    def test_the_returned_dict_is_the_callers(self):
        e = self.tree("caller's dict")
        want = ls.partials(e)
        assert type(e._grads) is dict and e._grads is not want
        got = ls.partials(e)
        got[x] = ZERO
        del got[u]
        got[uxx] = ONE
        assert list(ls.partials(e).items()) == list(want.items())
        assert ls.diff(e, x) is want[x] and ls.diff(e, u) is want[u]
        assert ls.diff(e, uxx) is ZERO

    def test_matches_reference_cold_and_warm(self, rng):
        from test_dj_table import ref_partials

        atoms = [x, u, ux, Param("c"), UFunc("F", (x, u)), UFunc("F", (x, u), (1,))]
        for k in range(60):
            fresh = Param(f"cold{k}")
            cold = ls.mul(fresh, rand_expr(rng, atoms + [fresh], depth=4))
            assert cold._grads is None
            assert list(ls.partials(cold).items()) == list(ref_partials(cold).items())
            warm = ls.add(Param(f"warm{k}"), rand_expr(rng, atoms, depth=4))
            nodes = list(subterms(warm))
            rng.shuffle(nodes)
            for s in nodes:
                ls.partials(s)
            assert list(ls.partials(warm).items()) == list(ref_partials(warm).items())

    @staticmethod
    def assert_leaves_the_table(build):
        gc.collect()
        gc.disable()
        try:
            before = len(_NODES)
            build()
            assert len(_NODES) == before
        finally:
            gc.enable()

    def test_a_dropped_prolonged_tree_leaves_the_table(self):
        ctx = ls.Context(("x",), ("u",))

        def build():
            e = self.tree("prolonged", w=u)
            v = ls.VectorField(ctx, (ls.mul(e, u),), (ls.add(e, x),))
            pv = ls.prolong(v, 3)
            assert ls.is_zero(ls.sub(ls.prolong_recursive(v, 3).coeffs[uxx],
                                     pv.coeffs[uxx]))
            assert type(e._grads) is dict and len(_NODES) > before + 100

        before = len(_NODES)
        self.assert_leaves_the_table(build)
        assert (3, "prolonged") not in _NODES

    def test_a_dropped_tree_with_exp_sin_and_cos_leaves_the_table(self):
        # d/dx of c*x*exp(x) holds the product itself: the partials make
        # cycles, which the cyclic collector frees with the dropped tree
        def build():
            c = Param("transcendental")
            inner = self.tree("transcendental", 3)
            e = ls.add(ls.func("exp", ls.mul(x, ls.pow_(u, 2))), ls.mul(3, x, u),
                       ls.mul(c, x, ls.func("exp", x)),
                       ls.mul(inner, ls.func("sin", ls.add(c, ux))),
                       ls.func("cos", ls.mul(c, x)))
            for a in (x, u, ux, c):
                for b in (x, u, ux, c):
                    ls.diff(ls.diff(e, a), b)
            assert ls.total_derivative_multi(e, (1, 1)) is not ZERO
            funcs = [s for s in subterms(e) if type(s) is Func and s.fname != "log"]
            assert {s.fname for s in funcs} == {"exp", "sin", "cos"}
            assert all(type(s._grads) is dict for s in (e, inner, *funcs))
            assert len(_NODES) > before + 100

        gc.collect()
        gc.disable()
        try:
            before = len(_NODES)
            build()
            gc.collect()
            assert len(_NODES) == before
        finally:
            gc.enable()
        assert (3, "transcendental") not in _NODES

    def test_copies_neither_show_nor_carry_the_partials(self):
        e = self.tree("copied")
        fields = {f.name for f in dataclasses.fields(e)}
        text, data, reduced = repr(e), pickle.dumps(e), e.__reduce__()
        ls.partials(e)
        assert type(e._grads) is dict and "_grads" not in fields
        for c in (pickle.loads(data), copy.copy(e), copy.deepcopy(e),
                  dataclasses.replace(e)):
            assert c is e and repr(c) == text and "_grads" not in repr(c)
        assert pickle.dumps(e) == data and e.__reduce__() == reduced

    def test_threads_get_equal_dicts(self):
        from test_dj_table import ref_partials

        e = self.tree("threads", 6)
        want = list(ref_partials(e).items())
        start, got = threading.Barrier(8), [None] * 8

        def work(k):
            start.wait()
            got[k] = list(ls.partials(e).items())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert all(g == want for g in got)
        assert list(e._grads.items()) == want


class TestCanonicalOrder:
    """Each node's cached key ``_ord`` is the reference ``sort_key``, and
    ``_factor_order`` is the reference ``factor_key``."""

    F = UFunc("F", (x, u))
    SAMPLES = [
        Const(Fraction(-1)), Const(Fraction(1, 2)), Const(Fraction(3)),
        x, Var(2),
        u, Jet(2, ()), ux, Jet(1, (2,)), uxx, Jet(1, (1, 2)),
        Param("a"), Param("b"),
        UFunc("f", (x,)), F, UFunc("F", (x, u), (0,)), UFunc("F", (x, ux)),
        ls.func("exp", x), ls.func("exp", u), ls.func("sin", x),
        ls.func("sin", ls.add(x, u)),
        ls.pow_(x, 2), ls.pow_(x, -1), ls.pow_(u, Fraction(1, 2)),
        ls.pow_(ls.add(x, u), 2), ls.pow_(ls.add(x, u, ux), 2),
        ls.mul(2, x, u), ls.mul(-1, x, u), ls.mul(x, u, ux),
        ls.mul(3, x, ls.pow_(u, 2)), ls.mul(x, ls.func("exp", u)),
        ls.add(x, u), ls.add(x, u, ux), ls.add(1, x), ls.add(ls.mul(2, x), u),
    ]

    def check_keys(self, e):
        assert e._ord == sort_key(e), e
        assert _factor_order(e) == factor_key(e), e

    def check_pair(self, a, b):
        assert key_sign(_term_order, a, b) == key_sign(sort_key, a, b), (a, b)
        assert key_sign(_factor_order, a, b) == key_sign(factor_key, a, b), (a, b)

    def test_samples_carry_the_reference_keys(self):
        for e in self.SAMPLES:
            self.check_keys(e)

    def test_every_pair_of_kinds(self):
        assert {type(e) for e in self.SAMPLES} == \
            {Const, Var, Jet, Param, UFunc, Func, Pow, Mul, Add}
        for a, b in itertools.product(self.SAMPLES, repeat=2):
            self.check_pair(a, b)

    def test_prefix_sorts_first(self):
        pairs = [(ls.add(x, u), ls.add(x, u, ux)),
                 (ls.mul(x, u), ls.mul(x, u, ux)),
                 (UFunc("F", (x,)), UFunc("F", (x, u)))]
        for short, long in pairs:
            fields = {Add: "terms", Mul: "factors", UFunc: "args"}[type(short)]
            a, b = getattr(short, fields), getattr(long, fields)
            assert b[:len(a)] == a and len(b) > len(a)
            assert short._ord < long._ord
            self.check_pair(short, long)
            self.check_pair(long, short)

    def test_products_differing_only_in_coefficient(self):
        ms = [ls.mul(c, x, ls.func("cos", u)) for c in (3, Fraction(-1, 2), 2, -4)]
        assert len({m.factors for m in ms}) == 1
        for a, b in itertools.product(ms, repeat=2):
            self.check_pair(a, b)
        assert sorted(ms, key=_term_order) == \
            [ls.mul(c, x, ls.func("cos", u)) for c in (-4, Fraction(-1, 2), 2, 3)]

    def trees(self, rng, n):
        atoms = [x, Var(2), u, ux, uxx, Param("c"), self.F, UFunc("F", (x, u), (1,))]
        return [rand_expr(rng, atoms, depth=4) for _ in range(n)]

    def test_random_subterms_carry_the_reference_keys(self, rng):
        for t in self.trees(rng, 150):
            for s in subterms(t):
                self.check_keys(s)

    def test_random_lists_sort_like_reference(self, rng):
        trees = self.trees(rng, 150)
        pool = [s for t in trees for s in subterms(t)]
        pool += pool[::3]
        for items in (trees, pool):
            for order, key in ((_term_order, sort_key), (_factor_order, factor_key)):
                assert sorted(items, key=order) == sorted(items, key=key)

    def test_random_pairs_agree_in_sign(self, rng):
        pool = [s for t in self.trees(rng, 150) for s in subterms(t)]
        by_kind = {}
        for s in pool:
            by_kind.setdefault(type(s), []).append(s)
        pick = random.Random(rng.random())
        for _ in range(4000):
            self.check_pair(pick.choice(pool), pick.choice(pool))
            same = by_kind[type(pick.choice(pool))]
            self.check_pair(pick.choice(same), pick.choice(same))

    def test_constructors_emit_reference_order(self, rng):
        for t in self.trees(rng, 150):
            for s in subterms(t):
                if isinstance(s, Add):
                    keys = [sort_key(a) for a in s.terms]
                elif isinstance(s, Mul):
                    keys = [factor_key(f) for f in s.factors]
                else:
                    continue
                assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    def test_copies_keep_the_key_object(self):
        for e in self.SAMPLES:
            k = e._ord
            for c in (pickle.loads(pickle.dumps(e)), copy.copy(e),
                      copy.deepcopy(e), dataclasses.replace(e)):
                assert c is e and c._ord is k, e

    def test_a_key_holds_no_node(self, rng):
        def leaves(k):
            stack = [k]
            while stack:
                y = stack.pop()
                if type(y) is tuple:
                    stack.extend(y)
                else:
                    yield y

        for t in [*self.SAMPLES, *self.trees(rng, 50)]:
            for s in subterms(t):
                assert not any(isinstance(y, Expr) for y in leaves(s._ord)), s
        assert "_ord" not in [fd.name for fd in dataclasses.fields(ls.add(x, u))]

    def test_deep_chains_sort_by_their_leaves(self):
        # the keys nest as deep as the tree; 900 levels compare as the
        # leaves x < u do, within the default recursion limit
        def chain(leaf):
            for _ in range(900):
                leaf = ls.func("exp", leaf)
            return leaf

        low, high = chain(x), chain(u)
        assert low._ord < high._ord and not high._ord < low._ord
        assert ls.add(high, low).terms == (low, high)
        assert ls.mul(high, low).factors == (low, high)


class TestSubstitute:
    def test_jet_replacement(self):
        ut = Jet(1, (2,))
        e = ls.add(ut, ux)
        assert ls.substitute(e, {ut: uxx}) == ls.add(uxx, ux)

    def test_to_zero(self):
        e = ls.add(ls.pow_(x, 2), ls.pow_(u, 2))
        assert ls.substitute(e, {x: ls.Const(0), u: ls.Const(0)}) == ls.Const(0)

    def test_homomorphism(self, rng):
        atoms = [x, u, ux]
        for _ in range(50):
            e1 = rand_poly(rng, atoms)
            e2 = rand_poly(rng, atoms)
            b = {u: rand_poly(rng, [x, ux])}
            lhs = ls.substitute(ls.mul(e1, e2), b)
            rhs = ls.mul(ls.substitute(e1, b), ls.substitute(e2, b))
            assert ls.is_zero(ls.sub(lhs, rhs))

    def test_bad_key(self):
        with pytest.raises(ls.UnknownSymbol):
            ls.substitute(x, {ls.add(x, u): u})


class TestIsZero:
    def test_cancellation(self):
        y = Jet(1, ())   # treat u as second coordinate of the plane
        e = ls.add(ls.mul(-2, x, y), ls.mul(2, x, y))
        assert ls.is_zero(e)

    def test_nonzero(self):
        assert not ls.is_zero(ux)

    def test_trig_identity_not_provable(self):
        e = ls.sub(ls.add(ls.pow_(ls.func("sin", x), 2),
                          ls.pow_(ls.func("cos", x), 2)), 1)
        assert not ls.is_zero(e)

    def test_rational_function_cancellation(self):
        s = ls.add(1, ls.pow_(ux, 2))
        e = ls.sub(ls.mul(uxx, ls.pow_(s, Fraction(-1, 2))),
                   ls.mul(uxx, s, ls.pow_(s, Fraction(-3, 2))))
        assert ls.is_zero(e)

    def test_random_sum_cancellation(self, rng):
        atoms = [x, u, ux, Param("c")]
        for _ in range(100):
            e1 = rand_expr(rng, atoms)
            e2 = rand_expr(rng, atoms)
            assert ls.is_zero(ls.sub(ls.add(e1, e2), ls.add(e2, e1)))


class TestCollect:
    def test_monomial_coefficients(self):
        ctx = ls.Context(("x", "t"), ("u",), (), (("tau", ("x", "t", "u")),
                                                  ("phi", ("x", "t", "u"))))
        uxt = Jet(1, (1, 2))
        e = ls.add(ls.mul(-2, ctx.ufunc("tau", "u"), ux, uxt),
                   ctx.ufunc("phi", "t"))
        got = ls.collect(e, [ux, uxt])
        assert got == {
            ls.mul(ux, uxt): ls.mul(-2, ctx.ufunc("tau", "u")),
            ls.Const(1): ctx.ufunc("phi", "t"),
        }

    def test_zero_is_empty(self):
        assert ls.collect(ls.Const(0), [ux]) == {}

    def test_square_expansion(self):
        got = ls.collect(ls.pow_(ls.add(ux, uxx), 2), [ux, uxx])
        assert got == {
            ls.pow_(ux, 2): ls.Const(1),
            ls.mul(ux, uxx): ls.Const(2),
            ls.pow_(uxx, 2): ls.Const(1),
        }

    def test_not_polynomial(self):
        with pytest.raises(ls.NotPolynomial):
            ls.collect(ls.pow_(ux, -1), [ux])
        with pytest.raises(ls.NotPolynomial):
            ls.collect(ls.func("sin", ux), [ux])

    def test_not_polynomial_carries_the_expression(self):
        f = ls.func("sin", ux)
        with pytest.raises(ls.NotPolynomial) as info:
            ls.collect(ls.mul(u, f), [ux])
        assert info.value.expr == f
        assert str(info.value) == \
            f"variable occurs inside non-polynomial factor {f!r}"
        ctx = ls.Context(("x",), ("u",))
        printed = info.value.printed(lambda e: ls.format_expr(e, ctx))
        assert isinstance(printed, ls.NotPolynomial) and printed.expr == f
        assert str(printed) == "variable occurs inside non-polynomial factor sin(u_x)"
        with pytest.raises(ls.NotPolynomial) as info:
            ls.collect(ls.pow_(ux, -1), [ux])
        assert str(info.value.printed(lambda e: ls.format_expr(e, ctx))) == \
            "variable u_x occurs with non-polynomial exponent -1"

    def test_round_trip(self, rng):
        atoms = [x, u, ux]
        for _ in range(50):
            e = rand_poly(rng, atoms, degree=3, terms=4)
            got = ls.collect(e, [ux])
            back = ls.add(*(ls.mul(m, c) for m, c in got.items()))
            assert ls.is_zero(ls.sub(back, e))


# liesym.expr.collect as it was before it read the monomials of the expand
# kernel, kept verbatim but for its name: the reference the projection must
# equal, key order and errors included.
def ref_collect(e: Expr, variables: Iterable[Expr]) -> dict[Expr, Expr]:
    """Write ``e`` as a sum of monomial * coefficient over ``variables``.

    The expression must be polynomial in the given atoms; monomial keys are
    power products (``ONE`` for the constant part) and coefficients are free
    of the variables.  Zero coefficients are dropped.  A
    :class:`NotPolynomial` carries the offending variable or factor as its
    ``expr``.
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
                        f"variable {{}} occurs with non-polynomial exponent {exp}", b
                    )
                mono.append(f)
            else:
                if any(contains(f, v) for v in vars_):
                    raise NotPolynomial(
                        "variable occurs inside non-polynomial factor {}", f
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


def collected(f, e, variables):
    """The items of ``f(e, variables)`` in order, or the library error's
    type, message and expression."""
    try:
        return list(f(e, variables).items())
    except ls.LiesymError as exc:
        return type(exc), str(exc), getattr(exc, "expr", None)


class TestCollectAgainstReference:
    T = ls.add(1, ls.pow_(ux, 2))     # a sum holding a variable
    S = ls.add(1, ls.pow_(u, 2))      # and one free of them
    VARS = [ux, uxx]
    ATOMS = [x, u, ux, uxx, Param("c"), UFunc("F", (x, u)),
             ls.pow_(S, Fraction(1, 2)), ls.pow_(S, Fraction(-3, 2))]

    def inputs(self, rng, n):
        out = []
        for i in range(n):
            kind = i % 3
            if kind == 0:
                e = rand_poly(rng, self.ATOMS, degree=3, terms=rng.randint(1, 5))
            elif kind == 1:
                e = rand_expr(rng, self.ATOMS + [self.T], depth=3)
            else:
                # a polynomial times a fractional power of a random sum
                q = rand_poly(rng, self.ATOMS, degree=2, terms=rng.randint(2, 3))
                if q == ZERO:
                    q = ls.add(q, x)
                e = ls.mul(rand_poly(rng, self.ATOMS, degree=2, terms=3),
                           ls.pow_(q, rng.choice([Fraction(1, 2), Fraction(-1, 2),
                                                  Fraction(3, 2), Fraction(-1)])))
            out.append(e)
        return out

    def test_matches_reference(self, rng):
        seen = set()
        for e in self.inputs(rng, 600):
            got = collected(ls.collect, e, self.VARS)
            assert got == collected(ref_collect, e, self.VARS)
            if isinstance(got, list):
                seen.add("empty" if not got else "one key" if len(got) == 1
                         else "keys")
                if any(isinstance(s, Pow) and isinstance(s.base, Add)
                       and s.exp.denominator != 1
                       for _, c in got for s in subterms(c)):
                    seen.add("fractional sum power")
            else:
                seen.add(got[0].__name__ + (" exponent" if "exponent" in got[1]
                                            else " factor"))
        assert seen >= {"empty", "one key", "keys", "fractional sum power",
                        "NotPolynomial exponent", "NotPolynomial factor"}

    def test_first_offending_factor(self):
        # several offending factors in one term: the error names the one a
        # canonical product lists first, whatever the kernel numbered first
        # (here u_xx, read in the term before)
        for e in [ls.add(ls.mul(x, uxx), ls.mul(ls.pow_(ux, -2), ls.pow_(uxx, -1))),
                  ls.mul(ls.func("sin", ux), ls.pow_(ux, -1), ls.pow_(self.T, Fraction(1, 2))),
                  ls.mul(ls.pow_(uxx, Fraction(1, 2)), ls.pow_(ux, -2)),
                  ls.add(ls.mul(x, ls.pow_(self.T, -1)),
                         ls.mul(ls.func("exp", uxx), ls.pow_(self.T, -1)))]:
            got = collected(ls.collect, e, self.VARS)
            assert got[0] is NotPolynomial
            assert got == collected(ref_collect, e, self.VARS)


class TestEvaluate:
    def test_numeric_consistency(self, rng):
        atoms = [x, u, ux]
        for _ in range(100):
            e = rand_poly(rng, atoms, degree=3, terms=4)
            env = {a: rand_rational(rng) for a in atoms}
            assert ls.evaluate(ls.normalize(e), env) == ls.evaluate(e, env)

    def test_missing_binding(self):
        with pytest.raises(ls.EvaluationError):
            ls.evaluate(x, {})

    def test_exact_root(self):
        e = ls.pow_(ls.add(x, 3), Fraction(1, 2))
        assert ls.evaluate(e, {x: Fraction(1)}) == 2
        with pytest.raises(ls.EvaluationError):
            ls.evaluate(e, {x: Fraction(2)})
        assert ls.evaluate(e, {x: Fraction(10**400 - 3)}) == 10**200

    def test_unknown_function_value(self):
        f = UFunc("f", (x, u), (1,))
        assert ls.evaluate(ls.mul(2, f), {f: Fraction(3)}) == 6
        with pytest.raises(ls.EvaluationError, match="no value assigned"):
            ls.evaluate(f, {x: Fraction(1)})

    def test_function_has_no_exact_value(self):
        with pytest.raises(ls.EvaluationError, match="cannot evaluate exp exactly"):
            ls.evaluate(ls.func("exp", x), {x: Fraction(0)})


class TestOperators:
    def test_operators_equal_constructors(self):
        assert x + 1 == ls.add(x, 1)
        assert 1 - x == ls.sub(1, x)
        assert 2 * x == ls.mul(2, x)
        assert x / 2 == ls.div(x, 2)
        assert 2 / x == ls.div(2, x)
        assert -x == ls.neg(x)


class TestExpand:
    def test_integer_power_of_sum(self):
        e = ls.pow_(ls.add(x, u), 2)
        ex = ls.expand(e)
        expect = ls.add(ls.pow_(x, 2), ls.mul(2, x, u), ls.pow_(u, 2))
        assert ex == expect

    def test_merge_shifted_powers(self):
        s = ls.add(1, ls.pow_(ux, 2))
        e = ls.add(ls.mul(x, ls.pow_(s, Fraction(-1, 2))),
                   ls.mul(u, ls.pow_(s, Fraction(-3, 2))))
        ex = ls.expand(e)
        # single common power of the sum base remains
        bases = {f.base for t in (ex.terms if isinstance(ex, ls.Add) else (ex,))
                 for f in (t.factors if isinstance(t, ls.Mul) else (t,))
                 if isinstance(f, Pow)}
        exps = {f.exp for t in (ex.terms if isinstance(ex, ls.Add) else (ex,))
                for f in (t.factors if isinstance(t, ls.Mul) else (t,))
                if isinstance(f, Pow) and isinstance(f.base, ls.Add)}
        assert exps == {Fraction(-3, 2)}
        # one round rewrites e but cannot confirm the result
        with pytest.raises(ls.SimplificationIncomplete):
            ls.expand(e, max_rounds=1)

    def test_binomial_power_at_the_limit(self):
        got = ls.expand(ls.pow_(ls.add(1, x), 64))
        assert got == ls.add(*(ls.mul(math.comb(64, k), ls.pow_(x, k))
                               for k in range(65)))

    def test_trinomial_power(self):
        y = Var(2)
        got = ls.expand(ls.pow_(ls.add(1, x, y), 12))
        expect = ls.add(*(
            ls.mul(math.factorial(12) // (math.factorial(i) * math.factorial(j)
                                          * math.factorial(12 - i - j)),
                   ls.pow_(x, i), ls.pow_(y, j))
            for i in range(13) for j in range(13 - i)))
        assert got == expect
        assert len(got.terms) == 91

    def test_power_over_the_limit_raises(self):
        with pytest.raises(ls.SimplificationIncomplete,
                           match="exponent 65 exceeds the expansion limit 64"):
            ls.expand(ls.pow_(ls.add(1, x), 65))
        # a factor of a product, and an exponent too long to print
        with pytest.raises(ls.SimplificationIncomplete,
                           match="exponent 65 exceeds"):
            ls.is_zero(ls.mul(u, ls.pow_(ls.add(1, x), 65)))
        # (y + 1)*r - r is y*r for the root r of 1 + x, so multiplying out
        # its 130th power meets (1 + x)^65 as a factor of a product
        root = ls.pow_(ls.add(1, x), Fraction(1, 2))
        e = ls.pow_(ls.sub(ls.mul(ls.add(Var(2), 1), root), root), 130)
        with pytest.raises(ls.SimplificationIncomplete) as info:
            ls.expand(ls.mul(x, e))
        assert str(info.value) == ("power of a sum with exponent 65 exceeds "
                                   "the expansion limit 64")
        with pytest.raises(ls.SimplificationIncomplete,
                           match="exponent of 4772 digits exceeds"):
            ls.expand(ls.pow_(ls.add(1, x), 3 ** 10000))

    def test_merge_shift_over_the_limit_raises(self):
        s = ls.add(1, ls.pow_(ux, 2))
        e = ls.add(ls.mul(x, ls.pow_(s, Fraction(-1, 2))),
                   ls.mul(u, ls.pow_(s, Fraction(129, 2))))
        with pytest.raises(ls.SimplificationIncomplete,
                           match="shift between powers of a sum of 65 exceeds"):
            ls.expand(e)
        # a term without the base is shifted by minus the least exponent
        with pytest.raises(ls.SimplificationIncomplete,
                           match="of 65 exceeds"):
            ls.expand(ls.add(x, ls.pow_(s, -65), ls.pow_(s, -64)))
        # at the limit the shift is multiplied out
        e = ls.add(ls.mul(x, ls.pow_(s, Fraction(-1, 2))),
                   ls.mul(u, ls.pow_(s, Fraction(127, 2))))
        r = ls.pow_(s, Fraction(-1, 2))
        assert ls.expand(e) == ls.add(ls.mul(x, r), *(
            ls.mul(math.comb(64, k), u, ls.pow_(ux, 2 * k), r) for k in range(65)))


def outcome(f, e):
    """``repr`` of the result, or the type of the library error raised."""
    try:
        return repr(f(e))
    except ls.LiesymError as exc:
        return type(exc)


def one_round(e):
    """One round of expand: the kernel's pass, the merge, one tree."""
    k = _Poly()
    return k.tree(k.merge_sum_powers(k.expand_once(e)))


def ref_round(e):
    return ref_merge_sum_powers(ref_expand_once(e))


def over_the_limit(e):
    """Whether ``e`` holds an integer power of a sum above the cap."""
    return any(isinstance(s, Pow) and isinstance(s.base, Add)
               and s.exp.denominator == 1 and s.exp > REF_EXPAND_POW_CAP
               for s in subterms(e))


class TestExpandAgainstReference:
    """The sparse kernel gives the tree-walking expand's result node for
    node, round by round, and raises where the reference raises."""

    S = ls.add(1, ls.pow_(ux, 2))
    # besides atoms: powers that fold when multiplied, of a sum, of a
    # constant and of a product
    ATOMS = [x, u, ux, Param("c"), UFunc("F", (x, u)),
             ls.pow_(S, Fraction(1, 2)), ls.pow_(S, Fraction(-1, 2)),
             ls.pow_(2, Fraction(1, 2)), ls.pow_(ls.mul(x, u), Fraction(1, 2))]
    EXPS = [Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
            Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]

    def hidden(self, rng, e):
        """``e*(w + 1) - e``: a sum whose expansion is the single term e*w."""
        return ls.add(ls.mul(e, ls.add(rng.choice(self.ATOMS), 1)), ls.neg(e))

    def trees(self, rng, n):
        """Random trees; some hold a power of a sum that expands to a single
        term, some are divided by a random sum or multiplied by a rational
        power of one."""
        out = []
        for _ in range(n):
            e = rand_expr(rng, self.ATOMS, depth=rng.randint(3, 5))
            if rng.random() < 0.3:
                h = self.hidden(rng, rand_expr(rng, self.ATOMS, 1))
                k = rng.choice([1, 2, 3, Fraction(1, 2), -1])
                e = ls.mul(e, ls.pow_(h, 2 if h == ZERO else k))
            pick = rng.random()
            if pick < 0.5:
                s = rand_poly(rng, self.ATOMS, degree=2, terms=rng.randint(2, 3))
                if s == ZERO or (isinstance(s, Const) and pick >= 0.25):
                    s = ls.add(s, x)
                e = ls.div(e, s) if pick < 0.25 else \
                    ls.mul(e, ls.pow_(s, rng.choice(self.EXPS)))
            out.append(e)
        return out

    def test_trees_cover_the_kernel(self, rng):
        seen = set()
        for e in self.trees(rng, 600):
            try:
                ref = ref_expand(e)
            except ls.LiesymError:
                continue
            first = ref_expand_once(e)
            if ref_merge_sum_powers(first) != first:
                seen.add("merged")
            if ref != ref_round(e):
                seen.add("several rounds")
            for s in subterms(e):
                if isinstance(s, Pow) and isinstance(s.base, Add):
                    seen.add("sum power" if s.exp.denominator == 1 and s.exp > 1
                             else "sum generator")
                elif isinstance(s, Pow) and isinstance(s.base, (Const, Mul)):
                    seen.add("folding base")
                elif isinstance(s, Func):
                    seen.add("function")
        assert seen == {"merged", "several rounds", "sum power",
                        "sum generator", "folding base", "function"}

    def test_matches_reference(self, rng):
        for e in self.trees(rng, 600):
            got, ref = outcome(ls.expand, e), outcome(ref_expand, e)
            if got is ls.SimplificationIncomplete and isinstance(ref, str):
                # the reference leaves a power above the cap unexpanded
                assert over_the_limit(ref_expand(e))
                continue
            assert got == ref
            assert outcome(one_round, e) == outcome(ref_round, e)

    def test_rounds_that_fold(self):
        a, b, y = Var(3), Var(4), Var(2)
        h = ls.pow_(ls.add(1, ls.pow_(y, 2)), Fraction(1, 2))
        r = ls.add(1, x)
        q = ls.pow_(ls.pow_(x, Fraction(1, 2)), Fraction(1, 3))
        cases = [
            # a sum that expands to one term, x*a^2*(1 + y^2), squared in a
            # product: the sum inside is multiplied out in the same round
            ls.mul(x, ls.pow_(ls.add(ls.mul(h, ls.add(a, b)),
                                     ls.mul(-1, b, h)), 2)),
            # h*h folds to a bare sum in one term of a product of sums
            ls.mul(ls.add(a, ls.mul(h, b)), ls.add(a, ls.mul(h, b)), x),
            # a term with a bare sum rewritten by the merge
            ls.add(ls.mul(ls.add(a, ls.mul(x, h)), ls.add(b, h),
                          ls.pow_(r, Fraction(-1, 2))),
                   ls.mul(y, ls.pow_(r, Fraction(-3, 2)))),
            # constant and product bases that fold, also below a product
            ls.mul(ls.add(ls.pow_(2, Fraction(1, 2)), x),
                   ls.add(ls.pow_(2, Fraction(3, 2)), ls.pow_(2, Fraction(1, 2)))),
            ls.mul(ls.add(ls.mul(ls.pow_(2, Fraction(1, 2)),
                                 ls.add(x, ls.pow_(2, Fraction(1, 2)))), y),
                   ls.pow_(2, Fraction(1, 2)), a),
            ls.pow_(ls.add(ls.pow_(ls.mul(x, y), Fraction(1, 2)), 1), 3),
            # the merge raises a power base's fractional exponent to 1 next
            # to a power of that base's own base: mul must keep it a factor
            # of its own, as the old walk did
            ls.add(ls.mul(ls.pow_(x, Fraction(1, 2)), ls.pow_(q, 2),
                          ls.pow_(ls.add(q, 1), Fraction(-1, 2))),
                   ls.mul(y, ls.pow_(ls.add(q, 1), Fraction(-3, 2)))),
        ]
        for e in cases:
            assert one_round(e) == ref_round(e)
            assert ls.expand(e) == ref_expand(e)

    def test_round_that_reads_a_folded_term_back(self):
        # q^3 merges to x^(1/2) next to x^(1/2) in a product of sums.  mul
        # merges the folded power with the other factor of its base, so
        # the walk and the kernel both give x in the same round.
        a, b = Var(3), Var(4)
        q = ls.pow_(ls.pow_(x, Fraction(1, 2)), Fraction(1, 3))
        e = ls.mul(ls.pow_(x, Fraction(1, 2)), ls.add(q, a), ls.add(q, b),
                   ls.add(q, 1))
        assert one_round(e) == ref_round(e)
        assert ls.expand(e) == ref_expand(e)

    def test_interned_exponents_change_no_tree(self, rng, monkeypatch):
        trees = self.trees(rng, 300)
        got = [outcome(ls.expand, e) for e in trees]
        fractional = 0
        for e in trees:
            try:
                c = ls.expand(e)
            except ls.LiesymError:
                continue
            for s in subterms(c):
                if isinstance(s, Pow):
                    assert type(s.exp) is Fraction, s
                    fractional += s.exp.denominator != 1
                elif isinstance(s, Mul):
                    assert type(s.coeff) is Fraction, s
        assert fractional > 100
        # the kernel as it was before it interned exponents
        monkeypatch.setattr(_Poly, "exp", lambda self, k: _num(k))
        assert got == [outcome(ls.expand, e) for e in trees]

    def test_fractional_exponents_are_interned(self):
        k = _Poly()
        h = ls.pow_(x, Fraction(1, 2))
        poly = k.read(ls.add(ls.mul(h, u), h, ls.mul(h, h, h, ux)))
        exps = [e for m in poly for _, e in m if type(e) is not int]
        assert sorted(exps) == [Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)]
        assert all(type(e) is _Exp for e in exps)
        halves = [e for e in exps if e == Fraction(1, 2)]
        assert halves[0] is halves[1]
        assert hash(halves[0]) == hash(Fraction(1, 2))
        assert all(type(e) in (int, _Exp) for m in k.times(poly, poly) for _, e in m)
        assert type(k.tree(poly).terms[0].exp) is Fraction

    def test_negation_of_a_fixed_point_is_one(self, rng):
        for e in self.trees(rng, 300):
            try:
                c = ls.expand(e)
            except ls.LiesymError:
                continue
            assert ls.expand(ls.neg(c)) == ls.neg(c)


class TestMonomialMerge:
    """``_Poly.times`` and ``_Poly._product`` give the dict, its key order,
    the types of its exponents and coefficients, and the ``stirred`` flag of
    the dict-based products they replace (``conftest.ref_times`` and
    ``conftest.ref_product``), on seeded random monomials and products."""

    # plain generators, sums, and constant, product and power bases
    GENS = [x, u, ux, Param("c"), UFunc("F", (x, u)),
            ls.add(x, 1), ls.add(u, ux),
            Const(Fraction(2)), ls.mul(x, u), ls.pow_(ls.add(x, 1), Fraction(1, 2))]
    # pairs of these cancel, and fractional ones sum to integers
    EXPS = [1, 1, 2, -1, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
            Fraction(-3, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3)]
    COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]

    def kernel(self):
        k = _Poly()
        for g in self.GENS:
            k.gen(g)
        assert sorted(k.kind) == [0] * 5 + [1] * 2 + [2] * 3
        return k

    def monomial(self, k, rng):
        gens = sorted(rng.sample(range(len(k.gens)), rng.randint(0, 4)))
        return tuple((g, k.exp(Fraction(rng.choice(self.EXPS)))) for g in gens)

    def poly(self, k, rng):
        return {self.monomial(k, rng): rng.choice(self.COEFFS)
                for _ in range(rng.randint(1, 4))}

    def factors(self, k, rng):
        """Two random polynomials; a third of the time ``c*(m + n) + r``
        and ``d*(m - n) + s``, whose cross terms ``m*n`` cancel."""
        a, b = self.poly(k, rng), self.poly(k, rng)
        if rng.random() < 0.3:
            m, n = self.monomial(k, rng), self.monomial(k, rng)
            c, d = rng.choice(self.COEFFS), rng.choice(self.COEFFS)
            if m != n:
                a.update({m: c, n: c})
                b.update({m: d, n: -d})
        return a, b

    @staticmethod
    def interned(k, poly):
        return all(type(e) is int or e is k.exps[e.numerator, e.denominator]
                   for m in poly for _, e in m)

    @classmethod
    def run(cls, k, f, *args):
        """``repr`` of the items of ``f(*args)`` and the flag it leaves;
        every fractional exponent of the result is interned in ``k``."""
        k.stirred = False
        out = f(*args)
        assert cls.interned(k, out)
        return repr(list(out.items())), k.stirred

    def test_times_matches_the_dict_product(self, rng):
        k = self.kernel()
        stirred = cancelled = dropped = 0
        for _ in range(2000):
            a, b = self.factors(k, rng)
            got = self.run(k, k.times, a, b)
            assert got == self.run(k, ref_times, k, a, b), (a, b)
            stirred += got[1]
            pairs = [(ma, mb) for ma in a for mb in b]
            merged = [k.merge(ma, mb) for ma, mb in pairs]
            cancelled += any(len(m) < len(dict(ma + mb)) for m, (ma, mb) in zip(merged, pairs))
            dropped += len(k.times(a, b)) < len(set(merged))
        assert stirred > 200 and 2000 - stirred > 200
        assert cancelled > 200 and dropped > 100

    def test_product_matches_the_chain_of_products(self, rng):
        ref = TestExpandAgainstReference()
        atoms = ref.ATOMS + [ls.add(x, u), ls.pow_(ls.add(x, u), 2)]
        folds = stirred = 0
        for _ in range(1000):
            fs = [rand_expr(rng, atoms, depth=rng.randint(1, 2))
                  for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.3:
                # a power of a sum that expands to one term with a coefficient
                h = ref.hidden(rng, ls.mul(rand_rational(rng, 1, 3), rng.choice(atoms)))
                fs.append(ls.pow_(h, rng.choice([2, -1, Fraction(1, 2)])))
            e = ls.mul(rand_rational(rng, 1, 3), *fs)
            if type(e) is not Mul:
                continue
            k1, k2 = _Poly(), _Poly()
            try:
                got = self.run(k1, k1._product, e)
            except ls.LiesymError as exc:
                got = type(exc)
            try:
                want = self.run(k2, ref_product, k2, e)
            except ls.LiesymError as exc:
                want = type(exc)
            assert got == want, e
            assert k1.gens == k2.gens
            folds += sum(len(k1.expand_once(f)) == 1 for f in e.factors) > 1
            stirred += type(got) is tuple and got[1]
        assert folds > 100 and stirred > 10
