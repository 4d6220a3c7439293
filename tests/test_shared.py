"""Shared subtrees: expressions that reach one node object many times.

A chain ``e_{k+1} = u_x*e_k + x*e_k`` that reuses ``e_k`` has 2^k copies of
``e_0`` in its unfolded tree but only O(k) distinct nodes.  ``expand`` and
the tree walkers ``jets_of``, ``jet_order`` and ``contains`` must do work in
proportion to the distinct nodes and give what they give on a tree with no
sharing; so must ``normalize``, ``substitute`` and ``evaluate``, one map
over the distinct nodes.  The batch printer must print what
``format_expr`` prints.
"""
import gc
import random
from fractions import Fraction

import pytest

import liesym as ls
from liesym import Const, Jet, Param, UFunc, Var
from liesym import expr
from liesym.expr import (
    ZERO,
    _Poly,
    _term_order,
    contains,
    jet_order,
    jets_of,
    subterms,
)
from liesym.parse import format_expr, format_exprs

import test_expr
from conftest import (
    rand_expr,
    rand_rational,
    ref_evaluate,
    ref_normalize,
    ref_subst,
    same_tree,
)
from test_expr import outcome, ref_expand

x, y = Var(1), Var(2)
u, ux, uxx = Jet(1, ()), Jet(1, (1,)), Jet(1, (1, 1))


def chain(k: int, e0=None):
    """e_k of the chain, each level holding the one object e_{k-1} twice."""
    e = ls.add(u, 1) if e0 is None else e0
    for _ in range(k):
        e = ls.add(ls.mul(ux, e), ls.mul(x, e))
    return e


def compound_ids(e) -> list[int]:
    return [id(s) for s in subterms(e)
            if not isinstance(s, (Const, Var, Jet, Param))]


def counting(monkeypatch, owner, name):
    calls = []
    f = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a: calls.append(None) or f(*a))
    return calls


# --- expand -------------------------------------------------------------------

# a sum power, a fractional power of a sum and a function below the chain
BASES = [ls.add(u, 1),
         ls.mul(ls.pow_(ls.add(x, u), 2), ls.pow_(ls.add(1, ls.pow_(ux, 2)),
                                                  Fraction(-1, 2))),
         ls.add(ls.func("exp", ls.add(x, u)), ls.pow_(ls.add(x, 1), -1))]


@pytest.mark.parametrize("base", range(len(BASES)))
def test_chain_expands_as_the_reference(base):
    # the reference walks the tree node by node, each shared node at each use
    for k in range(9):
        e = chain(k, BASES[base])
        assert same_tree(ls.expand(e), ref_expand(e)), k


def test_chain_is_shared():
    e = chain(3)
    (a, b) = e.terms
    assert a.factors[-1] is b.factors[-1]
    assert len(compound_ids(e)) > len(set(compound_ids(e)))


def test_products_grow_linearly_with_the_chain(monkeypatch):
    calls = counting(monkeypatch, _Poly, "times")
    counts = []
    for k in (8, 12, 16):
        e = chain(k)
        calls.clear()
        ls.expand(e)
        counts.append(len(calls))
    # 4 products per level of the chain; an unfolded walk doubles per level
    assert counts[2] - counts[1] == counts[1] - counts[0]
    assert counts[2] <= 16 * 16


def test_zero_test_of_a_deep_chain():
    e = chain(40)
    assert not ls.is_zero(e)
    assert ls.is_zero(ls.sub(e, ls.expand(e)))


def test_a_node_reached_once_keeps_no_entry():
    # one round on a chain that reaches each level once, through a new
    # parameter per level (a later round may reach a node of the first)
    e = ls.add(u, 1)
    for i in range(6):
        e = ls.add(ls.mul(ux, e), ls.mul(x, Param(f"c{i}")))
    assert len(set(compound_ids(e))) == len(compound_ids(e))
    k = _Poly()
    k.expand_once(e)
    assert k.rounds == {} and k.seen
    k = _Poly()
    e = chain(6)
    k.expand_once(e)
    assert k.rounds
    assert set(k.rounds) <= set(subterms(e))


def test_recycled_ids_give_the_fresh_result():
    """A kernel that has expanded trees since dropped keeps its records of
    the nodes reached once and twice; a new node, which may take the address
    of a dead one, must still expand as in a fresh kernel."""
    rng = random.Random(5101)
    atoms = test_expr.TestExpandAgainstReference.ATOMS
    k = _Poly()
    dead: set[int] = set()
    for _ in range(40):
        r = rand_expr(rng, atoms, depth=3)
        t = ls.add(ls.mul(r, x), ls.mul(r, y), r)
        del r
        try:
            k.fixed_point(t)
        except ls.LiesymError:
            pass
        dead.update(compound_ids(t))
        del t
    gc.collect()
    recycled = 0
    for _ in range(200):
        t = ls.add(rand_expr(rng, atoms, depth=3), x)
        recycled += sum(i in dead for i in compound_ids(t))
        assert outcome(k.fixed_point, t) == outcome(_Poly().fixed_point, t)
        assert outcome(lambda e: one_round(k, e), t) == \
            outcome(lambda e: one_round(_Poly(), e), t)
    assert recycled > 0


def one_round(k, e):
    return k.tree(k.expand_once(e))


# --- the in-place zero drop ---------------------------------------------------

def rebuilt_times(a, b):
    """The product with the zero terms dropped by rebuilding the dict."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            d = dict(ma)
            for g, e in mb:
                d[g] = d.get(g, 0) + e
                if not d[g]:
                    del d[g]
            m = tuple(sorted(d.items()))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def test_products_drop_cancelled_terms_in_order():
    rng = random.Random(5102)
    atoms = [x, y, u, ux, ls.pow_(ls.add(x, 1), Fraction(1, 2))]
    cancelled = 0
    for _ in range(200):
        k = _Poly()
        p, q = (rand_expr(rng, atoms, depth=2) for _ in range(2))
        a = k.read(ls.expand(ls.add(p, q)))
        b = k.read(ls.expand(ls.sub(p, q)))
        got = k.times(a, b)
        want = rebuilt_times(a, b)
        assert list(got.items()) == list(want.items())
        assert all(got.values())
        cancelled += len(a) * len(b) > len(got)
    assert cancelled > 50


def test_read_drops_a_zero_constant():
    assert _Poly().read(ZERO) == {}
    k = _Poly()
    assert list(k.read(ls.add(x, u, 2)).items()) == [((), 2), (((0, 1),), 1),
                                                     (((1, 1),), 1)]


# --- tree walkers --------------------------------------------------------------

def test_walkers_visit_each_distinct_node_once(monkeypatch):
    e = chain(60, ls.add(ls.mul(uxx, y), UFunc("f", (x, u))))
    distinct = len({id(s) for s in expr._distinct(e)})
    assert distinct < 200
    calls = counting(monkeypatch, expr, "_kids")
    for walk, want in [(jets_of, (u, ux, uxx)), (jet_order, 2),
                       (lambda e: contains(e, Jet(1, (2,))), False),
                       (lambda e: contains(e, Param("c")), False)]:
        calls.clear()
        assert walk(e) == want
        assert len(calls) == distinct
    assert contains(e, y) and contains(e, UFunc("f", (x, u)))
    assert contains(e, e.terms[0]) and not contains(e, ls.add(x, 7))


def test_walkers_agree_with_subterms(rng):
    atoms = test_expr.TestExpandAgainstReference.ATOMS + [uxx, Jet(1, (2, 2))]
    for _ in range(200):
        e = rand_expr(rng, atoms, depth=4)
        jets = {s for s in subterms(e) if isinstance(s, Jet)}
        assert jets_of(e) == tuple(sorted(jets, key=_term_order))
        assert jet_order(e) == max((j.order for j in jets), default=0)
        for a in atoms[:6] + [Var(3), Jet(1, (1, 1, 1))]:
            assert contains(e, a) == any(s == a for s in subterms(e))


# --- the structural map: normalize, substitute and evaluate ------------------

F = UFunc("f", (x, u))
MAP_ATOMS = [x, y, u, ux, Param("c"), F]


def result(f, *args):
    """(type, value) of ``f(*args)``, or (type, message) of the library
    error it raises."""
    try:
        out = f(*args)
    except ls.LiesymError as exc:
        return type(exc), str(exc)
    return type(out), out


def rand_dag(rng, steps=8):
    """A seeded DAG: each step builds a node over two earlier ones, among
    them ``rand_expr`` trees, so that later nodes share subtrees."""
    pool = MAP_ATOMS + [rand_expr(rng, MAP_ATOMS, depth=2) for _ in range(3)]
    for _ in range(steps):
        a, b = rng.choice(pool), rng.choice(pool)
        make = rng.choice([
            lambda: ls.add(a, b), lambda: ls.mul(a, b),
            lambda: ls.pow_(a, rng.choice([2, -1, Fraction(1, 2)])),
            lambda: ls.func(rng.choice(ls.expr.FUNC_NAMES), a),
            lambda: UFunc("g", (a, b))])
        try:
            pool.append(make())
        except ls.LiesymError:
            pass
    return pool[-1]


def raw_dag(rng, steps=8):
    """As ``rand_dag``, but from the raw node dataclasses: unsorted and
    repeated children, and constants that only ``normalize`` folds."""
    pool = MAP_ATOMS + [ZERO, Const(Fraction(-3, 2)), Const(4)]
    for _ in range(steps):
        kids = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        pool.append(rng.choice([
            lambda: ls.Add(kids),
            lambda: ls.Mul(rng.choice([1, -2, Fraction(1, 3)]), kids),
            lambda: ls.Pow(kids[0], rng.choice([2, 3, -1, Fraction(1, 2)])),
            lambda: ls.Func(rng.choice(ls.expr.FUNC_NAMES), kids[0]),
            lambda: UFunc("g", kids, rng.choice([(), (0,)]))])())
    return pool[-1]


class RandomPoint(dict):
    """A seeded point that gives an atom a random value (0 included) at its
    first lookup, so the values it holds follow the order of the lookups."""

    def __init__(self, seed, fixed=()):
        super().__init__(fixed)
        self.rng = random.Random(seed)

    def __missing__(self, atom):
        v = self[atom] = Fraction(self.rng.randint(-3, 3), self.rng.randint(1, 3))
        return v


def test_normalize_matches_the_recursive_walker():
    rng = random.Random(5201)
    kinds = set()
    for _ in range(400):
        e = raw_dag(rng)
        want = result(ref_normalize, e)
        assert result(ls.normalize, e) == want
        kinds.add(want[0])
        t = rand_dag(rng)
        assert ls.normalize(t) is t
    assert {ls.Add, ls.Mul, ls.DegenerateExpression} <= kinds
    # the first of two errors in the order of the walk stands
    for terms in [(ls.Func("log", ZERO), ls.Pow(ZERO, -1)),
                  (ls.Pow(ZERO, -1), ls.Func("log", ZERO))]:
        e = ls.Add(terms)
        assert result(ls.normalize, e) == result(ref_normalize, e)
    assert result(ls.normalize, e)[1] == "0 raised to a negative power"


def test_substitute_matches_the_recursive_walker():
    rng = random.Random(5202)
    values = [0, 1, -2, Fraction(1, 2), ZERO, ls.add(x, 1), ls.mul(u, y), ux]
    kinds = set()
    for _ in range(400):
        e = rand_dag(rng)
        b = {a: rng.choice(values + [rand_expr(rng, MAP_ATOMS, depth=2)])
             for a in rng.sample(MAP_ATOMS, rng.randint(1, 4))}
        want = result(ref_subst, e, b)
        assert result(ls.substitute, e, b) == want
        kinds.add(want[0])
    assert {ls.Add, ls.Mul, ls.DegenerateExpression} <= kinds


def test_evaluate_matches_the_recursive_walker():
    rng = random.Random(5203)
    kinds = set()
    for i in range(400):
        e = rand_dag(rng)
        # the point's values, and so the result, follow the lookup order
        got, want = RandomPoint(i), RandomPoint(i)
        out = result(ref_evaluate, e, want)
        assert result(ls.evaluate, e, got) == out
        assert list(got.items()) == list(want.items())
        kinds.add(out[1] if out[0] is ls.EvaluationError else out[0])
        env = {a: rand_rational(rng) for a in rng.sample(MAP_ATOMS, 4)}
        assert result(ls.evaluate, e, env) == result(ref_evaluate, e, env)
    assert Fraction in kinds
    assert "division by zero during evaluation" in kinds
    assert any(k.startswith("cannot evaluate") for k in kinds if type(k) is str)


def test_first_errors_of_the_map():
    # a binding to 0 under a negative power
    e = ls.add(ls.mul(y, ls.pow_(u, -1)), ls.func("log", ls.add(x, 1)))
    for b in ({u: 0}, {u: ZERO, x: -1}, {x: -1}):
        assert result(ls.substitute, e, b) == result(ref_subst, e, b)
    assert result(ls.substitute, e, {u: 0})[0] is ls.DegenerateExpression
    env = {u: Fraction(0), y: Fraction(2)}
    assert result(ls.evaluate, ls.pow_(u, -1), env) == (
        ls.EvaluationError, "division by zero during evaluation")
    # a function around an unassigned atom: the function is named, after
    # the factors before it (x, then u) are looked up
    e = ls.mul(ls.func("exp", y), ls.pow_(u, -1), x)
    for env in ({x: 1}, {x: 1, u: 1}, {x: 1, u: 0}, {}):
        assert result(ls.evaluate, e, env) == result(ref_evaluate, e, env)
    assert result(ls.evaluate, e, {x: 1, u: 1}) == (
        ls.EvaluationError, "cannot evaluate exp exactly")
    # a bound unknown function is not rebuilt, nor its argument evaluated
    g = UFunc("g", (ls.pow_(u, -1), ls.func("exp", x)))
    e = ls.add(ls.mul(g, y), u)
    for b in ({g: 7, u: 0}, {u: 0}):
        assert result(ls.substitute, e, b) == result(ref_subst, e, b)
    assert ls.substitute(e, {g: 7, u: 0}) == ls.mul(7, y)
    env = {g: Fraction(3), y: Fraction(2), u: Fraction(0)}
    assert result(ls.evaluate, e, env) == (Fraction, 6) == result(ref_evaluate, e, env)


@pytest.mark.parametrize("k", [12, 40])
def test_map_rebuilds_each_distinct_node_once(monkeypatch, k):
    # k = 12 first: a map that rebuilds at each use fails there, quickly
    e = chain(k)
    distinct = len({id(s) for s in expr._distinct(e)})
    assert distinct < 150
    calls = counting(monkeypatch, expr, "_rebuild")
    assert ls.normalize(e) is e
    assert len(calls) <= distinct
    calls.clear()
    # u -> x rebuilds the chain over x + 1, level by level
    assert ls.substitute(e, {u: x}) is chain(k, ls.add(x, 1))
    assert len(calls) <= distinct
    values = counting(monkeypatch, expr, "_value")
    env = {u: Fraction(1, 2), ux: Fraction(-2, 3), x: Fraction(1, 3)}
    assert ls.evaluate(e, env) == Fraction(3, 2) * Fraction(-1, 3) ** k
    assert len(values) <= distinct


# --- the batch printer ----------------------------------------------------------

def test_batch_prints_what_each_call_prints(rng):
    ctx = ls.Context(("x", "y"), ("u",), ("c",))
    atoms = [x, y, u, ux, uxx, Param("c")]
    shared = chain(5, ls.add(ls.mul(-2, u), ls.pow_(ls.add(x, ux), Fraction(-1, 2))))
    exprs = [shared, ls.neg(shared), ls.mul(shared, shared), *shared.terms]
    exprs += [rand_expr(rng, atoms, depth=3) for _ in range(100)]
    assert format_exprs(exprs, ctx) == [format_expr(e, ctx) for e in exprs]
    assert format_exprs([], ctx) == []
