"""Shared subtrees: expressions that reach one node object many times.

A chain ``e_{k+1} = u_x*e_k + x*e_k`` that reuses ``e_k`` has 2^k copies of
``e_0`` in its unfolded tree but only O(k) distinct nodes.  ``expand`` and
the tree walkers ``jets_of``, ``jet_order`` and ``contains`` must do work in
proportion to the distinct nodes and give what they give on a tree with no
sharing; the batch printer must print what ``format_expr`` prints.
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
from conftest import rand_expr, same_tree
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
    # 13 products per level of the chain; an unfolded walk doubles per level
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

def ref_times(a, b):
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
        want = ref_times(a, b)
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


# --- the batch printer ----------------------------------------------------------

def test_batch_prints_what_each_call_prints(rng):
    ctx = ls.Context(("x", "y"), ("u",), ("c",))
    atoms = [x, y, u, ux, uxx, Param("c")]
    shared = chain(5, ls.add(ls.mul(-2, u), ls.pow_(ls.add(x, ux), Fraction(-1, 2))))
    exprs = [shared, ls.neg(shared), ls.mul(shared, shared), *shared.terms]
    exprs += [rand_expr(rng, atoms, depth=3) for _ in range(100)]
    assert format_exprs(exprs, ctx) == [format_expr(e, ctx) for e in exprs]
    assert format_exprs([], ctx) == []
