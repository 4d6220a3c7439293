"""Determining equations in the differential polynomial ring.

``determining_equations`` builds the defects of a polynomial system as
monomial dicts and falls back to the tree path for every other system and
for a reduction past the order cap.  Both must give what
``ref_determining_equations`` (the tree path alone) gives, node for node:
equations in the same order with the same signs, splitting variables and
errors.
"""
import dataclasses
import random
from fractions import Fraction

import pytest

import liesym as ls
from liesym import Ansatz, Jet, UFunc, Var, detsys, ratla
from liesym._diffring import _Ring, _RingEquations, ring_determining
from liesym._distributed import _Poly
from liesym.expr import _term_order, expand, partials
from liesym.jet import total_derivative

from conftest import rand_poly, ref_determining_equations
from test_demand_driven import default_names, outcome, same
from test_detsys import BENCH_PROBLEMS, ROADMAP_SYSTEMS, ref_matrix, same_rows, systems


def high_order(k: int) -> str:
    return f"indep x t\ndep u\nsystem s: u_t = u_{'x' * k} + u*u_x"


RING_SYSTEMS = {
    "param": "indep x t\ndep u\nparam nu\nsystem s: u_t = nu*u_xx",
    "params": "indep x t\ndep u\nparam a b\nsystem s: u_t = a*u_xx + b*u^2*u_x",
    "cube": "indep x t\ndep u\nsystem s: u_t = (u + u_x)^3 + u_xx",
    "constant": "indep x t\ndep u\nsystem s: u_t = u_xx + 1",
    "inhomogeneous": "indep x t\ndep u\nsystem s: u_t = u_xx + x*t^2 - 3",
    "coupled": "indep x t\ndep u v\nsystem s: u_t = v_xx + u*v; v_t = u_xx - v^2*u_x",
    # a right-hand side that reads another equation's lead
    "chained": "indep x t\ndep u v\nsystem s: u_t = u_xx + u*v_x^2; v_x = u^2 + u_x",
}

FALLBACK_SYSTEMS = {
    "exp": "indep x t\ndep u\nsystem s: u_t = u_xx + exp(u)",
    "negative": "indep x t\ndep u\nsystem s: u_t = u^(-2)*u_xx - 2*u^(-3)*u_x^2",
    "fractional": "indep x t\ndep u\nsystem s: u_t = u^(1/2)*u_xx",
    # u_xxx cancels from the expansion but not from the tree, whose defect
    # then has splitting variables the polynomial lacks
    "cancelled": "indep x t\ndep u\nsystem s: "
                 "u_t = u_xx + (u + u_xxx)^2*u - u_xxx^2*u - 2*u^2*u_xxx",
    # the tree path substitutes u for v inside the unknown functions
    "order0": "indep x t\ndep u v\nsystem s: u_t = u_xx; v = u",
}

MECHANICS = [(name, s) for name, s in systems() if name.startswith("mechanics.")]


def parsed(text):
    return ls.parse_problem(text).systems["s"]


def ring_only(monkeypatch):
    """Make the tree path fail, so only the ring can answer."""
    def refuse(*_):
        raise AssertionError("tree path taken")
    monkeypatch.setattr(detsys, "symmetry_defect", refuse)


def tree_taken(monkeypatch):
    """Record each call of the tree path."""
    calls = []
    defect = detsys.symmetry_defect
    monkeypatch.setattr(detsys, "symmetry_defect",
                        lambda *a: calls.append(a) or defect(*a))
    return calls


# --- the ring against the tree path -----------------------------------------

POLYNOMIAL = [(n, s) for n, s in systems() if n.split(".")[0] in
              ("burgers", "heat", "heat2d", "kdv", "wave", *ROADMAP_SYSTEMS)]


@pytest.mark.parametrize("name,sys_", POLYNOMIAL + [
    (n, parsed(t)) for n, t in RING_SYSTEMS.items()], ids=lambda x: x
    if isinstance(x, str) else "")
def test_polynomial_systems_take_the_ring(monkeypatch, name, sys_):
    ref = ref_determining_equations(sys_)
    ring_only(monkeypatch)
    same(ls.determining_equations(sys_), ref)


def test_every_polynomial_bench_system_is_listed():
    covered = {n for n, _ in POLYNOMIAL} | {n for n, _ in MECHANICS} | {
        "minimal.minimal"}
    assert {n for n, _ in systems()} == covered


def test_custom_names(monkeypatch):
    sys_ = parsed(ROADMAP_SYSTEMS["boussinesq"])
    names = (["X", "T"], ["U", "V"])
    ref = ref_determining_equations(sys_, *names)
    ring_only(monkeypatch)
    got = ls.determining_equations(sys_, *names)
    same(got, ref)
    assert (got.xi_names, got.phi_names) == (("X", "T"), ("U", "V"))


@pytest.mark.parametrize("k", [6, 7])
def test_high_order_with_an_explicit_cap(monkeypatch, k):
    sys_ = parsed(high_order(k))
    ref = ref_determining_equations(sys_, None, None, 2 * k - 1)
    ring_only(monkeypatch)
    same(ls.determining_equations(sys_, None, None, 2 * k - 1), ref)


def test_tenth_order_takes_the_ring(monkeypatch):
    # the tree path builds these equations too, within the timeout of the
    # CI step that runs this system through the installed console script,
    # so only this test tells a silent fallback
    ring_only(monkeypatch)
    ds = ls.determining_equations(parsed(high_order(10)), None, None, 19)
    assert type(vars(ds)["equations"]) is _RingEquations
    assert len(ds.equations) == 474


@pytest.mark.parametrize("k,jet", [(6, "u_xxxxxt"), (7, "u_xxxxxxt")])
def test_default_cap_error_comes_from_the_tree_path(monkeypatch, k, jet):
    sys_ = parsed(high_order(k))
    calls = tree_taken(monkeypatch)
    with pytest.raises(ls.OrderCapExceeded) as exc:
        ls.determining_equations(sys_)
    assert str(exc.value) == f"reducing {jet} needs jets beyond order {k + 4}"
    assert calls
    monkeypatch.undo()
    same(outcome(ls.determining_equations, sys_),
         outcome(ref_determining_equations, sys_))


@pytest.mark.parametrize("name,sys_", [
    (n, parsed(t)) for n, t in FALLBACK_SYSTEMS.items()] + MECHANICS,
    ids=lambda x: x if isinstance(x, str) else "")
def test_other_systems_take_the_tree_path(monkeypatch, name, sys_):
    ref = outcome(ref_determining_equations, sys_)
    calls = tree_taken(monkeypatch)
    same(outcome(ls.determining_equations, sys_), ref)
    assert calls, name


def test_minimal_surface_error_is_unchanged():
    sys_ = ls.parse_problem((BENCH_PROBLEMS / "minimal.prob").read_text()
                            ).systems["minimal"]
    with pytest.raises(ls.NotPolynomial) as exc:
        ls.determining_equations(sys_)
    assert str(exc.value) == ("variable occurs inside non-polynomial factor "
                              "(1 + u_x^2)^(-2)")
    same(outcome(ls.determining_equations, sys_),
         outcome(ref_determining_equations, sys_))


def test_random_polynomial_systems():
    rng = random.Random(4201)
    ctx = ls.Context(("x", "t"), ("u",))
    atoms = [Var(1), Var(2), Jet(1, ()), Jet(1, (1,)), Jet(1, (1, 1))]
    for _ in range(12):
        rhs = rand_poly(rng, atoms, degree=3, terms=4)
        sys_ = ls.DiffSystem(ctx, ((Jet(1, (2,)), rhs),))
        want = outcome(ref_determining_equations, sys_)
        same(outcome(ls.determining_equations, sys_), want)


# --- from the equations to solve_determining --------------------------------

HANDOFF = POLYNOMIAL + [(n, parsed(t)) for n, t in RING_SYSTEMS.items()]


@pytest.mark.parametrize("name,sys_", HANDOFF,
                         ids=lambda x: x if isinstance(x, str) else "")
def test_solve_reads_the_ring(monkeypatch, name, sys_):
    """Solving a ring-built system, one rebuilt by hand and one with its
    equations reversed gives the rows of their own equations, up to row
    order, and the same basis; the ring-built system holds its five fields
    and nothing else."""
    ds = ls.determining_equations(sys_)
    assert list(vars(ds)) == [f.name for f in dataclasses.fields(ds)] == [
        "ctx", "xi_names", "phi_names", "equations", "splitting_vars"]
    by_hand = ls.DeterminingSystem(ds.ctx, ds.xi_names, ds.phi_names,
                                   ds.equations, ds.splitting_vars)
    assert by_hand == ds and hash(by_hand) == hash(ds)
    assert repr(by_hand) == repr(ds)
    turned = dataclasses.replace(ds, equations=ds.equations[::-1])
    matrices = []
    _kernel = ratla._kernel
    monkeypatch.setattr(ratla, "_kernel", lambda m: matrices.append(m) or _kernel(m))
    for degree in (2, 3):
        bases = []
        for d in (ds, by_hand, turned):
            matrices.clear()
            basis = outcome(ls.solve_determining, d, Ansatz(degree))
            ref = outcome(ref_matrix, d, Ansatz(degree))
            if isinstance(ref, ratla.RatMatrix):
                (m,) = matrices
                assert same_rows(m, ref), (name, degree)
            else:
                assert basis == ref, (name, degree)
            bases.append(basis)
        assert bases[0] == bases[1], (name, degree)
        if isinstance(bases[0], list):
            assert bases[2] == bases[0], (name, degree)


def by_hand(ds):
    """``ds`` rebuilt from its equation trees, which ``solve_determining``
    reads through the tree path."""
    return ls.DeterminingSystem(ds.ctx, ds.xi_names, ds.phi_names,
                                ds.equations, ds.splitting_vars)


@pytest.mark.parametrize("name,sys_", HANDOFF,
                         ids=lambda x: x if isinstance(x, str) else "")
def test_ring_dicts_and_trees_solve_alike(monkeypatch, name, sys_):
    """At ansatz degrees 0-4, solving from the ring's dicts and from the
    equation trees assembles the same rows, up to row order, and gives
    node-identical bases, or the same error type and message (the systems
    with parameters)."""
    matrices = []
    _kernel = ratla._kernel
    monkeypatch.setattr(ratla, "_kernel", lambda m: matrices.append(m) or _kernel(m))
    ds = ls.determining_equations(sys_)
    assert type(vars(ds)["equations"]) is _RingEquations
    for degree in range(5):
        matrices.clear()
        got = outcome(ls.solve_determining, ds, Ansatz(degree))
        hand = by_hand(ds)
        assert type(vars(hand)["equations"]) is tuple
        same(got, outcome(ls.solve_determining, hand, Ansatz(degree)))
        assert len(matrices) in (0, 2), name
        assert not matrices or same_rows(*matrices), name


@pytest.mark.parametrize("name,sys_", HANDOFF,
                         ids=lambda x: x if isinstance(x, str) else "")
def test_equations_are_the_trees_of_the_ring_dicts(name, sys_):
    """``equations`` is ``k.tree`` of each ring dict, in order, built on the
    first read and kept."""
    ds = ls.determining_equations(sys_)
    ring = vars(ds)["equations"]
    assert ring.trees is None
    eqs = ds.equations
    assert type(eqs) is tuple and ring.trees is eqs and ds.equations is eqs
    assert len(eqs) == len(ring.dicts)
    for e, c in zip(eqs, ring.dicts):
        assert e is ring.k.tree(c), name


def trees_built(monkeypatch):
    """Record the polynomial of each ``_Poly.tree`` call."""
    calls = []
    tree = _Poly.tree
    monkeypatch.setattr(_Poly, "tree", lambda k, poly: calls.append(poly) or tree(k, poly))
    return calls


@pytest.mark.parametrize("name,sys_", HANDOFF,
                         ids=lambda x: x if isinstance(x, str) else "")
def test_solving_a_ring_system_builds_no_equation_tree(monkeypatch, name, sys_):
    """``determining_equations`` then ``solve_determining`` turns no
    equation dict into a tree; the rounds of ``expand`` that read each
    right-hand side build trees of their own."""
    calls = trees_built(monkeypatch)
    ds = ls.determining_equations(sys_)
    for degree in (0, 2):
        outcome(ls.solve_determining, ds, Ansatz(degree))
    ring = vars(ds)["equations"]
    assert ring.trees is None, name
    assert not [p for p in calls if p in ring.dicts], name


def ring_equations(monkeypatch):
    """Record the :class:`_RingEquations` of each ``ring_determining`` call."""
    got = []
    ring = detsys.ring_determining

    def record(*args):
        split, eqs = ring(*args)
        got.append(eqs)
        return split, eqs

    monkeypatch.setattr(detsys, "ring_determining", record)
    return got


@pytest.mark.parametrize("eq", ["heat", "burgers", "kdv", "wave", "heat2d"])
def test_cli_solve_builds_no_tree(monkeypatch, capsys, eq):
    from liesym.cli import main

    calls = trees_built(monkeypatch)
    rings = ring_equations(monkeypatch)
    assert main(["solve", "--file", str(BENCH_PROBLEMS / f"{eq}.prob"),
                 "--system", eq, "--degree", "3"]) == 0
    assert '"dimension"' in capsys.readouterr().out
    (ring,) = rings
    assert ring.trees is None
    assert not [p for p in calls if p in ring.dicts]


def rounds_taken(monkeypatch):
    """Record each expression ``_Poly.fixed_point`` runs its rounds on."""
    calls = []
    fixed_point = _Poly.fixed_point
    monkeypatch.setattr(_Poly, "fixed_point",
                        lambda k, e, *a: calls.append(e) or fixed_point(k, e, *a))
    return calls


def reads_the_expansion(e):
    """A flat ``e`` is its own expansion, which one round finds, and
    ``monomials(e)`` is the dict that ``read`` makes of ``expand(e)``, in
    the same order, on the same generator table."""
    k, ref = _Poly(), _Poly()
    assert _Poly().fixed_point(e) is e
    got, want = k.monomials(e), ref.read(expand(e))
    assert list(got.items()) == list(want.items()), e
    assert k.gens == ref.gens and k.kind == ref.kind, e


@pytest.mark.parametrize("name,sys_", HANDOFF,
                         ids=lambda x: x if isinstance(x, str) else "")
def test_flat_equations_are_read_as_they_stand(name, sys_):
    for e in ls.determining_equations(sys_).equations:
        reads_the_expansion(e)


def test_flat_read_of_random_polynomials():
    rng = random.Random(4204)
    args = (Var(1), Var(2), Jet(1, ()))
    atoms = [*args, Jet(1, (1,)), ls.Param("c"), UFunc("f", args),
             UFunc("f", args, (0, 2)), UFunc("g", (Var(1), ls.Const(2))),
             ls.pow_(Var(1), -1), ls.pow_(Jet(1, (1, 1)), Fraction(1, 2)),
             ls.pow_(UFunc("f", args), Fraction(-3, 2))]
    for _ in range(300):
        reads_the_expansion(rand_poly(rng, atoms, degree=4, terms=5))


def test_other_trees_take_the_rounds(monkeypatch):
    args = (Var(1), Var(2), Jet(1, ()))
    xi, xi_x = UFunc("xi", args), UFunc("xi", args, (0,))
    x, u = Var(1), Jet(1, ())
    for e in (ls.mul(ls.pow_(ls.add(1, x), 2), xi_x),
              ls.mul(ls.func("exp", u), xi),
              ls.mul(ls.pow_(ls.Const(2), Fraction(1, 2)), x),
              ls.add(x, UFunc("f", (ls.add(x, u),)))):
        k = _Poly()
        assert k.tree(k.monomials(e)) is expand(e), e
        calls = rounds_taken(monkeypatch)
        _Poly().monomials(e)
        assert calls == [e]
        monkeypatch.undo()


@pytest.mark.parametrize("name,sys_", HANDOFF,
                         ids=lambda x: x if isinstance(x, str) else "")
def test_dict_dedup_is_distinct(name, sys_):
    """Deduplicating the ring's coefficient dicts keeps the trees, order and
    signs included, that ``_distinct`` keeps of all the candidate trees.
    Among the candidates, heat2d, KdV, heat3d and others repeat an equation,
    and wave, Boussinesq, NLS, KP, coupled and chained repeat one negated."""
    ext, v = detsys.generic_vector_field(sys_.ctx, *default_names(sys_.ctx))
    ext_sys = ls.DiffSystem(ext, sys_.equations)
    cap = detsys._order_cap(sys_, None)

    def reduction(j):
        return detsys._reduction(j, ext_sys)

    _, eqs = ring_determining(ext_sys, v.xi, v.phi, cap, reduction)
    ring = _Ring(ext_sys.equations, ext.p, cap, reduction)
    defects = ring.defects(ext_sys.equations, v.xi, v.phi)
    gens = ring.k.gens
    split = {g for d in defects for m in d for g, _ in m
             if type(gens[g]) is Jet and gens[g].idx}
    candidates = [ring.k.tree(c) for d in defects
                  for c in ring.coefficients(d, split)]
    same(tuple(map(eqs.k.tree, eqs.dicts)), detsys._distinct(candidates))


@pytest.mark.parametrize("name,sys_", HANDOFF + [("high6", parsed(high_order(6)))],
                         ids=lambda x: x if isinstance(x, str) else "")
def test_term_key_is_the_canonical_term_order(name, sys_):
    """The key computed on a defect's monomials sorts its terms as the
    trees of those terms sort in canonical order, in every permutation
    tried."""
    ext, v = detsys.generic_vector_field(sys_.ctx, *default_names(sys_.ctx))
    ext_sys = ls.DiffSystem(ext, sys_.equations)
    cap = 11 if name == "high6" else detsys._order_cap(sys_, None)
    ring = _Ring(ext_sys.equations, ext.p, cap,
                 lambda j: detsys._reduction(j, ext_sys))
    rng = random.Random(4203)
    for d in ring.defects(ext_sys.equations, v.xi, v.phi):
        terms = list(d.items())
        want = sorted(terms, key=lambda mc: _term_order(ring.k.product(*mc)))
        for _ in range(3):
            rng.shuffle(terms)
            assert sorted(terms, key=ring.term_key) == want, name
        # a scaled copy reaches the lone-generator and constant keys with
        # coefficients other than 1
        scaled = [(m, c * 3) for m, c in want] + [((), 2), ((), -1)]
        assert sorted(scaled, key=ring.term_key) == sorted(
            scaled, key=lambda mc: _term_order(ring.k.product(*mc))), name


# --- the derivation ----------------------------------------------------------

def test_derivation_is_the_total_derivative():
    """D_i of a polynomial in jets, variables and unknown functions, read
    back as a tree, is the expanded ``total_derivative``."""
    rng = random.Random(4202)
    ctx = ls.Context(("x", "t"), ("u", "v"))
    args = (Var(1), Var(2), Jet(1, ()), Jet(2, ()))
    atoms = list(args) + [Jet(1, (1,)), Jet(2, (1, 2)), UFunc("f", args),
                          UFunc("f", args, (0, 2)), ls.Param("c")]
    for _ in range(20):
        e = expand(rand_poly(rng, atoms, degree=3, terms=4))
        ring = _Ring((), ctx.p, 10, lambda j: None)
        k = ring.k
        poly = k.read(e)
        for i in (1, 2):
            want = expand(total_derivative(e, i))
            same(k.tree(ring.derive(poly, i)), want)


def test_read_refuses_what_the_ring_cannot_hold():
    ctx = ls.Context(("x", "t"), ("u",), ("c",))
    ring = _Ring((), ctx.p, 10, lambda j: None)
    for text in ("u^(-1)*u_x", "u^(1/2)", "exp(u)", "u_x/c",
                 "(u + u_x)^2 - u_x^2 - 2*u*u_x"):
        assert ring.read(ls.parse_expr(text, ctx)) is None, text
    for text in ("(u + u_x)^2", "c*u_xx + 3", "x^2*t"):
        e = ls.parse_expr(text, ctx)
        want = _Poly().monomials(e)
        got = ring.read(e)
        assert got is not None and ring.k.tree(got) == expand(e), text
        assert len(got) == len(want)


def test_partial_by_generator():
    ctx = ls.Context(("x", "t"), ("u",))
    ring = _Ring((), ctx.p, 10, lambda j: None)
    e = ls.parse_expr("u_x^3*u + 2*u_x*x - u", ctx)
    poly = ring.read(e)
    for atom, d in partials(e).items():
        got = ring.partial(poly, ring.k.gen(atom))
        same(ring.k.tree(got), expand(d))
