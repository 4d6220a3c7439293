"""Demand-driven symmetry defects against the reference pipeline.

``symmetry_defect`` prolongs only the jets its residuals read,
``reduce_mod_system`` takes every D_K(rhs) from one prefix table per
equation and looks only at the jets of its latest replacements, and
``solve_determining`` builds a monomial only for a nonzero basis entry.  The
``ref_`` functions below are verbatim copies of the versions that prolonged
every jet, rescanned the whole expression each round and built every
monomial up front; defects, determining equations, bases and errors must be
node for node the same.
"""
import random
from fractions import Fraction

import pytest

import liesym as ls
from liesym import Ansatz, DiffSystem, Jet, Var, detsys, ratla
from liesym.detsys import _reducible_by
from liesym.errors import OrderCapExceeded
from liesym.expr import (
    Const,
    Expr,
    ZERO,
    add,
    jet_order,
    jets_of,
    mul,
    substitute,
)
from liesym.jet import (
    _dj_table,
    _idxs_upto,
    _jets_read,
    _prefix_closure,
    _prolong_for,
    apply_prolonged,
    prolong,
    total_derivative_multi,
)

from conftest import (
    rand_expr,
    rand_point_vf,
    rand_poly,
    ref_determining_equations,
    ref_monomials,
)
from test_detsys import BENCH_PROBLEMS, ROADMAP_SYSTEMS, systems


# --- reference implementations (verbatim) ----------------------------------

def ref_reduce_mod_system(e: Expr, sys: DiffSystem, order_cap: int | None = None) -> Expr:
    """Eliminate every lead derivative and all its prolongations from ``e``.

    Each reducible jet D_K(lead) is replaced by D_K(rhs), computed on demand,
    until none remains.  ``order_cap`` bounds the jet order any replacement may
    reach (default: system order + 4); each round scans the jets from the
    highest down in canonical order, and the error names the first whose
    replacement passes it.
    """
    cap = order_cap if order_cap is not None else sys.order + 4
    while True:
        bindings: dict[Expr, Expr] = {}
        for j in sorted(jets_of(e), key=lambda j: (j.dep, len(j.idx), j.idx),
                        reverse=True):
            for lead, rhs in sys.equations:
                extra = _reducible_by(j, lead)
                if extra is not None:
                    repl = total_derivative_multi(rhs, extra)
                    if jet_order(repl) > cap:
                        raise OrderCapExceeded(
                            f"reducing {j} needs jets beyond order {cap}"
                        )
                    bindings[j] = repl
                    break
        if not bindings:
            return e
        e = substitute(e, bindings)


def ref_symmetry_defect(v, sys: DiffSystem,
                        order_cap: int | None = None) -> list[Expr]:
    """Prolonged action on each residual, reduced modulo the system."""
    n = sys.order
    pv = prolong(v, n)
    return [
        ref_reduce_mod_system(apply_prolonged(pv, r), sys, order_cap)
        for r in sys.residuals()
    ]


def ref_instantiate(unknowns, name: str, vec) -> Expr:
    """The ``instantiate`` closure of the old ``solve_determining``."""
    first, _, monos = unknowns[name]
    return add(*(mul(Const(vec[first + k]), mono)
                 for k, (_, mono) in enumerate(monos) if vec[first + k]))


def ref_basis(ds, ansatz, kernel):
    """The old ``solve_determining``'s ansatz table and instantiation loop,
    applied to the kernel the new one computed."""
    ctx = ds.ctx
    unknowns = {}
    ncols = 0
    for name in tuple(ds.xi_names) + tuple(ds.phi_names):
        args = ctx.unknown_arg_atoms(name)
        monos = ref_monomials(args, ansatz.degree)
        unknowns[name] = (ncols, args, monos)
        ncols += len(monos)
    out = []
    for vec in kernel:
        lead = next((x for x in vec if x != 0), None)
        if lead is not None and lead != 1:
            vec = [x / lead for x in vec]
        xi = tuple(ref_instantiate(unknowns, n, vec) for n in ds.xi_names)
        phi = tuple(ref_instantiate(unknowns, n, vec) for n in ds.phi_names)
        out.append(ls.VectorField(ctx, xi, phi))
    return out


# --- helpers ---------------------------------------------------------------

def same(a, b):
    """Node for node: structural equality and identical reprs."""
    assert a == b
    assert repr(a) == repr(b)


def raw(exc: Exception) -> str:
    """The message with every named expression shown by its repr, as the
    reference implementations wrote it."""
    exprs = getattr(exc, "exprs", ())
    return exc.template.format(*map(repr, exprs)) if exprs else str(exc)


def default_names(ctx):
    """The xi and phi names determining_equations picks by default."""
    return ([f"xi{i+1}" if ctx.p > 1 else "xi" for i in range(ctx.p)],
            [f"phi{a+1}" if ctx.q > 1 else "phi" for a in range(ctx.q)])


def outcome(f, *args):
    """``f(*args)``, or the library error's type and raw message."""
    try:
        return f(*args)
    except ls.LiesymError as exc:
        return type(exc), raw(exc)


# --- the defect and the determining system ---------------------------------

@pytest.mark.parametrize("name,sys_", list(systems()), ids=lambda x: x
                         if isinstance(x, str) else "")
def test_determining_matches_reference(monkeypatch, name, sys_):
    # the generic field's defects, which the tree path of
    # determining_equations splits
    ext, generic = detsys.generic_vector_field(sys_.ctx, *default_names(sys_.ctx))
    ext_sys = DiffSystem(ext, sys_.equations)
    same(outcome(detsys.symmetry_defect, generic, ext_sys),
         outcome(ref_symmetry_defect, generic, ext_sys))
    new = outcome(ls.determining_equations, sys_)
    same(new, outcome(ref_determining_equations, sys_))
    if not isinstance(new, ls.DeterminingSystem):
        return
    _kernel = ratla._kernel
    for degree in (2, 3):
        kernels = []
        monkeypatch.setattr(ratla, "_kernel",
                            lambda m: kernels.append((m.cols, _kernel(m))) or kernels[-1][1])
        basis = outcome(ls.solve_determining, new, Ansatz(degree))
        monkeypatch.undo()
        if not kernels:     # the rows are not linear homogeneous
            assert isinstance(basis, tuple), name
            continue
        ((cols, vectors),) = kernels
        kernel = [[v.get(j, Fraction(0)) for j in range(cols)] for v in vectors]
        assert len(basis) == len(kernel)
        for v, w in zip(basis, ref_basis(new, Ansatz(degree), kernel)):
            same(v.xi, w.xi)
            same(v.phi, w.phi)


def test_every_system_is_covered():
    names = {name for name, _ in systems()}
    assert {f"{p.stem}.{s}" for p in BENCH_PROBLEMS.glob("*.prob")
            for s in ls.parse_problem(p.read_text()).systems} <= names
    assert set(ROADMAP_SYSTEMS) <= names


def problem_fields():
    for path in sorted(BENCH_PROBLEMS.glob("*.prob")):
        prob = ls.parse_problem(path.read_text())
        for sname, sys_ in prob.systems.items():
            for vname, v in prob.vfields.items():
                yield f"{path.stem}.{sname}.{vname}", v, sys_


@pytest.mark.parametrize("name,v,sys_", list(problem_fields()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_concrete_field_defects(name, v, sys_):
    for cap in (None, 1, 2):
        same(outcome(detsys.symmetry_defect, v, sys_, cap),
             outcome(ref_symmetry_defect, v, sys_, cap))


def test_random_field_defects():
    rng = random.Random(4101)
    cases = [(n, s) for n, s in systems()
             if n in ("heat.heat", "kdv.kdv", "wave.wave", "boussinesq", "nls")]
    for name, sys_ in cases:
        for _ in range(3):
            v = rand_point_vf(rng, sys_.ctx)
            same(outcome(detsys.symmetry_defect, v, sys_),
                 outcome(ref_symmetry_defect, v, sys_))


def test_cap_error_names_the_jet_in_declared_names():
    prob = ls.parse_problem((BENCH_PROBLEMS / "minimal.prob").read_text())
    sys_, v = prob.systems["minimal"], prob.vfields["rxy"]
    with pytest.raises(OrderCapExceeded) as exc:
        detsys.symmetry_defect(v, sys_, 1)
    assert str(exc.value) == "reducing u_yy needs jets beyond order 1"
    with pytest.raises(OrderCapExceeded) as ref:
        ref_symmetry_defect(v, sys_, 1)
    assert raw(exc.value) == str(ref.value)


# --- reduction modulo the system -------------------------------------------

HEAT = ls.parse_problem("indep x t\ndep u\nsystem s: u_t = u_xx").systems["s"]
BOUSSINESQ = ls.parse_problem(ROADMAP_SYSTEMS["boussinesq"]).systems["s"]


def jets(sys_, dep, *names):
    return [sys_.ctx.jet(dep, *n) for n in names]


@pytest.mark.parametrize("sys_,atoms", [
    (HEAT, [Var(1), Var(2), Jet(1, ())] + jets(
        HEAT, "u", "x", "t", "xx", "xt", "tt", "xtt", "ttt", "xxt")),
    (BOUSSINESQ, [Var(1), Jet(1, ()), Jet(2, ())] + jets(
        BOUSSINESQ, "u", "x", "t", "xt", "tt", "ttt")
        + jets(BOUSSINESQ, "v", "x", "t", "xt", "tt", "xtt")),
])
def test_reduce_matches_reference(sys_, atoms):
    rng = random.Random(4102)
    errors = 0
    for _ in range(60):
        e = rand_poly(rng, atoms, degree=3, terms=4)
        for cap in (None, 2, 3, 4, 5):
            got = outcome(ls.reduce_mod_system, e, sys_, cap)
            same(got, outcome(ref_reduce_mod_system, e, sys_, cap))
            errors += isinstance(got, tuple)
    assert errors      # the caps are met on some inputs


def test_multi_round_reduction():
    utt = Jet(1, (2, 2))
    for cap in (None, 3, 4):
        same(outcome(ls.reduce_mod_system, utt, HEAT, cap),
             outcome(ref_reduce_mod_system, utt, HEAT, cap))
    assert ls.reduce_mod_system(Jet(1, (2, 2, 2)), HEAT) == Jet(1, (1,) * 6)


def test_cancelled_jet_over_the_cap_is_not_an_error():
    # u_tt and w_tt both become v_xt, which cancels; v_xt would reduce to
    # order 4, beyond the cap, but it is no longer in the expression
    sys_ = ls.parse_problem(
        "indep x t\ndep u v w\nsystem s: u_t = v_x; w_t = v_x; v_t = u_xxx"
    ).systems["s"]
    u_tt, w_tt = sys_.ctx.jet("u", "t", "t"), sys_.ctx.jet("w", "t", "t")
    e = ls.sub(u_tt, w_tt)
    assert ref_reduce_mod_system(e, sys_, 3) == ZERO
    assert ls.reduce_mod_system(e, sys_, 3) == ZERO
    e = ls.add(e, u_tt)
    same(outcome(ls.reduce_mod_system, e, sys_, 3),
         outcome(ref_reduce_mod_system, e, sys_, 3))


# --- the prefix table and the partial lift ----------------------------------

def test_partial_table_is_the_full_one_restricted():
    rng = random.Random(4103)
    atoms = [Var(1), Var(2), Jet(1, ()), Jet(1, (1,))]
    for _ in range(20):
        e = rand_expr(rng, atoms)
        full = _dj_table(e, _idxs_upto(2, 3))
        want = rng.sample(list(full)[1:], 3)
        part = _dj_table(e, _prefix_closure(want))
        assert set(part) == {()} | set(_prefix_closure(want))
        for idx in part:
            same(part[idx], full[idx])
        # extending a table adds only the missing entries
        grown = _dj_table(e, _idxs_upto(2, 3), table=dict(part))
        assert list(grown) == list(part) + [i for i in full if i not in part]
        for idx in full:
            same(grown[idx], full[idx])


def test_prolong_for_reads_the_full_coefficients():
    rng = random.Random(4104)
    for ctx in (ls.Context(("x", "t"), ("u",)), ls.Context(("x", "t"), ("u", "v"))):
        for _ in range(3):
            v = rand_point_vf(rng, ctx)
            pv = prolong(v, 3)
            want = rng.sample(sorted(pv.coeffs, key=lambda j: (j.dep, j.idx)), 4)
            part = _prolong_for(v, 3, want)
            assert list(part.coeffs) == want
            for j in want:
                same(part.coeffs[j], pv.coeffs[j])
            assert (part.order, part.xi, part.phi) == (pv.order, pv.xi, pv.phi)


def test_jets_read():
    ctx = ls.Context(("x", "t"), ("u", "v"))
    e = ls.parse_expr("u_xt*v + u_x^2 + v_ttt + x", ctx)
    assert _jets_read([e], 2) == [Jet(1, (1,)), Jet(1, (1, 2))]
    assert _jets_read([e, ctx.jet("v", "t")], 3) == [
        Jet(1, (1,)), Jet(1, (1, 2)), Jet(2, (2,)), Jet(2, (2, 2, 2))]


def test_invariant_and_variational_checks_match_full_lift():
    curve = ls.parse_problem((BENCH_PROBLEMS / "curve.prob").read_text())
    ctx, rot = curve.ctx, curve.vfields["rot"]
    eta = ls.parse_expr("(x^2 + u^2)^(1/2)", ctx)
    w = ls.parse_expr("(x*u_x - u)/(x + u*u_x)", ctx)
    w2 = ls.next_invariant(eta, w)
    for n, f in ((1, w), (2, w2), (3, w2), (3, ls.add(w2, Var(1)))):
        expected = ls.is_zero(apply_prolonged(prolong(rot, n), f))
        assert ls.differential_invariant_check(rot, n, f) == expected
    with pytest.raises(ls.OrderError):
        ls.differential_invariant_check(rot, 1, w2)
    lag = ls.Lagrangian(ctx, ls.parse_expr("(1 + u_x^2)^(1/2)", ctx))
    full = add(apply_prolonged(prolong(rot, 1), lag.L),
               mul(lag.L, ls.total_divergence(rot.xi, ctx.p)))
    same(ls.variational_symmetry_defect(rot, lag), full)


# --- errors in the declared names and the bounded ansatz --------------------

def test_not_solved_form_names_the_jets():
    with pytest.raises(ls.ParseError) as exc:
        ls.parse_problem("indep x t\ndep u\nsystem s: u_t = u_tx")
    assert str(exc.value).endswith(
        "right-hand side contains u_xt which does not rank below the lead u_t")
    ctx = ls.Context(("x", "t"), ("u",))
    with pytest.raises(ls.NotSolvedForm) as exc:
        DiffSystem(ctx, ((Jet(1, (2,)), Jet(1, (1, 2))),))
    assert str(exc.value) == (
        "right-hand side contains u_xt which does not rank below the lead u_t")


def test_negative_degree_rejected():
    with pytest.raises(ls.LiesymError, match="negative"):
        Ansatz(-3)


def test_ansatz_column_limit():
    ds = ls.determining_equations(HEAT)
    with pytest.raises(ls.LiesymError,
                       match=r"ansatz parameter count \d+ exceeds the limit 100000"):
        ls.solve_determining(ds, Ansatz(10 ** 20))
