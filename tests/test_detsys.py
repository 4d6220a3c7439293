"""Solved-form systems: reduction, symmetry checks, determining equations,
linear solving, maximal rank."""
import itertools
import math
import operator
import time
from fractions import Fraction
from pathlib import Path

import pytest

import liesym as ls
from liesym import Ansatz, DiffSystem, Jet, Var, ratla
from liesym.detsys import _columns, _printed, _rank_key, generic_vector_field
from liesym.errors import NotPolynomial, UnknownSymbol
from liesym.expr import (
    Add,
    Expr,
    ONE,
    Param,
    UFunc,
    atoms_of,
    contains,
    expand,
)

from conftest import base_exp as _base_exp
from conftest import jumbled, rand_poly, ref_derivative_table
from conftest import ref_monomials as _monomials
from conftest import split_term as _split

x = Var(1)
t = Var(2)
u = Jet(1, ())
ux = Jet(1, (1,))
ut = Jet(1, (2,))
uxx = Jet(1, (1, 1))

# fixed expressions for the heat equation's six point-symmetry generators
def heat_basis(ctx):
    zero, one = ls.Const(0), ls.Const(1)
    return [
        ls.VectorField(ctx, (one, zero), (zero,)),
        ls.VectorField(ctx, (zero, one), (zero,)),
        ls.VectorField(ctx, (zero, zero), (u,)),
        ls.VectorField(ctx, (x, ls.mul(2, t)), (zero,)),
        ls.VectorField(ctx, (ls.mul(2, t), zero), (ls.neg(ls.mul(x, u)),)),
        ls.VectorField(ctx, (ls.mul(4, t, x), ls.mul(4, t, t)),
                       (ls.neg(ls.mul(ls.add(ls.pow_(x, 2), ls.mul(2, t)), u)),)),
    ]


class TestDiffSystem:
    def test_heat_order(self, heat_system):
        assert heat_system.order == 2

    def test_residuals(self, heat_system):
        assert heat_system.residuals() == [ls.sub(ut, uxx)]

    def test_not_solved_form(self, ctx_heat):
        # right side outranks the lead
        with pytest.raises(ls.NotSolvedForm):
            DiffSystem(ctx_heat, ((uxx, ut),))

    def test_lead_in_rhs_rejected(self, ctx_heat):
        with pytest.raises(ls.NotSolvedForm):
            DiffSystem(ctx_heat, ((ut, ls.mul(u, ut)),))

    def test_equal_leads_rejected(self, ctx_heat):
        with pytest.raises(ls.NotSolvedForm, match="must be distinct"):
            DiffSystem(ctx_heat, ((ut, uxx), (ut, ls.mul(2, uxx))))

    def test_no_equations_rejected(self, ctx_heat):
        with pytest.raises(ls.NotSolvedForm, match="at least one equation"):
            DiffSystem(ctx_heat, ())

    def test_wave_as_first_order_system(self, ctx_wave):
        vx = Jet(2, (1,))
        vt = Jet(2, (2,))
        sys_ = DiffSystem(ctx_wave, ((ut, vx), (vt, ux)))
        assert sys_.order == 1


class TestReduce:
    def test_heat_second_time_derivative(self, heat_system):
        # u_tt -> u_xxxx through two replacements
        utt = Jet(1, (2, 2))
        got = ls.reduce_mod_system(utt, heat_system)
        assert got == Jet(1, (1, 1, 1, 1))

    def test_mixed_derivative(self, heat_system):
        uxt = Jet(1, (1, 2))
        assert ls.reduce_mod_system(uxt, heat_system) == Jet(1, (1, 1, 1))

    def test_fixed_point(self, heat_system):
        e = ls.add(ls.mul(u, ux), uxx)
        assert ls.reduce_mod_system(e, heat_system) == e

    def test_additive(self, rng, heat_system):
        atoms = [x, t, u, ux, ut, uxx, Jet(1, (1, 2)), Jet(1, (2, 2))]
        for _ in range(25):
            a = rand_poly(rng, atoms)
            b = rand_poly(rng, atoms)
            lhs = ls.reduce_mod_system(ls.add(a, b), heat_system)
            rhs = ls.add(ls.reduce_mod_system(a, heat_system),
                         ls.reduce_mod_system(b, heat_system))
            assert ls.is_zero(ls.sub(lhs, rhs))

    def test_order_cap(self, heat_system):
        big = Jet(1, (2,) * 4)     # reduces to order 8, beyond cap 6
        with pytest.raises(ls.OrderCapExceeded):
            ls.reduce_mod_system(big, heat_system)
        assert ls.reduce_mod_system(big, heat_system, order_cap=8) == \
            Jet(1, (1,) * 8)

    @pytest.mark.parametrize("run", [
        lambda s: ls.reduce_mod_system(ls.Const(0), s, -1),
        lambda s: ls.check_symmetry(heat_basis(s.ctx)[0], s, -1),
        lambda s: ls.determining_equations(s, None, None, -1),
        lambda s: ls.is_conservation_law(
            ls.ConservedCurrent(s.ctx, (ls.neg(ux), u)), s, -1),
    ], ids=["reduce", "check_symmetry", "determining_equations", "claw"])
    def test_negative_order_cap(self, heat_system, run):
        # refused before any jet is reduced, even where none would be
        with pytest.raises(ls.LiesymError) as exc:
            run(heat_system)
        assert type(exc.value) is ls.LiesymError
        assert str(exc.value) == "order cap -1 is negative"

    def test_order_cap_zero(self, heat_system):
        assert ls.reduce_mod_system(u, heat_system, 0) == u
        assert ls.check_symmetry(heat_basis(heat_system.ctx)[0], heat_system, 0)
        with pytest.raises(ls.OrderCapExceeded):
            ls.determining_equations(heat_system, None, None, 0)


class TestCheckSymmetry:
    def test_heat_basis(self, heat_system):
        for v in heat_basis(heat_system.ctx):
            assert ls.check_symmetry(v, heat_system)

    def test_non_symmetry(self, heat_system):
        v = ls.VectorField(heat_system.ctx, (u, ls.Const(0)), (ls.Const(0),))
        assert not ls.check_symmetry(v, heat_system)

    def test_defect_of_galilean(self, heat_system):
        # v5 acting on u_t - u_xx gives a multiple of the residual itself
        v5 = heat_basis(heat_system.ctx)[4]
        pv = ls.prolong(v5, 2)
        raw = ls.apply_prolonged(pv, ls.sub(ut, uxx))
        assert ls.is_zero(ls.sub(raw, ls.mul(-1, x, ls.sub(ut, uxx))))


class TestDeterminingEquations:
    @pytest.fixture
    def heat_det(self, heat_system):
        return ls.determining_equations(heat_system,
                                        xi_names=("xi", "tau"),
                                        phi_names=("phi",))

    def test_count(self, heat_det):
        # ten coefficient rows, one identically zero, so nine survive
        assert len(heat_det.equations) == 9

    def test_table_rows(self, heat_det):
        ctx = heat_det.ctx
        uf = ctx.ufunc
        expected = [
            ls.mul(-2, uf("tau", "u")),                                   # u_x u_xt
            ls.mul(-2, uf("tau", "x")),                                   # u_xt
            ls.neg(uf("tau", "u", "u")),                                  # u_x^2 u_xx
            ls.sub(ls.mul(-2, uf("tau", "x", "u")),
                   ls.mul(2, uf("xi", "u"))),                             # u_x u_xx
            ls.sub(ls.sub(uf("tau", "t"), uf("tau", "x", "x")),
                   ls.mul(2, uf("xi", "x"))),                             # u_xx
            ls.neg(uf("xi", "u", "u")),                                   # u_x^3
            ls.sub(uf("phi", "u", "u"), ls.mul(2, uf("xi", "x", "u"))),   # u_x^2
            ls.add(uf("xi", "t"),
                   ls.sub(ls.mul(2, uf("phi", "x", "u")), uf("xi", "x", "x"))),  # u_x
            ls.sub(uf("phi", "t"), uf("phi", "x", "x")),                  # 1
        ]
        for e in expected:
            assert any(
                ls.is_zero(ls.sub(e, q)) or ls.is_zero(ls.add(e, q))
                for q in heat_det.equations
            ), e

    def test_trivial_row_dropped(self, heat_det):
        # coefficient of u_xx^2 vanishes identically and is not reported
        assert all(not ls.is_zero(q) for q in heat_det.equations)

    def test_coefficients_expanded_again(self):
        # collect's coefficients are sub-sums of the expanded defect; in one
        # of these nine, merge_sum_powers finds shifted powers of 1 + u^2
        # that it could not merge in the whole, so each is expanded again
        prob = ls.parse_problem("indep x t\ndep u\nsystem s: u_t = u_xx + "
                                "(1+u^2)^(1/2)*u_x + (1+u^2)^(1/3)")
        eqs = ls.determining_equations(prob.systems["s"]).equations
        assert len(eqs) == 9
        assert all(ls.expand(q) == q for q in eqs)
        signed = eqs + tuple(ls.neg(q) for q in eqs)
        assert len(set(signed)) == len(signed)

    def test_default_names(self, heat_system):
        ds = ls.determining_equations(heat_system)
        assert ds.xi_names == ("xi1", "xi2") and ds.phi_names == ("phi",)

    @pytest.mark.parametrize("names,message", [
        ((["a"], ["phi"]), "1 xi name(s) given for 2 independent variable(s)"),
        ((["a", "b", "c"], ["phi"]), "3 xi name(s) given for 2 independent variable(s)"),
        ((["a", "b"], ["c", "d"]), "2 phi name(s) given for 1 dependent variable(s)"),
        ((["a", "b"], []), "0 phi name(s) given for 1 dependent variable(s)"),
    ])
    def test_wrong_number_of_names(self, heat_system, names, message):
        for run in (lambda: ls.determining_equations(heat_system, *names),
                    lambda: generic_vector_field(heat_system.ctx, *names)):
            with pytest.raises(ls.ArityError) as exc:
                run()
            assert str(exc.value) == message


class TestSolveDetermining:
    def test_heat_dimension_and_generators(self, heat_system):
        start = time.monotonic()
        ds = ls.determining_equations(heat_system,
                                      xi_names=("xi", "tau"),
                                      phi_names=("phi",))
        basis = ls.solve_determining(ds, Ansatz(3))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        assert len(basis) == 10
        for v in basis:
            assert ls.check_symmetry(v, heat_system)
        # the six classical generators lie in the span; quick spot check
        # that translations and the scaling field appear up to scale
        def present(target):
            return any(
                all(ls.is_zero(ls.sub(a, b))
                    for a, b in zip(v.xi + v.phi, target.xi + target.phi))
                for v in basis
            )
        ctx = ds.ctx
        v1 = ls.VectorField(ctx, (ls.Const(1), ls.Const(0)), (ls.Const(0),))
        assert present(v1)

    def test_soundness_random_combination(self, rng, heat_system):
        ds = ls.determining_equations(heat_system)
        basis = ls.solve_determining(ds, Ansatz(2))
        coeffs = [ls.Const(Fraction(rng.randint(-3, 3))) for _ in basis]
        comb = basis[0].scale(coeffs[0])
        for c, v in zip(coeffs[1:], basis[1:]):
            comb = comb.plus(v.scale(c))
        assert ls.check_symmetry(comb, heat_system)

    def test_dimension_monotone_in_degree(self, heat_system):
        ds = ls.determining_equations(heat_system)
        dims = [len(ls.solve_determining(ds, Ansatz(d))) for d in (1, 2, 3)]
        assert dims[0] <= dims[1] <= dims[2]
        assert dims[-1] == 10

    def test_ode_flow_field_found(self, ctx_xu):
        # for u_x = u^2 + x the flow direction d/dx + (u^2+x) d/du is the
        # unique symmetry with polynomial coefficients of degree <= 2
        sys_ = DiffSystem(ctx_xu, ((ux, ls.add(ls.pow_(u, 2), x)),))
        ds = ls.determining_equations(sys_)
        basis = ls.solve_determining(ds, Ansatz(2))
        assert len(basis) == 1
        v = basis[0]
        assert v.xi == (ls.Const(1),)
        assert ls.is_zero(ls.sub(v.phi[0], ls.add(ls.pow_(u, 2), x)))
        assert ls.check_symmetry(v, sys_)


class TestSolveDeterminingErrors:
    @staticmethod
    def determining(decl, rhs):
        prob = ls.parse_problem(f"indep x t\ndep u\n{decl}system s: u_t = {rhs}")
        return ls.determining_equations(prob.systems["s"])

    @pytest.mark.parametrize("decl,rhs,message", [
        ("", "u_xx/x", "non-polynomial exponent -1"),
        ("", "exp(u)*u_xx", "inside non-polynomial factor"),
        ("param nu\n", "nu*u_xx", "not linear homogeneous"),
        ("param nu\n", "nu*u_xx", "system parameter in the coefficients: nu"),
        ("param nu\n", "u_xx + nu*u", "system parameter in the coefficients: nu"),
        ("param a b\n", "a*b*u_xx", "system parameters in the coefficients: a, b"),
    ])
    def test_not_polynomial(self, decl, rhs, message):
        with pytest.raises(ls.NotPolynomial, match=message):
            ls.solve_determining(self.determining(decl, rhs), Ansatz(2))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_every_blocking_parameter_is_named(self, degree):
        # at degree 1 the first equation that is not linear carries only b
        ds = self.determining("param a b\n", "a*u_xx + b*u^2*u_x")
        with pytest.raises(ls.NotPolynomial,
                           match="system parameters in the coefficients: a, b"):
            ls.solve_determining(ds, Ansatz(degree))

    @staticmethod
    def hand_built(ctx_xu, make, *more):
        """A determining system whose equations are ``make(ctx, xi, phi)``
        and those of ``more``."""
        ext, v = generic_vector_field(ctx_xu, ["xi"], ["phi"])
        eqs = tuple(f(ext, v.xi[0], v.phi[0]) for f in (make, *more))
        return ls.DeterminingSystem(ext, ("xi",), ("phi",), eqs, (ux,))

    @pytest.mark.parametrize("later,want", [
        (lambda ext, xi, phi: ls.mul(UFunc("xi", (x,), (0,)), u), UnknownSymbol),
        (lambda ext, xi, phi: ls.mul(xi, ls.pow_(x, -1)), ls.NotPolynomial),
    ], ids=["arity-mismatch", "non-polynomial-exponent"])
    def test_first_error_stands(self, ctx_xu, later, want):
        # equations after the first that is not linear are scanned only for
        # their parameters, so what they would raise does not come first
        first = lambda ext, xi, phi: ls.mul(xi, phi)
        with pytest.raises(ls.NotPolynomial, match="not linear homogeneous"):
            ls.solve_determining(self.hand_built(ctx_xu, first, later), Ansatz(2))
        with pytest.raises(want) as info:
            ls.solve_determining(self.hand_built(ctx_xu, later, first), Ansatz(2))
        assert "not linear homogeneous" not in str(info.value)

    def test_arity_checked_in_either_order(self, ctx_xu):
        # xi_x over (x,) where xi is declared over (x, u), before and after
        # the declared xi_x: the column table is kept per node
        bad = lambda ext, xi, phi: UFunc("xi", (x,), (0,))
        good = lambda ext, xi, phi: ext.ufunc("xi", "x")
        assert len(ls.solve_determining(self.hand_built(ctx_xu, good), Ansatz(1))) == 5
        for eqs in [(bad,), (bad, good), (good, bad)]:
            with pytest.raises(UnknownSymbol, match="arity mismatch"):
                ls.solve_determining(self.hand_built(ctx_xu, *eqs), Ansatz(1))

    @pytest.mark.parametrize("make", [
        lambda ext, xi, phi: ls.mul(xi, phi),
        lambda ext, xi, phi: ls.add(ext.ufunc("xi", "x"), x),
    ], ids=["product-of-unknowns", "term-without-unknown"])
    def test_hand_built_not_linear_homogeneous(self, ctx_xu, make):
        ds = self.hand_built(ctx_xu, make)
        with pytest.raises(ls.NotPolynomial, match="not linear homogeneous"):
            ls.solve_determining(ds, Ansatz(2))

    def test_hand_built_product_annihilated_by_ansatz(self, ctx_xu):
        # the third derivative of a degree-2 coefficient vanishes, so the
        # product leaves no row and every ansatz column is free
        ds = self.hand_built(
            ctx_xu, lambda ext, xi, phi: ls.mul(ext.ufunc("xi", "x", "x", "x"), phi))
        assert len(ls.solve_determining(ds, Ansatz(2))) == 12

    def test_term_vanishing_under_ansatz(self):
        # every term carrying nu also carries a derivative of a coefficient,
        # which a degree-0 ansatz annihilates, so no such term survives
        basis = ls.solve_determining(self.determining("param nu\n", "nu*u_xx"),
                                     Ansatz(0))
        assert len(basis) == 3


def ref_matrix(ds, ansatz):
    """The matrix solve_determining assembled before it read the monomials
    of the expand kernel: its setup and row loop kept verbatim, but that
    from the first equation that is not linear homogeneous on, the later
    equations are scanned only for the system parameters it names."""
    ctx = ds.ctx
    base_atoms = tuple(Var(i + 1) for i in range(ctx.p)) + tuple(
        Jet(a + 1, ()) for a in range(ctx.q)
    )
    base_slot = {a: i for i, a in enumerate(base_atoms)}
    width = len(base_atoms)
    # name -> (first column, argument atoms, [(exponent vector, monomial)])
    unknowns: dict[str, tuple[int, tuple[Expr, ...], list]] = {}
    ncols = 0
    for name in tuple(ds.xi_names) + tuple(ds.phi_names):
        args = ctx.unknown_arg_atoms(name)
        monos = _monomials(args, ansatz.degree)
        unknowns[name] = (ncols, args, monos)
        ncols += len(monos)

    tables: dict[tuple[str, tuple[int, ...]], list] = {}

    def table(u: UFunc) -> list[tuple[int, int, tuple[int, ...]]]:
        """(column, integer coefficient, base exponents) of the derivative
        of each ansatz monomial of u's function that u's derivative does not
        annihilate; a falling factorial per argument gives the coefficient."""
        key = (u.name, u.deriv)
        got = tables.get(key)
        if got is None:
            first, args, monos = unknowns[u.name]
            if len(args) != len(u.args):
                raise UnknownSymbol(f"arity mismatch for unknown function {u.name!r}")
            counts = [u.deriv.count(j) for j in range(len(args))]
            got = []
            for k, (vec, _) in enumerate(monos):
                if all(e >= d for e, d in zip(vec, counts)):
                    exps = [0] * width
                    for a, e, d in zip(args, vec, counts):
                        exps[base_slot[a]] += e - d
                    got.append((first + k, math.prod(map(math.perm, vec, counts)),
                                tuple(exps)))
            tables[key] = got
        return got

    def mentions_unknown(f: Expr) -> bool:
        return any(isinstance(a, UFunc) and a.name in unknowns
                   for a in atoms_of(f))

    rows: list[dict[int, Fraction]] = []
    blocking: set[str] | None = None
    for eq in ds.equations:
        ex = expand(eq)
        # (base exponents, other factors) -> {column: coefficient}
        acc: dict[tuple, dict[int, Fraction]] = {}
        nonlinear = False
        params: set[str] = set()     # system parameters in surviving terms
        for t in (ex.terms if isinstance(ex, Add) else (ex,)):
            c, fs = _split(t)
            if c == 0:
                continue
            exps = [0] * width
            found: list[tuple[UFunc, Fraction]] = []
            rest: list[Expr] = []
            for f in fs:
                b, e = _base_exp(f)
                slot = base_slot.get(b)
                if slot is not None:
                    exps[slot] += e
                elif isinstance(b, UFunc) and b.name in unknowns:
                    found.append((b, e))
                else:
                    rest.append(f)
            if len(found) != 1 or found[0][1] != 1 or any(map(mentions_unknown, rest)):
                # nonlinear or inhomogeneous: harmless only when the ansatz
                # annihilates one of its unknown factors
                if not any(e > 0 and not table(u) for u, e in found):
                    nonlinear = True
                continue
            rest_t = tuple(rest)
            for col, a, mexps in table(found[0][0]):
                key = (tuple(map(operator.add, exps, mexps)), rest_t)
                row = acc.setdefault(key, {})
                row[col] = row.get(col, 0) + c * a
        for (exps, rest_t), row in acc.items():
            row = {k: v for k, v in row.items() if v}
            if not row:
                continue
            if rest_t:
                nonlinear = True
                params.update(a.name for f in rest_t for a in atoms_of(f)
                              if isinstance(a, Param))
            if blocking is not None:
                continue
            for b, e in zip(base_atoms, exps):
                if e < 0 or e.denominator != 1:
                    raise _printed(NotPolynomial(
                        f"variable {{}} occurs with non-polynomial exponent {e}", b
                    ), ctx)
            for f in rest_t:
                if any(contains(f, v) for v in base_atoms):
                    raise _printed(NotPolynomial(
                        "variable occurs inside non-polynomial factor {}", f
                    ), ctx)
            rows.append(row)
        if nonlinear:
            blocking = params if blocking is None else blocking | params
    if blocking is not None:
        why = ("determining equation is not linear homogeneous in the "
               "ansatz parameters")
        if blocking:
            word = "parameter" if len(blocking) == 1 else "parameters"
            why += (f" (system {word} in the coefficients: "
                    f"{', '.join(sorted(blocking))})")
        raise NotPolynomial(why)

    return ratla.RatMatrix.from_sparse(rows, ncols)


def same_rows(m, ref) -> bool:
    """``m`` and ``ref`` have one shape and the same rows, up to row order,
    which the kernel does not depend on (``TestRowOrder``)."""
    return (m.rows, m.cols) == (ref.rows, ref.cols) and sorted(m.data) == sorted(ref.data)


def outcome(f, *args):
    """``f(*args)``, or the library error's type, message and expression."""
    try:
        return f(*args)
    except ls.LiesymError as exc:
        return type(exc), str(exc), getattr(exc, "expr", None)


# larger systems: higher order, two dependent variables, three or four
# independent ones; each oriented as lead = rhs
ROADMAP_SYSTEMS = {
    "fifth": "indep x t\ndep u\n"
             "system s: u_t = u_xxxxx + u*u_xxx + u_x*u_xx + u^2*u_x",
    # u_tt = u_xx + (u^2)_xx + u_xxxx as a first-order system in t
    "boussinesq": "indep x t\ndep u v\n"
                  "system s: u_t = v_x; v_t = u_x + 2*u*u_x + u_xxx",
    "nls": "indep x t\ndep u v\n"
           "system s: u_t = -v_xx - (u^2 + v^2)*v; v_t = u_xx + (u^2 + v^2)*u",
    "heat3d": "indep x y z t\ndep u\nsystem s: u_t = u_xx + u_yy + u_zz",
    "kp": "indep x t y\ndep u v\n"
          "system s: v_y = -u_t - u_xxx - 6*u*u_x; u_y = v_x",
}
BENCH_PROBLEMS = Path(__file__).resolve().parent.parent / "bench" / "problems"


def systems():
    for path in sorted(BENCH_PROBLEMS.glob("*.prob")):
        for name, sys_ in ls.parse_problem(path.read_text()).systems.items():
            yield f"{path.stem}.{name}", sys_
    for name, text in ROADMAP_SYSTEMS.items():
        yield name, ls.parse_problem(text).systems["s"]


class TestRowsAgainstReference:
    def test_matches_reference(self, monkeypatch):
        kernel_basis, _kernel = ratla.kernel_basis, ratla._kernel
        seen = []
        monkeypatch.setattr(ratla, "_kernel", lambda m: seen.append(m) or _kernel(m))
        solved = set()
        for name, sys_ in systems():
            ds = outcome(ls.determining_equations, sys_)
            if not isinstance(ds, ls.DeterminingSystem):
                continue
            for degree in (2, 3):
                seen.clear()
                basis = outcome(ls.solve_determining, ds, Ansatz(degree))
                ref = outcome(ref_matrix, ds, Ansatz(degree))
                if not isinstance(ref, ratla.RatMatrix):
                    assert basis == ref, name
                    continue
                (m,) = seen
                assert same_rows(m, ref), (name, degree)
                assert all(type(v) is int for row in m.data for _, v in row)
                assert kernel_basis(m) == kernel_basis(ref)
                assert len(basis) == len(kernel_basis(ref))
                solved.add(name)
        assert solved >= {"burgers.burgers", "heat.heat", "heat2d.heat2d",
                          "kdv.kdv", "wave.wave", *ROADMAP_SYSTEMS}

    def test_first_offending_factor(self):
        # x*sin(x)*xi_xxxx, which a degree-2 ansatz annihilates, is read
        # first, so the kernel numbers sin(x) before cos(u); the error names
        # cos(u), the factor a canonical product lists first
        ctx = ls.Context(("x",), ("u",), (), (("xi", ("x", "u")), ("phi", ("x", "u"))))
        sin, cos = ls.func("sin", x), ls.func("cos", u)
        eq = ls.add(ls.mul(x, sin, ctx.ufunc("xi", "x", "x", "x", "x")),
                    ls.mul(cos, sin, ctx.ufunc("xi", "x")))
        ds = ls.DeterminingSystem(ctx, ("xi",), ("phi",), (eq,), ())
        got = outcome(ls.solve_determining, ds, Ansatz(2))
        assert got == outcome(ref_matrix, ds, Ansatz(2))
        assert got[1] == "variable occurs inside non-polynomial factor cos(u)"


class TestRowOrder:
    def test_bench_matrices(self, monkeypatch, rng):
        """The matrix that ``solve_determining`` assembles for each bench
        system at degrees 2 and 3 has the kernel of its rows jumbled."""
        seen = []
        _kernel = ratla._kernel
        monkeypatch.setattr(ratla, "_kernel", lambda m: seen.append(m) or _kernel(m))
        for eq in ("heat", "burgers", "kdv", "wave", "heat2d"):
            text = (BENCH_PROBLEMS / f"{eq}.prob").read_text()
            ds = ls.determining_equations(ls.parse_problem(text).systems[eq])
            for degree in (2, 3):
                seen.clear()
                ls.solve_determining(ds, Ansatz(degree))
                (m,) = seen
                want = _kernel(m)
                for _ in range(3):
                    assert _kernel(jumbled(m, rng)) == want, (eq, degree)


ARGS = ("x", "t", "u", "v")


def table_system(n):
    """Two unknowns of the first ``n`` base variables, the second with its
    arguments in reverse order, so that argument positions and base slots
    differ."""
    ctx = ls.Context(("x", "t"), ("u", "v"), (),
                     (("f", ARGS[:n]), ("g", ARGS[:n][::-1])))
    return ls.DeterminingSystem(ctx, ("f",), ("g",), (), ())


class TestDerivativeTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference(self, n):
        ds = table_system(n)
        for degree in range(6):
            table = _columns(ds, Ansatz(degree))[3]
            ref = ref_derivative_table(ds, Ansatz(degree))
            for name in ("f", "g"):
                args = ds.ctx.unknown_arg_atoms(name)
                for order in range(degree + 2):
                    for deriv in itertools.combinations_with_replacement(
                            range(n), order):
                        u = UFunc(name, args, deriv)
                        assert table(u) == ref(u), (name, degree, deriv)
                        # a derivative of order above the degree annihilates
                        assert bool(table(u)) == (order <= degree)

    def test_arity_mismatch(self):
        ds = table_system(3)
        f = UFunc("f", (x, t))
        for table in (_columns(ds, Ansatz(2))[3],
                      ref_derivative_table(ds, Ansatz(2))):
            with pytest.raises(UnknownSymbol, match="arity mismatch for "
                               "unknown function 'f'"):
                table(f)
        eq = ls.DeterminingSystem(ds.ctx, ("f",), ("g",), (f,), ())
        with pytest.raises(UnknownSymbol, match="arity mismatch"):
            ls.solve_determining(eq, Ansatz(2))


class TestLieClosure:
    def test_heat_basis(self, heat_system):
        assert ls.verify_lie_closure(heat_basis(heat_system.ctx), heat_system)

    def test_single_field(self, heat_system):
        assert ls.verify_lie_closure(heat_basis(heat_system.ctx)[:1],
                                     heat_system)

    def test_broken_collection(self, heat_system):
        bad = ls.VectorField(heat_system.ctx, (u, ls.Const(0)), (ls.Const(0),))
        fields = [heat_basis(heat_system.ctx)[4], bad]
        assert not ls.verify_lie_closure(fields, heat_system)



class TestMaximalRank:
    """In rank order, each residual lead - rhs has derivative 1 by its own
    lead and none by a higher-ranked lead, so the lead columns of the
    Jacobian are unit lower-triangular and its rank is the number of
    equations at every point."""

    def test_lead_columns_unit_lower_triangular(self):
        names = []
        for name, sys_ in systems():
            p = sys_.ctx.p
            eqs = sorted(sys_.equations, key=lambda eq: _rank_key(eq[0], p))
            leads = [lead for lead, _ in eqs]
            for i, (lead, rhs) in enumerate(eqs):
                grad = ls.partials(ls.sub(lead, rhs))
                assert grad.get(lead) == ONE, (name, lead)
                assert not any(j in grad for j in leads[i + 1:]), (name, lead)
            names.append(name)
        assert len(names) == 13
