"""Grammar: expression and problem-file parsing, printing, round-trips."""
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import liesym as ls
from liesym import Const, Jet, ParseError, Pow, Var, format_expr, parse_expr, parse_problem

from liesym.expr import Add, Func, Mul, Param, UFunc, neg, subterms
from liesym.parse import (
    _ADD, _MAX_NESTING, _MUL, _POW, _fmt, _fmt_const, _fmt_negated, _jet_name,
    _paren, _ufunc_name, format_exprs,
)

from conftest import rand_expr, rand_poly
from conftest import split_term as _split

PROBLEMS = Path(__file__).resolve().parent.parent / "bench" / "problems"


@pytest.fixture
def ctx():
    return ls.Context(("x", "t"), ("u",), ("c",),
                      (("xi", ("x", "t", "u")),))


class TestParseExpr:
    def test_fractional_power(self, ctx):
        e = parse_expr("(1+u_x^2)^(3/2)", ctx)
        assert isinstance(e, Pow) and e.exp == Fraction(3, 2)

    def test_rational_constant(self, ctx):
        assert parse_expr("3/4", ctx) == Const(Fraction(3, 4))

    def test_canonical_jet_syntax(self, ctx):
        assert parse_expr("D(u,x,x,t)", ctx) == Jet(1, (1, 1, 2))

    def test_mixed_partials_commute(self, ctx):
        assert parse_expr("u_xt - u_tx", ctx) == Const(0)

    def test_unknown_function_derivatives(self, ctx):
        assert parse_expr("xi_x", ctx) == ctx.ufunc("xi", "x")
        assert parse_expr("xi_{x,u}", ctx) == ctx.ufunc("xi", "x", "u")
        assert parse_expr("xi_xu", ctx) == ctx.ufunc("xi", "x", "u")

    def test_precedence(self, ctx):
        assert parse_expr("1+2*3", ctx) == Const(7)
        assert parse_expr("-x^2", ctx) == ls.neg(ls.pow_(Var(1), 2))
        assert parse_expr("2^3", ctx) == Const(8)

    def test_undeclared_identifier(self, ctx):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + bogus", ctx)
        assert exc.value.line == 1 and exc.value.column == 5

    def test_syntax_error_position(self, ctx):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + ", ctx)
        assert exc.value.line == 1

    @pytest.mark.parametrize("text,column", [
        ("x + " + "7" * 5000, 5),
        ("x^(1/" + "7" * 5000 + ")", 6),
        ("x^" + "7" * 5000, 3),
    ], ids=["constant", "exponent-denominator", "exponent"])
    def test_overlong_integer_literal(self, ctx, text, column):
        # more digits than int() converts: an error at the literal
        with pytest.raises(ParseError) as exc:
            parse_expr(text, ctx)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert exc.value.message == "integer literal of 5000 digits is too long"

    def test_nonconstant_exponent_rejected(self, ctx):
        with pytest.raises(ParseError):
            parse_expr("x^u", ctx)


class TestFormatExpr:
    def test_sqrt(self, ctx):
        e = ls.pow_(ls.add(1, ls.pow_(Jet(1, (1,)), 2)), Fraction(1, 2))
        assert format_expr(e, ctx) == "(1 + u_x^2)^(1/2)"

    def test_jet_shorthand(self, ctx):
        assert format_expr(Jet(1, (1, 1)), ctx) == "u_xx"

    def test_zero(self, ctx):
        assert format_expr(Const(0), ctx) == "0"

    def test_multichar_names_force_canonical(self):
        ctx2 = ls.Context(("xx", "t"), ("u",))
        assert format_expr(Jet(1, (1, 2)), ctx2) == "D(u, xx, t)"
        assert parse_expr("D(u, xx, t)", ctx2) == Jet(1, (1, 2))

    def test_round_trip_random(self, rng, ctx):
        atoms = [Var(1), Var(2), Jet(1, ()), Jet(1, (1,)), Jet(1, (1, 2)),
                 ls.Param("c"), ctx.ufunc("xi"), ctx.ufunc("xi", "x", "u")]
        for _ in range(1000):
            e = ls.normalize(rand_expr(rng, atoms))
            assert parse_expr(format_expr(e, ctx), ctx) == e

    def test_derivative_beyond_the_arguments_refused(self, ctx):
        xi = UFunc("xi", (Var(1), Var(2), Jet(1, ())), (5,))
        with pytest.raises(ls.UnknownSymbol, match="beyond the arguments"):
            format_expr(xi, ctx)

    def test_undeclared_unknown_function_refused(self, ctx):
        for deriv in ((), (0,)):
            with pytest.raises(ls.UnknownSymbol, match="'eta'"):
                format_expr(UFunc("eta", (Var(1),), deriv), ctx)

    def test_undeclared_parameter_refused(self, ctx):
        with pytest.raises(ls.UnknownSymbol, match="not a parameter"):
            format_expr(ls.add(Var(1), Param("zz")), ctx)
        assert parse_expr(format_expr(Param("c"), ctx), ctx) == Param("c")


class TestRefusedConstants:
    @pytest.mark.parametrize("text,message", [
        ("log(0)", "1:6: log(0) is undefined"),
        ("x + log(1 - 1)", "1:14: log(0) is undefined"),
        ("0^(-1)", "1:6: 0 raised to a negative power"),
        ("2^99999999", "1:3: power of a constant with exponent 99999999 "
                       "exceeds the size limit of 1048576 bits"),
    ])
    def test_parse_error_at_the_construct(self, text, message):
        ctx = ls.Context(("x", "t"), ("u",))
        with pytest.raises(ParseError) as exc:
            parse_expr(text, ctx)
        assert str(exc.value) == message


class TestNesting:
    """Groups nest to a fixed bound and signs take no stack, so hostile
    nesting is a ParseError, not a RecursionError."""

    @pytest.fixture
    def ctx(self):
        return ls.Context(("x", "t"), ("u",))

    @pytest.mark.parametrize("open_", ["(", "exp(", "-(", "(-"])
    def test_groups_up_to_the_bound(self, ctx, open_):
        e = parse_expr(open_ * _MAX_NESTING + "u" + ")" * _MAX_NESTING, ctx)
        assert isinstance(e, ls.Expr)

    @pytest.mark.parametrize("open_,depth", [
        ("(", _MAX_NESTING + 1), ("(", 198), ("(", 3000),
        ("exp(", _MAX_NESTING + 1), ("exp(", 198), ("exp(", 3000),
    ])
    def test_deeper_groups_refused_at_the_token(self, ctx, open_, depth):
        text = "x + " + open_ * depth + "u" + ")" * depth
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            parse_expr(text, ctx)
        # the '(' that opens the group one past the bound
        column = 4 + len(open_) * (_MAX_NESTING + 1)
        assert str(exc.value).startswith(f"1:{column}: ")

    def test_bound_lies_between_accepted_and_recursion_depths(self):
        # tests/test_cli.py accepts 100 parentheses; about 198 used to
        # exhaust the interpreter's stack
        assert 100 < _MAX_NESTING < 197

    @pytest.mark.parametrize("signs", [1, 2, 3, 988, 989, 20000])
    def test_long_runs_of_unary_minus(self, ctx, signs):
        e = parse_expr("-" * signs + "u_x", ctx)
        ux = ctx.jet("u", "x")
        assert e == (neg(ux) if signs % 2 else ux)

    def test_unary_minus_binds_as_before(self, ctx):
        assert parse_expr("--2^2", ctx) == Const(4)
        assert parse_expr("-2^2", ctx) == Const(-4)
        assert parse_expr("x*-u", ctx) == neg(ls.mul(Var(1), Jet(1, ())))

    def test_problem_file_reports_the_line(self):
        text = "indep x t\ndep u\nsystem s: u_t = " + "(" * 300 + "u" + ")" * 300
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            parse_problem(text)
        assert str(exc.value).startswith("3:")


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(min_size=0, max_size=40))
    def test_never_crashes(self, text):
        ctx = ls.Context(("x", "t"), ("u",))
        try:
            parse_expr(text, ctx)
        except ParseError:
            pass

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.text(alphabet="xtu_+-*/^()0123456789 \n#,;:=[]{}", max_size=60))
    def test_grammar_alphabet_never_crashes(self, text):
        try:
            parse_problem(text)
        except (ParseError, ls.LiesymError):
            pass


HEAT_PROB = """
# one-dimensional heat flow
indep x t
dep u
system heat: u_t = u_xx
vf rot: xi[x] = -u; phi[u] = x
lagrangian arc: (1+u_x^2)^(1/2)
current pair: u_t, -u_x
dimmatrix blast: 3x5 rows 2,0,-3,-1,1; 1,0,1,1,0; -2,1,0,-2,0
"""


class TestParseProblem:
    def test_system(self):
        prob = parse_problem("indep x t\ndep u\nsystem heat: u_t = u_xx")
        sys_ = prob.systems["heat"]
        assert sys_.equations == ((Jet(1, (2,)), Jet(1, (1, 1))),)

    def test_vector_field(self):
        prob = parse_problem("indep x\ndep u\nvf rot: xi[x] = -u; phi[u] = x")
        v = prob.vfields["rot"]
        assert v.xi == (ls.neg(Jet(1, ())),) and v.phi == (Var(1),)

    def test_full_file(self):
        prob = parse_problem(HEAT_PROB)
        assert set(prob.systems) == {"heat"}
        assert len(prob.currents["pair"]) == 2
        assert prob.dim_models["blast"].a.rows == 3

    def test_duplicate_name(self):
        with pytest.raises(ParseError):
            parse_problem("indep x\ndep u\nvf a: xi[x]=1\nvf a: xi[x]=2")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError):
            parse_problem("indep x\ndep x")

    def test_unsolvable_orientation_rejected(self):
        # the lead must rank strictly above every jet on the right
        with pytest.raises(ParseError):
            parse_problem("indep x t\ndep u\nsystem bad: u_xx = u_t")

    def test_overlong_dimension(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("indep x\ndep u\ndimmatrix m: 1x" + "7" * 5000 + " rows 1")
        assert (exc.value.line, exc.value.column) == (3, 15)

    def test_comment_and_blank_lines(self):
        prob = parse_problem("# nothing\n\nindep x\ndep u\n# done\n")
        assert prob.ctx.indep == ("x",)

    def test_csv_dimension_table(self):
        model = ls.parse.parse_dimension_csv if False else None
        from liesym.parse import parse_dimension_csv
        model = parse_dimension_csv(
            ",E,t,rho0,P0,R\n"
            "M,2,0,-3,-1,1\n"
            "L,1,0,1,1,0\n"
            "T,-2,1,0,-2,0\n"
        )
        assert model.derived_names == ("E", "t", "rho0", "P0", "R")
        assert model.a[0, 0] == 2 and model.a[2, 3] == -2


# The printer before it flipped the sign of a negative term in place of
# rebuilding it with neg, kept verbatim but for its name: the reference
# format_expr must equal.
def ref_fmt(e, ctx, prec):
    if isinstance(e, Const):
        return _fmt_const(e.value, prec)
    if isinstance(e, Var):
        return ctx.indep[e.index - 1]
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Jet):
        return _jet_name(e, ctx)
    if isinstance(e, UFunc):
        return _ufunc_name(e, ctx)
    if isinstance(e, Func):
        return e.fname + _paren(ref_fmt(e.arg, ctx, _ADD))
    if isinstance(e, Pow):
        base = ref_fmt(e.base, ctx, _POW)
        if isinstance(e.base, (Add, Mul, Pow)):
            base = _paren(ref_fmt(e.base, ctx, _ADD))
        exp = e.exp
        if exp.denominator == 1 and exp >= 0:
            return f"{base}^{exp}"
        return f"{base}^({exp})"
    if isinstance(e, Mul):
        parts = [ref_fmt(f, ctx, _MUL) if not isinstance(f, Add)
                 else _paren(ref_fmt(f, ctx, _ADD)) for f in e.factors]
        body = "*".join(parts)
        if e.coeff == 1:
            s = body
        elif e.coeff == -1:
            s = "-" + body
        else:
            s = _fmt_const(e.coeff, _MUL) + "*" + body
        if prec >= _POW or (prec > _ADD and s.startswith("-")):
            return _paren(s)
        return s
    if isinstance(e, Add):
        out = ref_fmt(e.terms[0], ctx, _ADD)
        for t in e.terms[1:]:
            c, _ = _split(t)
            if c < 0:
                out += " - " + ref_fmt(neg(t), ctx, _ADD if not isinstance(neg(t), Add) else _MUL)
            else:
                out += " + " + ref_fmt(t, ctx, _ADD)
        return _paren(out) if prec > _ADD else out
    raise TypeError(type(e))


def edge_trees():
    """Trees at the printer's edges, over x = Var(1), y = Var(2) and u:
    unit coefficients that are not ``Fraction(1)`` itself, a negative
    constant as a power base, exponents -1, 1/2 and -3/2, negative constant
    terms, and a sum inside a product inside a power."""
    x, y, u = Var(1), Var(2), Jet(1, ())
    half, s = Const(Fraction(-1, 2)), ls.add(x, u)
    one, minus_one = Fraction(2, 2), Fraction(-3, 3)
    trees = [Mul(one, (x, u)), Mul(minus_one, (x, u)), Mul(minus_one, (s,)),
             Add((x, Mul(one, (u, y)), Mul(minus_one, (y,)), Mul(minus_one, (s,)))),
             Add((Const(minus_one), x)), Add((x, Const(Fraction(-5, 3)))),
             ls.add(x, -3), ls.add(ls.mul(-2, x), Fraction(-1, 2)), ls.sub(1, s),
             ls.mul(x, ls.add(y, -1))]
    for q in (Fraction(-1), Fraction(1, 2), Fraction(-3, 2)):
        product = Mul(Fraction(2), (s, y))
        trees += [Pow(half, q), Pow(x, q), Pow(s, q), Pow(ls.mul(-1, x), q),
                  Pow(product, q), ls.pow_(ls.mul(3, s, y), q),
                  ls.add(x, ls.mul(-1, Pow(half, q)), Mul(minus_one, (Pow(s, q),))),
                  Mul(Fraction(-1, 3), (Pow(half, q), Pow(product, q)))]
    return trees


def generic_order5():
    prob = parse_problem((PROBLEMS / "generic.prob").read_text())
    return ls.prolong(prob.vfields["generic"], 5), prob.ctx


class TestNegativeTerms:
    def atoms(self, ctx):
        return [Var(1), Var(2), Jet(1, ()), Jet(1, (1,)), Jet(1, (1, 2)),
                ls.Param("c"), ctx.ufunc("xi"), ctx.ufunc("xi", "x", "u")]

    def trees(self, rng, ctx, n):
        for _ in range(n):
            if rng.random() < 0.5:
                yield rand_poly(rng, self.atoms(ctx), degree=3, terms=4)
            else:
                yield rand_expr(rng, self.atoms(ctx), depth=4)

    def test_flipped_sign_equals_neg(self, rng, ctx):
        kinds = set()
        for e in self.trees(rng, ctx, 600):
            for s in subterms(e):
                if not isinstance(s, Add):
                    continue
                for t in s.terms:
                    c, fs = _split(t)
                    if c < 0:
                        # the text of neg(t), printed without building it
                        u = neg(t)
                        want = _fmt(u, ctx, _MUL if isinstance(u, Add) else _ADD, {})
                        assert _fmt_negated(c, fs, ctx, {}) == want
                        assert repr(_flip_sign(c, fs)) == repr(u)
                        kinds.add(type(u).__name__ if isinstance(u, (Const, Mul))
                                  else "factor")
        assert kinds == {"Const", "Mul", "factor"}

    @pytest.mark.parametrize("e", edge_trees())
    def test_edge_cases_match_reference(self, e, ctx):
        assert format_expr(e, ctx) == ref_fmt(e, ctx, _ADD)
        for prec in (_MUL, _POW):
            assert _fmt(e, ctx, prec, {}) == ref_fmt(e, ctx, prec)

    def test_order5_prolongation_matches_reference(self):
        pv, ctx = generic_order5()
        exprs = [*pv.coeffs.values()]
        want = [ref_fmt(e, ctx, _ADD) for e in exprs]
        assert format_exprs(exprs, ctx) == want
        assert sum(" - " in w for w in want) > len(want) // 2

    def test_format_matches_reference(self, rng, ctx):
        negative = 0
        for e in self.trees(rng, ctx, 600):
            text = format_expr(e, ctx)
            assert text == ref_fmt(e, ctx, _ADD)
            negative += " - " in text
        assert negative > 100


def _flip_sign(c, fs):
    """``neg`` of the canonical term with coefficient ``c`` and factors
    ``fs``, built without going through ``mul`` again: how the reference
    printer below prints a negative sum term."""
    if not fs:
        return Const(-c)
    if c == -1 and len(fs) == 1:
        return fs[0]
    return Mul(-c, fs)


# format_expr as it was before it printed each shared subtree once per call,
# kept verbatim but for its names: the memoised printer must equal it.
def ref_format_expr(e, ctx):
    """Canonical text form; parse_expr(format_expr(e), ctx) == e."""
    return ref_fmt_unmemoised(e, ctx, _ADD)


def ref_fmt_unmemoised(e, ctx, prec):
    if isinstance(e, Const):
        return _fmt_const(e.value, prec)
    if isinstance(e, Var):
        return ctx.indep[e.index - 1]
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Jet):
        return _jet_name(e, ctx)
    if isinstance(e, UFunc):
        return _ufunc_name(e, ctx)
    if isinstance(e, Func):
        return e.fname + _paren(ref_fmt_unmemoised(e.arg, ctx, _ADD))
    if isinstance(e, Pow):
        base = ref_fmt_unmemoised(e.base, ctx, _POW)
        if isinstance(e.base, (Add, Mul, Pow)):
            base = _paren(ref_fmt_unmemoised(e.base, ctx, _ADD))
        exp = e.exp
        if exp.denominator == 1 and exp >= 0:
            return f"{base}^{exp}"
        return f"{base}^({exp})"
    if isinstance(e, Mul):
        parts = [ref_fmt_unmemoised(f, ctx, _MUL) if not isinstance(f, Add)
                 else _paren(ref_fmt_unmemoised(f, ctx, _ADD)) for f in e.factors]
        body = "*".join(parts)
        if e.coeff == 1:
            s = body
        elif e.coeff == -1:
            s = "-" + body
        else:
            s = _fmt_const(e.coeff, _MUL) + "*" + body
        if prec >= _POW or (prec > _ADD and s.startswith("-")):
            return _paren(s)
        return s
    if isinstance(e, Add):
        out = ref_fmt_unmemoised(e.terms[0], ctx, _ADD)
        for t in e.terms[1:]:
            c, fs = _split(t)
            if c < 0:
                u = _flip_sign(c, fs)
                out += " - " + ref_fmt_unmemoised(
                    u, ctx, _ADD if not isinstance(u, Add) else _MUL)
            else:
                out += " + " + ref_fmt_unmemoised(t, ctx, _ADD)
        return _paren(out) if prec > _ADD else out
    raise TypeError(type(e))


def stack_depth() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


class TestSharedSubtrees:
    """format_expr prints a subtree that occurs more than once as one object
    once per precedence and call, and prints what the reference prints."""

    @pytest.fixture
    def ctx(self):
        return ls.Context(("x", "y"), ("u",))

    def test_one_subtree_at_several_precedences(self, ctx):
        x, y, u = Var(1), Var(2), Jet(1, ())
        m = ls.mul(-1, x, u)             # -x*u: bare as a term, bracketed as a factor
        s = ls.add(x, u)                 # x + u: bare in exp(), bracketed when flipped
        c = Const(Fraction(-1, 2))
        trees = [
            Add((m, Mul(Fraction(3), (m, y)), Mul(Fraction(-1), (s,)),
                 Func("exp", s), Func("sin", m), Pow(m, Fraction(2)),
                 Pow(c, Fraction(1, 2)), Mul(Fraction(1), (c, y)))),
            ls.add(m, ls.func("exp", m), ls.pow_(s, 3), ls.mul(s, ls.func("log", s))),
            Mul(Fraction(2), (m, Pow(m, Fraction(-1)), Func("cos", m))),
        ]
        for e in trees:
            assert format_expr(e, ctx) == ref_format_expr(e, ctx)
        text = format_expr(trees[0], ctx)
        assert text.startswith("-x*u + 3*(-x*u)*y - (x + u) + exp(x + u)")

    def test_negative_terms_with_temporary_flips(self, rng, ctx):
        # every flipped term is a temporary that dies before the next is
        # built, so a memo that did not hold its nodes would see their ids
        # again
        atoms = [Var(1), Var(2), Jet(1, ()), Jet(1, (1,)), Jet(1, (2,)),
                 Jet(1, (1, 2))]
        for _ in range(200):
            terms = [ls.mul(rng.choice([-3, -2, -1, Fraction(-1, 2), 1, 2]),
                            *rng.sample(atoms, rng.randint(0, 2)))
                     for _ in range(rng.randint(2, 8))]
            shared = ls.add(*terms)
            for e in (shared, ls.add(shared, ls.func("exp", shared)),
                      ls.mul(shared, ls.add(ls.mul(-5, atoms[0]), atoms[1]))):
                assert format_expr(e, ctx) == ref_format_expr(e, ctx)
        e = ls.add(Var(1), ls.mul(-2, Jet(1, ())), ls.mul(-3, Var(2)))
        assert format_expr(e, ctx) == "x - 3*y - 2*u"

    def test_seeded_trees_match_the_reference(self, rng, ctx):
        atoms = [Var(1), Var(2), Jet(1, ()), Jet(1, (1,)), ls.Param("c")]
        ctx = ls.Context(("x", "y"), ("u",), ("c",))
        for _ in range(400):
            e = rand_expr(rng, atoms, depth=4)
            e = ls.add(e, ls.mul(-2, e, atoms[2]), ls.func("sin", e))
            assert format_expr(e, ctx) == ref_format_expr(e, ctx)

    def test_problem_file_prolongation(self):
        prob = parse_problem((PROBLEMS / "generic.prob").read_text())
        pv = ls.prolong(prob.vfields["generic"], 4)
        for e in pv.coeffs.values():
            assert format_expr(e, prob.ctx) == ref_format_expr(e, prob.ctx)

    def test_edge_cases_shared(self, ctx):
        # each edge tree at several precedences and beside its negation, one
        # memo for them all
        trees = edge_trees()
        batch = [e for t in trees for e in (t, ls.neg(t), ls.mul(t, ls.add(t, Var(2))),
                                           ls.pow_(t, Fraction(-3, 2)))]
        assert format_exprs(batch, ctx) == [ref_format_expr(e, ctx) for e in batch]
        for e in trees:
            assert format_expr(e, ctx) == ref_format_expr(e, ctx)

    def test_problem_file_order5_prolongation(self):
        pv, ctx = generic_order5()
        exprs = [*pv.coeffs.values()]
        assert format_exprs(exprs, ctx) == [ref_format_expr(e, ctx) for e in exprs]

    def test_memo_lives_for_one_call(self, ctx):
        e = ls.add(ls.mul(-2, Var(1), Jet(1, ())), ls.func("exp", Var(2)))
        before = sys.getrefcount(e), sys.getrefcount(e.terms[0])
        format_expr(e, ctx)
        assert (sys.getrefcount(e), sys.getrefcount(e.terms[0])) == before

    def test_deep_exp_chain_one_frame_per_level(self, ctx):
        e = Jet(1, ())
        for _ in range(_MAX_NESTING):
            e = ls.func("exp", e)
        limit = sys.getrecursionlimit()
        # room for one frame per level and a few more, not two per level
        sys.setrecursionlimit(stack_depth() + _MAX_NESTING + 20)
        try:
            text = format_expr(e, ctx)
        finally:
            sys.setrecursionlimit(limit)
        assert text == "exp(" * _MAX_NESTING + "u" + ")" * _MAX_NESTING
        assert parse_expr(text, ctx) == e
