"""Text grammar for problem files and expressions: parser and printer.

Problem files are line oriented.  Declarations (``indep``, ``dep``, ``param``,
``unknown``) must precede the items that use them; items are ``system``,
``vf``, ``lagrangian``, ``current`` and ``dimmatrix``.  ``#`` starts a comment.
Jet shorthand ``u_xx`` is accepted only when every independent-variable name
is a single character; ``D(u, x, x, t)`` is always valid.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .buckpi import DimensionalModel
from .detsys import DiffSystem
from .errors import (
    DegenerateExpression,
    LiesymError,
    NotSolvedForm,
    ParseError,
    SimplificationIncomplete,
    UnknownSymbol,
)
from .expr import (
    Add,
    Const,
    Context,
    Expr,
    FUNC_NAMES,
    Func,
    Jet,
    Mul,
    Param,
    Pow,
    UFunc,
    Var,
    ZERO,
    _digit_count,
    add,
    div,
    func,
    mul,
    neg,
    pow_,
)
from .jet import VectorField
from .ratla import RatMatrix

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<num>\d+)
      | (?P<name>[A-Za-z][A-Za-z0-9]*)
      | (?P<op>[_+\-*/^(){}\[\],;:=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str          # num | name | op | newline | eof
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        s = m.group()
        if kind == "newline":
            out.append(Token("newline", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                out.append(Token(kind, s, line, col))
            col += len(s)
        pos = m.end()
    out.append(Token("eof", "", line, col))
    return out


def _int(t: Token, digits: str | None = None) -> int:
    """The value of the digit string ``digits`` of token ``t`` (default: its
    whole text), raising :class:`ParseError` at the token when it has more
    digits than the interpreter converts to an integer."""
    digits = t.text if digits is None else digits
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long",
                         t.line, t.column) from None


class _Stream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                             t.line, t.column)
        return self.next()

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.column)


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

# Groups (parentheses and function calls) nest at most this deep; the
# recursive descent takes five Python frames per group, so the bound keeps a
# parse well inside the interpreter's default recursion limit of 1000.
_MAX_NESTING = 128


class _ExprParser:
    def __init__(self, s: _Stream, ctx: Context):
        self.s = s
        self.ctx = ctx
        self.depth = 0

    def open_group(self, t: Token) -> None:
        """Enter the group opened at token ``t``; :meth:`close_group` leaves it."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"expression nested too deeply (more than "
                             f"{_MAX_NESTING} groups)", t.line, t.column)
        self.depth += 1

    def close_group(self) -> None:
        self.s.expect("op", ")")
        self.depth -= 1

    def sum(self) -> Expr:
        t = self.term()
        while True:
            if self.s.accept("op", "+"):
                t = add(t, self.term())
            elif self.s.accept("op", "-"):
                t = add(t, neg(self.term()))
            else:
                return t

    def term(self) -> Expr:
        t = self.unary()
        while True:
            if self.s.accept("op", "*"):
                t = mul(t, self.unary())
            elif self.s.accept("op", "/"):
                d = self.unary()
                if d is ZERO:
                    self.s.error("division by zero")
                t = div(t, d)
            else:
                return t

    def unary(self) -> Expr:
        # a loop, not a recursion, so a long run of signs takes no stack
        signs = 0
        while self.s.accept("op", "-"):
            signs += 1
        e = self.power()
        for _ in range(signs):
            e = neg(e)
        return e

    def power(self) -> Expr:
        b = self.primary()
        if self.s.accept("op", "^"):
            return pow_(b, self.exponent())
        return b

    def exponent(self) -> Fraction:
        t = self.s.peek()
        if t.kind == "num":
            self.s.next()
            return Fraction(_int(t))
        if self.s.accept("op", "("):
            sign = -1 if self.s.accept("op", "-") else 1
            num = _int(self.s.expect("num"))
            den = 1
            if self.s.accept("op", "/"):
                den = _int(self.s.expect("num"))
                if den == 0:
                    self.s.error("zero denominator in exponent")
            self.s.expect("op", ")")
            return Fraction(sign * num, den)
        self.s.error("expected a rational-constant exponent")

    def primary(self) -> Expr:
        s = self.s
        t = s.peek()
        if t.kind == "num":
            s.next()
            return Const(_int(t))
        if s.accept("op", "("):
            self.open_group(t)
            e = self.sum()
            self.close_group()
            return e
        if t.kind != "name":
            s.error(f"expected an expression, found {t.text or t.kind!r}")
        s.next()
        name = t.text
        if name == "D" and s.peek().kind == "op" and s.peek().text == "(":
            return self.canonical_jet(t)
        if name in FUNC_NAMES:
            self.open_group(s.expect("op", "("))
            arg = self.sum()
            self.close_group()
            return func(name, arg)
        return self.resolve(name, t)

    def canonical_jet(self, t: Token) -> Expr:
        s = self.s
        s.expect("op", "(")
        dep = s.expect("name").text
        names = []
        while s.accept("op", ","):
            names.append(s.expect("name").text)
        s.expect("op", ")")
        try:
            return self.ctx.jet(dep, *names)
        except UnknownSymbol as exc:
            raise ParseError(str(exc), t.line, t.column) from None

    def deriv_suffix(self) -> list[str] | None:
        """Names after '_', either braced and comma separated or a run of
        single characters; None when no suffix follows."""
        s = self.s
        if not (s.peek().kind == "op" and s.peek().text == "_"):
            return None
        s.next()
        if s.accept("op", "{"):
            names = [s.expect("name").text]
            while s.accept("op", ","):
                names.append(s.expect("name").text)
            s.expect("op", "}")
            return names
        run = s.expect("name")
        return list(run.text)

    def resolve(self, name: str, t: Token) -> Expr:
        ctx = self.ctx
        if name in ctx.indep:
            return ctx.var(name)
        if name in ctx.params:
            return Param(name)
        if name in ctx.dep:
            suffix = self.deriv_suffix()
            if suffix is None:
                return Jet(ctx.dep_index(name), ())
            if any(len(n) != 1 for n in ctx.indep) and any(len(n) == 1 for n in suffix):
                raise ParseError(
                    "jet shorthand requires single-character independent names; "
                    f"use D({name}, ...)", t.line, t.column)
            try:
                return ctx.jet(name, *suffix)
            except UnknownSymbol as exc:
                raise ParseError(str(exc), t.line, t.column) from None
        unames = [n for n, _ in ctx.unknowns]
        if name in unames:
            suffix = self.deriv_suffix() or []
            try:
                return ctx.ufunc(name, *suffix)
            except UnknownSymbol as exc:
                raise ParseError(str(exc), t.line, t.column) from None
        raise ParseError(f"undeclared identifier {name!r}", t.line, t.column)


def parse_expr(text: str, ctx: Context) -> Expr:
    """One expression.  A subexpression that is undefined (``log(0)``,
    ``0^(-1)``) or a constant too large to compute (``2^99999999``) is a
    :class:`ParseError` at the last token it took."""
    tokens = [t for t in tokenize(text) if t.kind != "newline"]
    s = _Stream(tokens)
    try:
        e = _ExprParser(s, ctx).sum()
    except (DegenerateExpression, SimplificationIncomplete) as exc:
        t = s.tokens[max(s.i - 1, 0)]
        raise ParseError(str(exc), t.line, t.column) from None
    s.expect("eof")
    return e


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_ADD, _MUL, _POW = 0, 1, 2


def format_expr(e: Expr, ctx: Context) -> str:
    """Canonical text form; parse_expr(format_expr(e), ctx) == e.

    A subtree that occurs more than once in ``e`` as one object is printed
    once per precedence; the memo of printed subtrees lives for one call."""
    return _fmt(e, ctx, _ADD, {})


def format_exprs(exprs: Iterable[Expr], ctx: Context) -> list[str]:
    """The :func:`format_expr` text of each expression, in order, with one
    memo of printed subtrees for the whole batch, so a subtree that several
    of them share as one object is printed once per precedence."""
    memo: dict = {}
    return [_fmt(e, ctx, _ADD, memo) for e in exprs]


def _paren(s: str) -> str:
    return "(" + s + ")"


def _fmt_const(v: Fraction, prec: int) -> str:
    try:
        s = str(v)
    except ValueError:
        # more digits than the interpreter converts to a string
        digits = _digit_count(v.numerator)
        if v.denominator != 1:
            digits += _digit_count(v.denominator)
        raise LiesymError(f"constant of {digits} digits is too long to print") from None
    if prec > _ADD and (v.numerator < 0 or v.denominator != 1):
        return _paren(s)
    return s


def _jet_name(j: Jet, ctx: Context) -> str:
    try:
        dep = ctx.dep[j.dep - 1]
        names = [ctx.indep[i - 1] for i in j.idx]
    except IndexError:
        raise UnknownSymbol(f"{j!r} is not a jet coordinate of the context") from None
    if not names:
        return dep
    if all(len(n) == 1 for n in ctx.indep):
        return dep + "_" + "".join(names)
    return "D(" + dep + ", " + ", ".join(names) + ")"


def _ufunc_name(u: UFunc, ctx: Context) -> str:
    arg_names = ctx.unknown_args(u.name)
    if not u.deriv:
        return u.name
    try:
        names = [arg_names[k] for k in u.deriv]
    except IndexError:
        raise UnknownSymbol(
            f"{u!r} differentiates beyond the arguments of {u.name!r}") from None
    if len(names) == 1 and len(names[0]) == 1:
        return u.name + "_" + names[0]
    return u.name + "_{" + ",".join(names) + "}"


def _fmt_product(c: Fraction, fs: tuple[Expr, ...], ctx: Context, memo: dict) -> str:
    """The text of the product of ``c`` and the factors ``fs``, unparenthesized."""
    body = "*".join([_fmt(f, ctx, _MUL, memo) if type(f) is not Add
                     else _paren(_fmt(f, ctx, _ADD, memo)) for f in fs])
    if c.denominator == 1 and (c.numerator == 1 or c.numerator == -1):
        return body if c.numerator == 1 else "-" + body
    return _fmt_const(c, _MUL) + "*" + body


def _fmt_negated(c: Fraction, fs: tuple[Expr, ...], ctx: Context, memo: dict) -> str:
    """The text of the negated sum term with coefficient ``c < 0`` and
    factors ``fs``, as :func:`_fmt` prints ``neg`` of it after a minus sign,
    built from ``-c`` and ``fs`` without a new node."""
    if not fs:
        return _fmt_const(-c, _ADD)
    if len(fs) == 1 and c.numerator == -1 and c.denominator == 1:
        f = fs[0]
        return _fmt(f, ctx, _MUL if type(f) is Add else _ADD, memo)
    return _fmt_product(-c, fs, ctx, memo)


def _fmt(e: Expr, ctx: Context, prec: int, memo: dict) -> str:
    """The text of ``e`` at precedence ``prec``.  ``memo`` maps
    ``(node, prec)`` to the node's text."""
    t = type(e)
    if t is Const:
        return _fmt_const(e.value, prec)
    if t is Var:
        try:
            return ctx.indep[e.index - 1]
        except IndexError:
            raise UnknownSymbol(f"{e!r} is not a variable of the context") from None
    if t is Param:
        if e.name not in ctx.params:
            raise UnknownSymbol(f"{e!r} is not a parameter of the context")
        return e.name
    key = (e, prec)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if t is Mul:
        s = _fmt_product(e.coeff, e.factors, ctx, memo)
        if prec >= _POW or (prec > _ADD and s.startswith("-")):
            s = _paren(s)
    elif t is Add:
        terms = e.terms
        parts = [_fmt(terms[0], ctx, _ADD, memo)]
        for u in terms[1:]:
            tu = type(u)
            c = u.coeff if tu is Mul else u.value if tu is Const else None
            if c is not None and c.numerator < 0:
                parts += (" - ", _fmt_negated(c, u.factors if tu is Mul else (),
                                              ctx, memo))
            else:
                parts += (" + ", _fmt(u, ctx, _ADD, memo))
        s = "".join(parts)
        if prec > _ADD:
            s = _paren(s)
    elif t is Pow:
        if type(e.base) in (Add, Mul, Pow):
            base = _paren(_fmt(e.base, ctx, _ADD, memo))
        else:
            base = _fmt(e.base, ctx, _POW, memo)
        exp = e.exp
        if exp.denominator == 1 and exp.numerator >= 0:
            s = f"{base}^{exp.numerator}"
        else:
            s = f"{base}^({exp})"
    elif t is Jet:
        s = _jet_name(e, ctx)
    elif t is UFunc:
        s = _ufunc_name(e, ctx)
    elif t is Func:
        s = e.fname + _paren(_fmt(e.arg, ctx, _ADD, memo))
    else:
        raise TypeError(t)
    memo[key] = s
    return s


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    ctx: Context
    systems: dict[str, DiffSystem] = field(default_factory=dict)
    vfields: dict[str, VectorField] = field(default_factory=dict)
    lagrangians: dict[str, Expr] = field(default_factory=dict)
    currents: dict[str, tuple[Expr, ...]] = field(default_factory=dict)
    dim_models: dict[str, DimensionalModel] = field(default_factory=dict)

    def _all_names(self):
        for d in (self.systems, self.vfields, self.lagrangians,
                  self.currents, self.dim_models):
            yield from d


def _statements(tokens: list[Token]) -> list[list[Token]]:
    """Split at depth-0 newlines; parenthesized groups may span lines."""
    out: list[list[Token]] = []
    cur: list[Token] = []
    depth = 0
    for t in tokens:
        if t.kind == "op" and t.text in "([{":
            depth += 1
        elif t.kind == "op" and t.text in ")]}":
            depth -= 1
        if (t.kind == "newline" and depth == 0) or t.kind == "eof":
            if cur:
                out.append(cur + [Token("eof", "", t.line, t.column)])
            cur = []
        elif t.kind != "newline":
            cur.append(t)
    return out


class _ProblemParser:
    def __init__(self):
        self.indep: list[str] = []
        self.dep: list[str] = []
        self.params: list[str] = []
        self.unknowns: list[tuple[str, tuple[str, ...]]] = []
        self.problem: Problem | None = None

    @property
    def ctx(self) -> Context:
        return Context(tuple(self.indep), tuple(self.dep),
                       tuple(self.params), tuple(self.unknowns))

    def run(self, text: str) -> Problem:
        self.problem = Problem(self.ctx)
        for st in _statements(tokenize(text)):
            self.statement(_Stream(st))
        self.problem.ctx = self.ctx
        return self.problem

    def declared(self, name: str) -> bool:
        return (name in self.indep or name in self.dep or name in self.params
                or any(n == name for n, _ in self.unknowns))

    def decl_names(self, s: _Stream) -> list[str]:
        names = []
        while s.peek().kind == "name":
            t = s.next()
            if self.declared(t.text):
                raise ParseError(f"duplicate declaration of {t.text!r}",
                                 t.line, t.column)
            names.append(t.text)
        s.expect("eof")
        if not names:
            s.error("expected at least one name")
        return names

    def item_name(self, s: _Stream) -> str:
        t = s.expect("name")
        assert self.problem is not None
        if t.text in set(self.problem._all_names()):
            raise ParseError(f"duplicate item name {t.text!r}", t.line, t.column)
        return t.text

    def statement(self, s: _Stream):
        t = s.expect("name")
        kw = t.text
        if kw == "indep":
            self.indep.extend(self.decl_names(s))
        elif kw == "dep":
            self.dep.extend(self.decl_names(s))
        elif kw == "param":
            self.params.extend(self.decl_names(s))
        elif kw == "unknown":
            self.unknown_decl(s)
        elif kw == "system":
            self.system_item(s)
        elif kw == "vf":
            self.vf_item(s)
        elif kw == "lagrangian":
            name = self.item_name(s)
            s.expect("op", ":")
            e = _ExprParser(s, self.ctx).sum()
            s.expect("eof")
            self.problem.lagrangians[name] = e
        elif kw == "current":
            name = self.item_name(s)
            s.expect("op", ":")
            p = _ExprParser(s, self.ctx)
            comps = [p.sum()]
            while s.accept("op", ","):
                comps.append(p.sum())
            s.expect("eof")
            self.problem.currents[name] = tuple(comps)
        elif kw == "dimmatrix":
            self.dimmatrix_item(s)
        else:
            raise ParseError(f"unknown declaration or item {kw!r}",
                             t.line, t.column)

    def unknown_decl(self, s: _Stream):
        t = s.expect("name")
        if self.declared(t.text):
            raise ParseError(f"duplicate declaration of {t.text!r}",
                             t.line, t.column)
        s.expect("op", "(")
        args = [s.expect("name").text]
        while s.accept("op", ","):
            args.append(s.expect("name").text)
        s.expect("op", ")")
        s.expect("eof")
        self.unknowns.append((t.text, tuple(args)))

    def system_item(self, s: _Stream):
        name = self.item_name(s)
        s.expect("op", ":")
        ctx = self.ctx
        p = _ExprParser(s, ctx)
        eqs = []
        while True:
            t = s.peek()
            lead = p.primary()
            if not isinstance(lead, Jet):
                raise ParseError("left side of a system equation must be a "
                                 "jet coordinate", t.line, t.column)
            s.expect("op", "=")
            rhs = p.sum()
            eqs.append((lead, rhs))
            if not s.accept("op", ";"):
                break
        s.expect("eof")
        try:
            self.problem.systems[name] = DiffSystem(ctx, tuple(eqs))
        except NotSolvedForm as exc:
            raise ParseError(str(exc), t.line, t.column) from None

    def vf_item(self, s: _Stream):
        name = self.item_name(s)
        s.expect("op", ":")
        ctx = self.ctx
        xi = {n: ZERO for n in ctx.indep}
        phi = {n: ZERO for n in ctx.dep}
        p = _ExprParser(s, ctx)
        while True:
            kind_t = s.expect("name")
            if kind_t.text not in ("xi", "phi"):
                raise ParseError("expected 'xi[...]' or 'phi[...]'",
                                 kind_t.line, kind_t.column)
            s.expect("op", "[")
            var_t = s.expect("name")
            s.expect("op", "]")
            s.expect("op", "=")
            e = p.sum()
            target = xi if kind_t.text == "xi" else phi
            if var_t.text not in target:
                raise ParseError(
                    f"{var_t.text!r} is not a declared "
                    + ("independent" if kind_t.text == "xi" else "dependent")
                    + " variable", var_t.line, var_t.column)
            target[var_t.text] = e
            if not s.accept("op", ";"):
                break
        s.expect("eof")
        self.problem.vfields[name] = VectorField(
            ctx,
            tuple(xi[n] for n in ctx.indep),
            tuple(phi[n] for n in ctx.dep),
        )

    def rational(self, s: _Stream) -> Fraction:
        sign = -1 if s.accept("op", "-") else 1
        num = _int(s.expect("num"))
        if s.accept("op", "/"):
            den = _int(s.expect("num"))
            if den == 0:
                s.error("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def dimmatrix_item(self, s: _Stream):
        name = self.item_name(s)
        s.expect("op", ":")
        r = _int(s.expect("num"))
        sep = s.expect("name")
        if sep.text == "x":
            m = _int(s.expect("num"))
        elif sep.text.startswith("x") and sep.text[1:].isdigit():
            m = _int(sep, sep.text[1:])
        else:
            raise ParseError("expected dimensions like '3x5'",
                             sep.line, sep.column)
        s.expect("name", "rows")
        rows = []
        while True:
            row = [self.rational(s)]
            while s.accept("op", ","):
                row.append(self.rational(s))
            if len(row) != m:
                s.error(f"row has {len(row)} entries, expected {m}")
            rows.append(row)
            if not s.accept("op", ";") or s.peek().kind == "eof":
                break
        s.expect("eof")
        if len(rows) != r:
            s.error(f"matrix has {len(rows)} rows, expected {r}")
        a = RatMatrix.from_rows(rows)
        self.problem.dim_models[name] = DimensionalModel(
            a,
            tuple(f"f{i+1}" for i in range(r)),
            tuple(f"q{j+1}" for j in range(m)),
        )


def parse_problem(text: str) -> Problem:
    return _ProblemParser().run(text)


def parse_dimension_csv(text: str) -> DimensionalModel:
    """CSV dimension matrix: first row derived names, first column fundamental
    names, cells rational exponents."""
    import csv
    import io

    rows = [r for r in csv.reader(io.StringIO(text)) if any(c.strip() for c in r)]
    if not rows:
        raise ParseError("empty dimension table", 1, 1)
    derived = [c.strip() for c in rows[0][1:]]
    fundamental = []
    entries = []
    for ln, row in enumerate(rows[1:], start=2):
        fundamental.append(row[0].strip())
        cells = [c.strip() for c in row[1:]]
        if len(cells) != len(derived):
            raise ParseError("ragged dimension table row", ln, 1)
        try:
            entries.append([Fraction(c) for c in cells])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational entry: {exc}", ln, 1) from None
    return DimensionalModel(
        RatMatrix.from_rows(entries), tuple(fundamental), tuple(derived)
    )
