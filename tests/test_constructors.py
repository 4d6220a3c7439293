"""``add`` and ``mul`` keep the input terms and factors they would rebuild
equal: their results, node for node, against the reference constructors that
rebuilt every one.  The product rule's term helper builds what ``mul``
builds, and every constructor result is a fixed point of ``mul`` and
``normalize``."""
from fractions import Fraction
from pathlib import Path

import pytest

import liesym as ls
import liesym.expr
import liesym.jet
from liesym.expr import (
    Const,
    Jet,
    Mul,
    Param,
    Pow,
    UFunc,
    Var,
    _merge_term,
    add,
    func,
    mul,
    neg,
    normalize,
    pow_,
)

from conftest import (
    base_exp,
    rand_expr,
    rand_poly,
    rand_rational,
    ref_add,
    ref_mul,
    same_tree,
)
from conftest import split_term as _split

PROBLEMS = Path(__file__).resolve().parent.parent / "bench" / "problems"

x, y = Var(1), Var(2)
u = Jet(1, ())
ux = Jet(1, (1,))
F = UFunc("F", (x, u))
ATOMS = [x, y, u, ux, Jet(1, (1, 2)), Param("c"), F, UFunc("F", (x, u), (0,))]
# powers of a power, a sum and a product whose fractional exponents can sum
# to an integer, beside powers of the base they fold to
uy = Jet(1, (2,))
S = add(1, x)
HALF = Fraction(1, 2)
FOLDING = [x, uy, S, pow_(uy, 2), pow_(pow_(uy, -2), HALF),
           pow_(pow_(uy, -2), Fraction(5, 2)), pow_(pow_(S, 2), HALF),
           pow_(neg(x), HALF), pow_(neg(x), Fraction(3, 2))]


def raw_inputs(rng, pieces):
    """Nodes built without the constructors, as callers pass them:
    ``liesym._distributed`` hands ``mul`` ``Pow(g, k)`` with an int ``k``
    (1 included), and the dataclasses accept an int-valued ``Const`` and an
    exponent of ``Fraction(1)``."""
    g = rng.choice(pieces)
    return [
        Pow(g, rng.choice([1, 2, 3, -1])),
        Pow(rng.choice(ATOMS), 1),
        Const(rng.randint(-3, 3)),
        Pow(g, Fraction(1)),
        Pow(rng.choice(ATOMS), Fraction(0)),
        rng.choice([2, Fraction(-1, 3), 0]),
    ]


def pieces_of(rng, n):
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.3:
            out.append(rand_poly(rng, ATOMS, degree=3, terms=rng.randint(1, 4)))
        elif r < 0.8:
            out.append(rand_expr(rng, ATOMS, depth=3))
        else:
            out.append(ls.Const(rand_rational(rng)))
    return out


def both(new, ref, *args):
    got, want = new(*args), ref(*args)
    assert same_tree(got, want), (args, got, want)
    return got


class TestAgainstReference:
    def test_seeded_random_trees(self, rng):
        pieces = pieces_of(rng, 60)
        kinds = set()
        for _ in range(1500):
            args = [rng.choice(pieces) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.4:
                args += rng.sample(raw_inputs(rng, pieces), rng.randint(1, 2))
            rng.shuffle(args)
            s = both(add, ref_add, *args)
            p = both(mul, ref_mul, *args)
            kinds.update((type(s).__name__, type(p).__name__))
            # the results as input again: every term or factor occurs twice
            both(add, ref_add, s, *args)
            both(mul, ref_mul, p, *args)
        assert kinds >= {"Add", "Mul", "Pow", "Const"}

    def test_repeated_and_cancelling_terms(self, rng):
        for e in pieces_of(rng, 200):
            both(add, ref_add, e, e)
            both(add, ref_add, e, mul(-1, e))
            both(mul, ref_mul, e, e)
            both(mul, ref_mul, e, pow_(e, -1) if e != Const(Fraction(0)) else e)

    def test_raw_powers_and_constants(self):
        s = add(x, u)
        for k in (1, 2, -1, Fraction(1), Fraction(0), Fraction(2), Fraction(-1),
                  Fraction(3, 2)):
            for b in (x, s, F, mul(2, x), Const(Fraction(4)), pow_(s, Fraction(1, 2))):
                both(mul, ref_mul, Pow(b, k))
                both(mul, ref_mul, Const(3), Pow(b, k), y)
                both(add, ref_add, Pow(b, k), y)
        for v in (0, 1, -2):
            both(mul, ref_mul, Const(v))
            both(mul, ref_mul, Const(v), x)
            both(add, ref_add, Const(v))
            both(add, ref_add, Const(v), x, Const(Fraction(1, 2)))
        # the ints are converted exactly as before
        assert type(add(Const(2)).value) is Fraction
        assert type(mul(Const(2), x).coeff) is Fraction
        assert mul(Pow(x, 1), y) == mul(x, y)

    def test_product_power_merge(self):
        h = pow_(mul(2, x), Fraction(1, 2))
        assert isinstance(h, Pow) and isinstance(h.base, Mul)
        assert both(mul, ref_mul, h, h) == mul(2, x)
        both(mul, ref_mul, h, h, y)
        both(mul, ref_mul, h, y)

    def test_scalar_over_a_lone_sum(self):
        s = add(x, u)
        assert both(mul, ref_mul, 3, s) == add(mul(3, x), mul(3, u))
        assert both(add, ref_add, Mul(Fraction(2), (s,))) == add(mul(2, x), mul(2, u))
        both(add, ref_add, Mul(Fraction(1), (x,)), y)
        both(add, ref_add, Mul(Fraction(5), ()), y)

    def test_two_terms_and_two_factors_in_order(self):
        for a, b in [(x, u), (u, x), (F, ux), (mul(2, x), x), (func("exp", x), y)]:
            both(add, ref_add, a, b)
            both(mul, ref_mul, a, b)
            both(mul, ref_mul, pow_(a, 2), pow_(b, Fraction(1, 3)))

    def test_input_nodes_kept(self):
        t = mul(3, x, u)
        p = pow_(add(x, u), 2)
        s = add(t, y)
        assert s.terms[1] is t
        assert any(f is p for f in mul(p, y).factors)

    def test_non_expression_rejected(self):
        with pytest.raises(TypeError):
            add(x, "y")
        with pytest.raises(TypeError):
            mul(0, "y")


class TestFixedPoints:
    """A tree the constructors built is canonical: ``mul`` and ``normalize``
    give it back node for node."""

    def test_folds_meet_the_other_factors(self):
        for args, want in [
            ((pow_(pow_(uy, -2), HALF), pow_(pow_(uy, -2), Fraction(5, 2)),
              pow_(uy, 2)), pow_(uy, -4)),
            ((pow_(pow_(S, 2), HALF), pow_(pow_(S, 2), HALF), S), pow_(S, 3)),
            ((pow_(neg(x), HALF), pow_(neg(x), Fraction(3, 2)), x), pow_(x, 3)),
        ]:
            got = both(mul, ref_mul, *args)
            assert same_tree(got, want), (args, got)
            assert same_tree(mul(got), got)

    def test_random_trees(self, rng):
        for atoms in (ATOMS, FOLDING):
            for _ in range(800):
                e = rand_expr(rng, atoms, depth=rng.randint(2, 4))
                if rng.random() < 0.5:
                    e = mul(e, *rng.choices(atoms, k=rng.randint(1, 3)))
                assert same_tree(mul(e), e), e
                assert same_tree(normalize(e), e), e


class TestMergeTerm:
    """``_merge_term(c, d, rest)`` is ``mul(Const(c), d, *rest)`` node for
    node on the inputs the product rule passes it."""

    @staticmethod
    def rest_of(rng, pieces):
        """The sorted factors of a canonical product, one of them dropped
        at times, as the product rule passes them."""
        fs = _split(mul(*rng.sample(pieces, rng.randint(1, 4))))[1]
        if fs and rng.random() < 0.5:
            i = rng.randrange(len(fs))
            fs = fs[:i] + fs[i + 1:]
        return fs

    def test_against_mul(self, rng):
        pieces = pieces_of(rng, 40) + FOLDING + [add(x, uy), F]
        kinds = set()
        for _ in range(3000):
            c = rand_rational(rng) or Fraction(1)
            d = rng.choice(pieces)
            if rng.random() < 0.4:
                d = mul(d, rng.choice(pieces))
            rest = self.rest_of(rng, pieces)
            got = _merge_term(c, d, rest)
            assert same_tree(got, mul(Const(c), d, *rest)), (c, d, rest)
            bases = {base_exp(f)[0] for f in rest}
            kinds.add("constant" if isinstance(d, Const) else
                      "bases meet" if any(base_exp(f)[0] in bases
                                          for f in _split(d)[1]) else
                      "lone sum" if isinstance(d, ls.Add) and not rest else
                      "merged")
        assert kinds == {"constant", "bases meet", "lone sum", "merged"}


def problem_fields():
    for path in sorted(PROBLEMS.glob("*.prob")):
        prob = ls.parse_problem(path.read_text())
        for name, v in prob.vfields.items():
            yield f"{path.stem}.{name}", v


FIELDS = dict(problem_fields())


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_problem_file_prolongations(label, monkeypatch):
    v = FIELDS[label]
    runs = [(f, w, n)
            for f, w in ((ls.prolong, v), (ls.prolong_recursive, v),
                         (ls.evolutionary_prolong, ls.characteristic_of(v)))
            for n in range(1, 6)]
    got = [f(w, n).coeffs for f, w, n in runs]
    # the same prolongations with the reference constructors wherever the
    # prolongations look add and mul up
    for mod in (liesym.expr, liesym.jet):
        monkeypatch.setattr(mod, "add", ref_add)
        monkeypatch.setattr(mod, "mul", ref_mul)
        monkeypatch.setattr(mod, "_merge_term",
                            lambda c, d, rest: ref_mul(Const(c), d, *rest))
    for (f, w, n), coeffs in zip(runs, got):
        want = f(w, n).coeffs
        assert list(coeffs) == list(want), (label, f.__name__, n)
        for j in want:
            assert same_tree(coeffs[j], want[j]), (label, f.__name__, n, j)
