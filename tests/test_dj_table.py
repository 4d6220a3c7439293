"""Memoised partial derivatives, and the prolongations built from the total
derivatives each node keeps, against the one-walk-per-call versions they
replace."""
from fractions import Fraction

import liesym as ls
from liesym.expr import (
    ONE,
    ZERO,
    Add,
    Const,
    Expr,
    Func,
    Jet,
    Mul,
    Param,
    Pow,
    UFunc,
    Var,
    add,
    func,
    mul,
    neg,
    pow_,
)
from liesym.jet import (
    Characteristic,
    ProlongedVectorField,
    VectorField,
    multi_indices,
)

from conftest import rand_expr, rand_point_vf, rand_poly

x, t = Var(1), Var(2)
u = Jet(1, ())
ux = Jet(1, (1,))


# ---------------------------------------------------------------------------
# References: liesym.expr._partials and liesym.jet's total_derivative,
# prolong_recursive and evolutionary_prolong as they were before partials
# was memoised, kept verbatim but for their names (prefixed with ref_) and
# the chain rule through every unknown-function argument, which
# ref_partials has since gained.
# ---------------------------------------------------------------------------

def ref_partials(e: Expr) -> dict[Expr, Expr]:
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
            for v, d in ref_partials(t).items():
                parts.setdefault(v, []).append(d)
    elif isinstance(e, Mul):
        coeff, fs = Const(e.coeff), e.factors
        for i, f in enumerate(fs):
            grads = ref_partials(f)
            if grads:
                rest = fs[:i] + fs[i + 1:]
                for v, d in grads.items():
                    parts.setdefault(v, []).append(mul(coeff, d, *rest))
    elif isinstance(e, UFunc):
        # chain rule through every argument
        for k, a in enumerate(e.args):
            for v, d in ref_partials(a).items():
                parts.setdefault(v, []).append(
                    mul(UFunc(e.name, e.args, e.deriv + (k,)), d))
    else:
        # chain rule; the outer derivative is built even for a constant
        # argument (func rejects log(0) when the node is built, so no log
        # node has a zero argument)
        if isinstance(e, Pow):
            outer = (Const(e.exp), pow_(e.base, e.exp - 1))
            grads = ref_partials(e.base)
        elif isinstance(e, Func):
            grads = ref_partials(e.arg)
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
        return ref_nonzero({v: mul(*outer, d) for v, d in grads.items()})
    return ref_nonzero({v: add(*ds) for v, ds in parts.items()})


def ref_nonzero(grads: dict[Expr, Expr]) -> dict[Expr, Expr]:
    return {v: d for v, d in grads.items() if d != ZERO}


def ref_total_derivative(e: Expr, i: int) -> Expr:
    grads = ref_partials(e)
    parts = [grads.get(Var(i), ZERO)]
    for j, d in grads.items():
        if isinstance(j, Jet):
            parts.append(mul(Jet(j.dep, j.idx + (i,)), d))
    return add(*parts)


def ref_total_derivative_multi(e, idx):
    out = e
    for i in idx:
        out = ref_total_derivative(out, i)
    return out


def ref_prolong_recursive(v: VectorField, n: int) -> ProlongedVectorField:
    ctx = v.ctx
    dxi = {
        (i, k): ref_total_derivative(v.xi[i], k)
        for i in range(ctx.p)
        for k in range(1, ctx.p + 1)
    }
    coeffs: dict[Jet, Expr] = {}
    for a in range(ctx.q):
        level: dict[tuple[int, ...], Expr] = {(): v.phi[a]}
        for k in range(1, n + 1):
            for idx in multi_indices(ctx.p, k):
                prev, last = idx[:-1], idx[-1]
                val = add(
                    ref_total_derivative(level[prev], last),
                    *(
                        neg(mul(dxi[(i, last)], Jet(a + 1, tuple(sorted(prev + (i + 1,))))))
                        for i in range(ctx.p)
                    ),
                )
                level[idx] = val
                coeffs[Jet(a + 1, idx)] = val
    return ProlongedVectorField(ctx, n, v.xi, v.phi, coeffs)


def ref_evolutionary_prolong(q: Characteristic, n: int) -> ProlongedVectorField:
    ctx = q.ctx
    coeffs: dict[Jet, Expr] = {}
    for a in range(ctx.q):
        dq: dict[tuple[int, ...], Expr] = {(): q.q[a]}
        for k in range(1, n + 1):
            for idx in multi_indices(ctx.p, k):
                dq[idx] = ref_total_derivative(dq[idx[:-1]], idx[-1])
                coeffs[Jet(a + 1, idx)] = dq[idx]
    zero_xi = (ZERO,) * ctx.p
    return ProlongedVectorField(ctx, n, zero_xi, q.q, coeffs)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def rand_field(rng, p, q):
    """A point vector field whose coefficients mix polynomials, elementary
    functions and derivatives of one unknown function of all the order-0
    coordinates."""
    indep, dep = tuple("xyz"[:p]), tuple("uvw"[:q])
    ctx = ls.Context(indep, dep, (), (("F", indep + dep),))
    atoms = [Var(i + 1) for i in range(p)] + [Jet(a + 1, ()) for a in range(q)]
    atoms += [ctx.ufunc("F"), ctx.ufunc("F", indep[0]), ctx.ufunc("F", dep[0])]

    def coeff():
        if rng.random() < 0.5:
            return rand_poly(rng, atoms, degree=2, terms=2)
        return rand_expr(rng, atoms, depth=2)

    return VectorField(ctx, tuple(coeff() for _ in range(p)),
                       tuple(coeff() for _ in range(q)))


def nonzero_base(e):
    return add(e, 1) if isinstance(e, Const) else e


def repeated_tree(rng, atoms):
    """A tree in which one random subtree occurs several times, some of its
    copies built separately (equal, not identical)."""
    s = rand_expr(rng, atoms, depth=3)
    s2 = ls.normalize(s)            # rebuilt through the constructors
    r = rand_expr(rng, atoms, depth=2)
    parts = [mul(s, r), func(rng.choice(("exp", "sin", "cos")), s2),
             pow_(nonzero_base(add(s2, r)), rng.choice((2, -1, Fraction(1, 2)))),
             mul(rand_expr(rng, atoms, depth=1), pow_(nonzero_base(s), 3))]
    rng.shuffle(parts)
    return add(*parts[:rng.randint(2, 4)])


def same(a, b):
    """Node-for-node equality of two results, dict order included."""
    if isinstance(a, dict):
        return list(a.items()) == list(b.items())
    return a == b


class TestPartialsAgainstReference:
    ATOMS = [x, t, u, ux, Jet(1, (2,)), Param("c"),
             UFunc("F", (x, t, u)), UFunc("F", (x, t, u), (2,))]

    def test_repeated_subtrees(self, rng):
        for _ in range(150):
            e = repeated_tree(rng, self.ATOMS)
            assert same(ls.partials(e), ref_partials(e))
            for v in (x, u, ux, Param("c")):
                assert ls.diff(e, v) == ref_partials(e).get(v, ZERO)

    def test_total_derivative_multi(self, rng):
        for _ in range(60):
            e = repeated_tree(rng, self.ATOMS)
            idx = tuple(rng.choice((1, 2)) for _ in range(rng.randint(1, 3)))
            assert ls.total_derivative_multi(e, idx) == ref_total_derivative_multi(e, idx)


class TestReturnedDictIsTheCallers:
    def test_mutation_does_not_leak(self):
        s = add(x, mul(u, ux))
        e = mul(s, func("sin", ls.normalize(s)), pow_(add(s, 1), 2))
        first = ls.partials(e)
        expect = dict(first)
        for v in first:
            first[v] = ZERO
        first[t] = ONE
        assert same(ls.partials(e), expect)
        assert ls.diff(e, x) == expect[x]
        assert same(ls.partials(s), ref_partials(s))
        atom = ls.partials(x)
        atom[x] = ZERO
        assert ls.partials(x) == {x: ONE}
        assert ls.total_derivative(e, 1) == ref_total_derivative(e, 1)


class TestProlongationsAgainstReference:
    def check(self, v, n):
        ch = ls.characteristic_of(v)
        got, ref = ls.evolutionary_prolong(ch, n), ref_evolutionary_prolong(ch, n)
        assert got == ref and same(got.coeffs, ref.coeffs)
        got, ref = ls.prolong_recursive(v, n), ref_prolong_recursive(v, n)
        assert got == ref and same(got.coeffs, ref.coeffs)

    def test_random_fields(self, rng):
        seen = set()
        for _ in range(24):
            p = rng.randint(1, 3)
            n = rng.randint(1, 4 if p < 3 else 3)
            q = rng.randint(1, 2 if n <= 2 else 1)
            seen.add((p, n))
            self.check(rand_field(rng, p, q), n)
        assert {p for p, _ in seen} == {1, 2, 3}
        assert {n for _, n in seen} == {1, 2, 3, 4}

    def test_fourth_order_in_three_variables(self, rng):
        ctx = ls.Context(("x", "y", "z"), ("u", "v"))
        for _ in range(2):
            self.check(rand_point_vf(rng, ctx, degree=2), 4)
