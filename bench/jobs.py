"""Workloads of the liesym benchmark: job lists, seeded inputs and oracles.

A workload is built once per set-up from the problem files in
``bench/problems`` and the workload seed.  A pass runs its jobs in order in
one thread, each job starting when the previous one returns (a closed loop
with one client).  Every job returns a value and a canonical text.  The
SHA-256 of the text is compared with the digest recorded in
``bench/manifest.json``; a job whose input depends on the seed has no
recorded digest and is checked by its oracle and by repeating exactly
across passes instead.

Jobs call the library through attribute lookups on ``liesym`` and its
modules at call time, so the traced run sees every call through the
wrappers it installs.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Relative to the checkout root: the CLI echoes the path in its report, so
# an absolute path would make the digests depend on where the checkout is.
PROBLEMS = "bench/problems"


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]    # receives the values of earlier jobs of the pass
    text: Callable[[object], str]    # canonical output, hashed for the digest
    oracle: Callable[[object, dict], bool] | None = None
    seeded: bool = False             # input depends on --seed: no recorded digest
    cli: bool = False                # value is the CLI's JSON report


@dataclass
class Workload:
    jobs: list[Job]
    probe: str                       # job rerun under two PYTHONHASHSEED values


def read_problem(name: str):
    import liesym as ls
    with open(f"{PROBLEMS}/{name}", encoding="utf-8") as fh:
        return ls.parse_problem(fh.read())


def cli_job(name: str, argv: list[str], oracle=None) -> Job:
    import liesym.cli as cli

    def run(_vals):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"liesym {argv[0]} exited with status {status}")
        return buf.getvalue()

    return Job(name, run, lambda out: out, oracle, cli=True)


def expr_text(ctx) -> Callable[[object], str]:
    import liesym as ls

    def text(value) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, ls.ProlongedVectorField):
            keys = sorted(value.coeffs, key=lambda j: (j.dep, len(j.idx), j.idx))
            return "\n".join(f"{ls.format_expr(j, ctx)}: "
                             f"{ls.format_expr(value.coeffs[j], ctx)}"
                             for j in keys)
        if isinstance(value, ls.ConservedCurrent):
            value = value.f
        if isinstance(value, (list, tuple)):
            return "\n".join(ls.format_expr(e, ctx) for e in value)
        return ls.format_expr(value, ctx)

    return text


def expect(wanted: bool):
    return lambda value, _vals: value is wanted


class Point(dict):
    """A seeded rational point: atoms get values on first use."""

    def __init__(self, rng: random.Random, fixed=None):
        super().__init__(fixed or {})
        self.rng = rng

    def __missing__(self, atom):
        v = Fraction(self.rng.choice([-1, 1]) * self.rng.randint(1, 9),
                     self.rng.randint(1, 5))
        self[atom] = v
        return v


# --------------------------------------------------------------------------
# symalg: `liesym solve` on five classical equations at ansatz degree 2..4
# --------------------------------------------------------------------------

SYMALG_EQUATIONS = ("heat", "burgers", "kdv", "wave", "heat2d")
SYMALG_DEGREES = (2, 3, 4)


def symalg_dimension(eq: str, d: int) -> int:
    """Dimension of the polynomial part of the classical symmetry algebra
    (Olver, Applications of Lie Groups to Differential Equations, ch. 2) that
    fits a total-degree-d ansatz.  The linear equations add the polynomial
    solutions of degree <= d (superposition); the heat equations' projective
    generator needs degree 3."""
    return {
        "heat": 6 - (d < 3) + (d + 1),
        "burgers": 5,
        "kdv": 4,
        "wave": 4 * d + 4,
        "heat2d": 9 - (d < 3) + (d + 1) * (d + 2) // 2,
    }[eq]


def symalg(seed: int) -> Workload:
    import json

    jobs = []
    for eq in SYMALG_EQUATIONS:
        read_problem(f"{eq}.prob")
        for d in SYMALG_DEGREES:
            dim = symalg_dimension(eq, d)
            jobs.append(cli_job(
                f"solve.{eq}.d{d}",
                ["solve", "--file", f"{PROBLEMS}/{eq}.prob", "--system", eq,
                 "--degree", str(d)],
                lambda out, _v, dim=dim:
                    json.loads(out)["result"]["dimension"] == dim))
    return Workload(jobs, probe="solve.heat.d2")


# --------------------------------------------------------------------------
# prolong: prolongation alone, no linear algebra and no zero testing
# --------------------------------------------------------------------------

PROLONG_CLI_ORDERS = (2, 3, 4, 5)
GENERIC1_ORDER = 6
RANDOM_FIELDS = 4
RANDOM_ORDER = 3
POINTS = 2


def random_cubic(ls, rng: random.Random, xs, u):
    """A seeded cubic polynomial with one monomial of each degree 0..3 and
    small rational coefficients.  The monomials of degree 2 and 3 hold one
    factor u and the rest are drawn from the independent variables ``xs``:
    this fixed shape keeps the cost of a field close to the same from seed to
    seed, while the variables and coefficients vary."""
    parts = []
    for degree in range(4):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 3))
        factors = [u] if degree >= 2 else []
        factors += [rng.choice(xs) for _ in range(degree - len(factors))]
        parts.append(ls.mul(c, *factors))
    return ls.add(*parts)


def prolongations_agree(ls, v, names: tuple[str, str, str], seed_text: str):
    """Oracle: prolong, prolong_recursive and evolutionary_prolong plus the
    horizontal part sum_i xi^i u_{J,i} take equal exact values at seeded
    rational points (Schwartz-Zippel: the coefficients are polynomials)."""

    def oracle(_value, vals) -> bool:
        closed, recursive, evolutionary = (vals[k] for k in names)
        if not set(closed.coeffs) == set(recursive.coeffs) == \
                set(evolutionary.coeffs):
            return False
        rng = random.Random(seed_text)
        for _ in range(POINTS):
            pt = Point(rng)
            xi = [ls.evaluate(e, pt) for e in v.xi]
            for j, e in closed.coeffs.items():
                horizontal = sum(
                    (xi[i] * pt[ls.Jet(j.dep, j.idx + (i + 1,))]
                     for i in range(len(xi))), Fraction(0))
                a = ls.evaluate(e, pt)
                if a != ls.evaluate(recursive.coeffs[j], pt) or \
                        a != ls.evaluate(evolutionary.coeffs[j], pt) + horizontal:
                    return False
        return True

    return oracle


def prolong_triple(ls, label: str, v, n: int, seed_text: str,
                   seeded: bool) -> list[Job]:
    names = (f"{label}.prolong", f"{label}.prolong_recursive",
             f"{label}.evolutionary_prolong")
    text = expr_text(v.ctx)
    oracle = prolongations_agree(ls, v, names, seed_text)
    return [
        Job(names[0], lambda _v: ls.prolong(v, n), text, seeded=seeded),
        Job(names[1], lambda _v: ls.prolong_recursive(v, n), text,
            seeded=seeded),
        Job(names[2],
            lambda _v: ls.evolutionary_prolong(ls.characteristic_of(v), n),
            text, oracle, seeded=seeded),
    ]


def rotation_oracle(ls, seed_text: str):
    """Oracle: the hand-written second prolongation of the rotation
    -u d/dx + x d/du, phi^x = 1 + u_x^2 and phi^xx = 3 u_x u_xx."""
    ux, uxx = ls.Jet(1, (1,)), ls.Jet(1, (1, 1))

    def oracle(pv, _vals) -> bool:
        if set(pv.coeffs) != {ux, uxx}:
            return False
        rng = random.Random(seed_text)
        for _ in range(POINTS):
            pt = Point(rng)
            if ls.evaluate(pv.coeffs[ux], pt) != 1 + pt[ux] ** 2:
                return False
            if ls.evaluate(pv.coeffs[uxx], pt) != 3 * pt[ux] * pt[uxx]:
                return False
        return True

    return oracle


def prolong(seed: int) -> Workload:
    import liesym as ls

    read_problem("generic.prob")
    jobs = [
        cli_job(f"cli.generic2.order{n}",
                ["prolong", "--file", f"{PROBLEMS}/generic.prob", "--vf",
                 "generic", "--order", str(n)])
        for n in PROLONG_CLI_ORDERS
    ]

    g1 = read_problem("generic1.prob")
    jobs += prolong_triple(ls, f"generic1.order{GENERIC1_ORDER}",
                           g1.vfields["generic"], GENERIC1_ORDER,
                           f"points:generic1:{seed}", seeded=False)

    curve = read_problem("curve.prob")
    rot = curve.vfields["rot"]
    jobs.append(Job("rotation.order2", lambda _v: ls.prolong(rot, 2),
                    expr_text(curve.ctx),
                    rotation_oracle(ls, f"points:rotation:{seed}")))

    rng = random.Random(f"fields:{seed}")
    ctx3 = ls.Context(("x", "y", "z"), ("u",))
    xs, u = [ls.Var(1), ls.Var(2), ls.Var(3)], ls.Jet(1, ())
    for k in range(RANDOM_FIELDS):
        v = ls.VectorField(ctx3,
                           tuple(random_cubic(ls, rng, xs, u) for _ in range(3)),
                           (random_cubic(ls, rng, xs, u),))
        jobs += prolong_triple(ls, f"cubic{k}.order{RANDOM_ORDER}", v,
                               RANDOM_ORDER, f"points:cubic{k}:{seed}",
                               seeded=True)
    return Workload(jobs, probe="cli.generic2.order3")


# --------------------------------------------------------------------------
# identities: exact zero testing on rational functions
# --------------------------------------------------------------------------

MECHANICS = (("harmonic", "elharmonic"), ("kepler", "elkepler"))
GENERATORS = ("time", "rxy", "ryz", "rzx")
# Pythagorean quadruples: the Kepler potential needs a rational radius.
QUADRUPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (2, 6, 9, 11),
              (4, 4, 7, 9), (2, 10, 11, 15))


def newton_oracle(ls, system, seed_text: str):
    """Oracle: E_a(L) = m (rhs_a - lead_a) for the hand-written Newton
    equations lead_a = rhs_a, at seeded rational points with rational
    radius."""
    m = ls.Param("m")

    def oracle(eqs, _vals) -> bool:
        rng = random.Random(seed_text)
        for _ in range(POINTS):
            *xyz, _r = rng.choice(QUADRUPLES)
            s = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            signs = [rng.choice([-1, 1]) for _ in xyz]
            pt = Point(rng, {ls.Jet(a + 1, ()): s * c * xyz[a]
                             for a, c in enumerate(signs)})
            for e, (lead, rhs) in zip(eqs, system.equations):
                if ls.evaluate(e, pt) != \
                        pt[m] * (ls.evaluate(rhs, pt) - pt[lead]):
                    return False
        return len(eqs) == len(system.equations)

    return oracle


def identities(seed: int) -> Workload:
    import liesym as ls

    jobs: list[Job] = []

    # SO(2) differential-invariant ladder on curves u(x)
    curve = read_problem("curve.prob")
    ctx, rot = curve.ctx, curve.vfields["rot"]
    text = expr_text(ctx)
    eta = ls.parse_expr("(x^2 + u^2)^(1/2)", ctx)
    w = ls.parse_expr("(x*u_x - u)/(x + u*u_x)", ctx)
    x = ls.Var(1)
    jobs += [
        Job("invariant.next2", lambda _v: ls.next_invariant(eta, w), text),
        Job("invariant.next3",
            lambda v: ls.next_invariant(eta, v["invariant.next2"]), text),
        Job("invariant.next4",
            lambda v: ls.next_invariant(eta, v["invariant.next3"]), text),
        Job("invariant.check1",
            lambda _v: ls.differential_invariant_check(rot, 1, w), text,
            expect(True)),
        Job("invariant.check2",
            lambda v: ls.differential_invariant_check(
                rot, 2, v["invariant.next2"]), text, expect(True)),
        Job("invariant.check3",
            lambda v: ls.differential_invariant_check(
                rot, 3, v["invariant.next3"]), text, expect(True)),
        Job("invariant.check3.perturbed",
            lambda v: ls.differential_invariant_check(
                rot, 3, ls.add(v["invariant.next3"], x)), text,
            expect(False)),
    ]

    # Euler-Lagrange, Noether currents and their identities
    mech = read_problem("mechanics.prob")
    ctx = mech.ctx
    text = expr_text(ctx)
    for lname, sname in MECHANICS:
        lag = ls.Lagrangian(ctx, mech.lagrangians[lname])
        system = mech.systems[sname]
        jobs.append(Job(f"{lname}.euler_lagrange",
                        lambda _v, lag=lag: ls.euler_lagrange(lag), text,
                        newton_oracle(ls, system, f"points:{lname}:{seed}")))
        for g in GENERATORS:
            v = mech.vfields[g]
            cur = f"{lname}.{g}.current"
            jobs += [
                Job(cur, lambda _v, v=v, lag=lag:
                    ls.noether_current_first_order(v, lag), text),
                Job(f"{lname}.{g}.noether_identity",
                    lambda vals, v=v, lag=lag, cur=cur:
                        ls.verify_noether_identity(
                            vals[cur], negated_characteristic(ls, v), lag),
                    text, expect(True)),
                Job(f"{lname}.{g}.on_shell",
                    lambda vals, system=system, cur=cur:
                        ls.is_conservation_law(vals[cur], system),
                    text, expect(True)),
            ]
        jobs.append(Job(
            f"{lname}.rxy.noether_identity.wrong_sign",
            lambda vals, lag=lag, lname=lname: ls.verify_noether_identity(
                vals[f"{lname}.rxy.current"],
                ls.characteristic_of(mech.vfields["rxy"]), lag),
            text, expect(False)))

    # Euclidean and scaling symmetries of the minimal-surface equation
    minimal = read_problem("minimal.prob")
    system = minimal.systems["minimal"]
    for g, v in minimal.vfields.items():
        jobs.append(Job(f"minimal.{g}.check_symmetry",
                        lambda _v, v=v: ls.check_symmetry(v, system),
                        str, expect(g != "stretchx")))
    return Workload(jobs, probe="invariant.next3")


def negated_characteristic(ls, v):
    """The first-order current satisfies Div F = (-Q) . E(L) (liesym.varcalc)."""
    q = ls.characteristic_of(v)
    return ls.Characteristic(v.ctx, tuple(ls.neg(e) for e in q.q))


WORKLOADS = {"symalg": symalg, "prolong": prolong, "identities": identities}
