"""Exact rational linear algebra: RREF, rank, kernel bases."""
from fractions import Fraction

import pytest

from liesym import ArityError, RatMatrix, kernel_basis, rank, rref
from liesym.ratla import _kernel, in_span, solve

from conftest import jumbled, rand_rational

TAYLOR = RatMatrix.from_rows([
    [2, 0, -3, -1, 1],
    [1, 0, 1, 1, 0],
    [-2, 1, 0, -2, 0],
])


def dense_rref(rows, ncols):
    """Dense Gauss-Jordan elimination: the reference the sparse RREF must
    reproduce exactly (the reduced row echelon form is unique)."""
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def dense_kernel(a, pivots, ncols):
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -a[i][f]
        basis.append(v)
    return basis


def rand_sparse_rows(rng, rows, cols, density):
    """Random rows at the given density, with a zero row, an exact duplicate
    and a scaled duplicate planted when there are enough rows."""
    a = [[Fraction(0)] * cols for _ in range(rows)]
    for _ in range(max(1, round(density * rows * cols))):
        x = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        a[rng.randrange(rows)][rng.randrange(cols)] = x
    if rows >= 4:
        a[rng.randrange(rows)] = [Fraction(0)] * cols
        a[rng.randrange(rows)] = list(a[rng.randrange(rows)])
        k = Fraction(rng.choice([-2, 3]), rng.choice([1, 5]))
        a[rng.randrange(rows)] = [k * x for x in a[rng.randrange(rows)]]
    return a


def rand_matrix(rng, rows, cols):
    return RatMatrix.from_rows(
        [[rand_rational(rng) for _ in range(cols)] for _ in range(rows)]
    )


class TestRref:
    def test_identity_fixed(self):
        m = RatMatrix.identity(4)
        r, piv = rref(m)
        assert r == m and piv == (0, 1, 2, 3)

    def test_zero_fixed(self):
        m = RatMatrix.zero(3, 2)
        r, piv = rref(m)
        assert r == m and piv == ()

    def test_taylor_pivots(self):
        _, piv = rref(TAYLOR)
        assert len(piv) == 3

    def test_idempotent(self, rng):
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            r, piv = rref(m)
            r2, piv2 = rref(r)
            assert r2 == r and piv2 == piv


class TestRank:
    def test_examples(self):
        assert rank(TAYLOR) == 3
        assert rank(RatMatrix.zero(2, 3)) == 0
        assert rank(RatMatrix.identity(5)) == 5

    def test_rank_of_transpose(self, rng):
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rank(m) == rank(m.transpose())


class TestKernel:
    def test_taylor_kernel(self):
        basis = kernel_basis(TAYLOR)
        assert len(basis) == 2
        for b in basis:
            assert all(v == 0 for v in TAYLOR.matvec(b))
        assert in_span(basis, [-2, 6, -3, 5, 0])
        assert in_span(basis, [-1, -2, 1, 0, 5])

    def test_identity_kernel_empty(self):
        assert kernel_basis(RatMatrix.identity(3)) == []

    def test_row_vector(self):
        basis = kernel_basis(RatMatrix.from_rows([[1, 1]]))
        assert basis == [[Fraction(-1), Fraction(1)]]

    def test_dimension_and_exactness(self, rng):
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            basis = kernel_basis(m)
            assert len(basis) == m.cols - rank(m)
            for b in basis:
                assert all(v == 0 for v in m.matvec(b))


class TestSparseAgainstDense:
    @pytest.mark.parametrize("rows,cols", [(60, 25), (25, 60), (40, 40), (1, 30), (30, 1)])
    @pytest.mark.parametrize("density", [0.01, 0.03, 0.05])
    def test_matches_reference(self, rng, rows, cols, density):
        for _ in range(3):
            a = rand_sparse_rows(rng, rows, cols, density)
            m = RatMatrix.from_rows(a)
            ref, ref_piv = dense_rref(a, cols)
            r, piv = rref(m)
            assert piv == tuple(ref_piv)
            assert r == RatMatrix.from_rows(ref)
            # rref builds its result unchecked; the constructor's checks pass
            assert type(r) is RatMatrix and RatMatrix(r.rows, r.cols, r.data) == r
            basis = kernel_basis(m)
            assert basis == dense_kernel(ref, ref_piv, cols)
            assert rank(m) + len(basis) == cols
            for v in basis:
                assert all(x == 0 for x in m.matvec(v))


    @pytest.mark.parametrize("rows,cols", [(60, 25), (25, 60), (40, 40), (1, 30), (30, 1)])
    @pytest.mark.parametrize("density", [0.01, 0.03, 0.05])
    def test_dense_views(self, rng, rows, cols, density):
        """The same seeded cases as test_matches_reference: every dense view
        of the sparse rows agrees with the lists the matrix was built from."""
        for _ in range(3):
            a = rand_sparse_rows(rng, rows, cols, density)
            m = RatMatrix.from_rows(a)
            assert m.to_rows() == a
            assert all(m[i, j] == a[i][j] for i in range(rows) for j in range(cols))
            assert m.transpose().to_rows() == [list(c) for c in zip(*a)]
            v = [Fraction(j + 1, 2) for j in range(cols)]
            assert m.matvec(v) == [sum(x * y for x, y in zip(r, v)) for r in a]
            ref, _ = dense_rref(a, cols)
            assert rref(m)[0].to_rows() == ref


def check_against_dense(a, cols):
    """rref, pivots, kernel and rank of the rows ``a`` all agree with the
    dense reference, and every RREF entry is a Fraction."""
    m = RatMatrix.from_rows(a)
    ref, ref_piv = dense_rref(a, cols)
    r, piv = rref(m)
    assert piv == tuple(ref_piv)
    assert r == RatMatrix.from_rows(ref)
    assert all(type(x) is Fraction for row in r.data for _, x in row)
    assert kernel_basis(m) == dense_kernel(ref, ref_piv, cols)
    assert rank(m) == len(ref_piv)


def chain(n, square):
    """Bidiagonal rows ``x_i - x_{i+1}``: n rows over n + 1 columns, or,
    when ``square``, n columns with the last row the singleton ``x_{n-1}``."""
    one = Fraction(1)
    rows = [((i, one), (i + 1, -one)) for i in range(n - square)]
    if square:
        rows.append(((n - 1, one),))
    return RatMatrix(n, n + (not square), tuple(rows))


class TestFractionFreeCore:
    """Cases aimed at the integer core: the singleton presolve, clearing
    denominators, the sign and scale of rows, and large integers."""

    def test_singleton_cascade(self, rng):
        # a shuffled chain e_0, e_0 + e_1, ..., each link a singleton once
        # the link before it is a pivot, among random rows over all columns
        cols = 20
        for _ in range(15):
            a = rand_sparse_rows(rng, 12, cols, 0.08)
            links = rng.sample(range(cols), 8)
            for prev, col in zip([None] + links, links):
                row = [Fraction(0)] * cols
                row[col] = Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 4]))
                if prev is not None:
                    row[prev] = Fraction(rng.choice([-1, 7]))
                a.append(row)
            rng.shuffle(a)
            check_against_dense(a, cols)

    def test_mixed_denominators(self, rng):
        for _ in range(10):
            a = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12, 35]))
                  if rng.random() < 0.4 else Fraction(0) for _ in range(9)]
                 for _ in range(7)]
            check_against_dense(a, 9)

    def test_negative_leading_entries(self, rng):
        for _ in range(10):
            a = rand_sparse_rows(rng, 8, 10, 0.3)
            for row in a:
                lead = next((j for j, x in enumerate(row) if x), None)
                if lead is not None and row[lead] > 0:
                    row[lead] = -row[lead]
            check_against_dense(a, 10)

    def test_duplicates_up_to_scale_and_sign(self, rng):
        for _ in range(10):
            a = rand_sparse_rows(rng, 5, 8, 0.3)
            for row in list(a):
                k = Fraction(rng.choice([-1, -3, 7, 2]), rng.choice([1, 5, 2]))
                a.append([k * x for x in row])
            rng.shuffle(a)
            check_against_dense(a, 8)

    def test_entries_near_1e30(self, rng):
        big = 10 ** 30
        for _ in range(10):
            a = [[Fraction(big + rng.randint(-50, 50), rng.choice([1, big - 1, 3]))
                  * rng.choice([-1, 1]) if rng.random() < 0.4 else Fraction(0)
                  for _ in range(7)] for _ in range(6)]
            check_against_dense(a, 7)

    def test_presolve_alone(self):
        # a permuted triangular cascade: every pivot comes from a singleton
        rows = [[0, 0, 3, 1], [0, 0, 0, 5], [2, -1, 4, 0], [0, 7, -2, 1]]
        m = RatMatrix.from_rows(rows)
        assert rref(m) == (RatMatrix.identity(4), (0, 1, 2, 3))
        assert kernel_basis(m) == []
        sol = solve(m, [1, 2, 3, 4])
        assert m.matvec(sol) == [Fraction(k) for k in (1, 2, 3, 4)]

    def test_solve_singleton_in_augmented_column(self):
        m = RatMatrix.from_rows([[1, 2], [0, 0], [3, 6]])
        assert solve(m, [1, 5, 3]) is None
        assert solve(m, [1, 0, 3]) == [Fraction(1), Fraction(0)]

    @pytest.mark.parametrize("square", [True, False], ids=["cascade", "back-substitution"])
    def test_long_chain(self, square):
        short = chain(40, square)
        check_against_dense(short.to_rows(), short.cols)
        assert rank(chain(20000, square)) == 20000


class TestSparseKernel:
    """``_kernel``'s sparse vectors against the dense reference and their
    dense view ``kernel_basis``."""

    @staticmethod
    def check(a, cols):
        m = RatMatrix.from_rows(a) if a else RatMatrix.zero(0, cols)
        ref, ref_piv = dense_rref(a, cols)
        vectors = _kernel(m)
        dense = [[v.get(j, Fraction(0)) for j in range(cols)] for v in vectors]
        assert dense == dense_kernel(ref, ref_piv, cols) == kernel_basis(m)
        free = [c for c in range(cols) if c not in ref_piv]
        assert len(vectors) == len(free)
        for v, f in zip(vectors, free):
            keys = list(v)
            assert keys == sorted(keys)
            assert keys[-1] == f and type(v[f]) is Fraction and v[f] == 1
            assert all(x and type(x) is Fraction for x in v.values())
        return vectors

    @pytest.mark.parametrize("rows,cols", [(60, 25), (25, 60), (40, 40), (1, 30), (30, 1)])
    @pytest.mark.parametrize("density", [0.01, 0.05])
    def test_random_sparse(self, rng, rows, cols, density):
        for _ in range(3):
            self.check(rand_sparse_rows(rng, rows, cols, density), cols)

    def test_mixed_denominators(self, rng):
        for _ in range(10):
            a = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12, 35]))
                  if rng.random() < 0.4 else Fraction(0) for _ in range(9)]
                 for _ in range(7)]
            self.check(a, 9)

    def test_integral_rows(self, rng):
        # every row's denominators have lcm 1
        for _ in range(10):
            a = [[Fraction(rng.randint(-6, 6)) if rng.random() < 0.3 else Fraction(0)
                  for _ in range(12)] for _ in range(8)]
            self.check(a, 12)

    @pytest.mark.parametrize("rows,cols", [(3, 4), (0, 5), (2, 1)])
    def test_zero_matrix(self, rows, cols):
        vectors = self.check([[Fraction(0)] * cols for _ in range(rows)], cols)
        assert vectors == [{f: Fraction(1)} for f in range(cols)]

    def test_full_rank(self, rng):
        assert _kernel(RatMatrix.identity(4)) == []
        assert _kernel(TAYLOR.transpose()) == []
        for n in (1, 3, 6):
            a = [[Fraction(rng.randint(1, 5)) if i == j else
                  Fraction(rng.randint(-3, 3)) if j > i else Fraction(0)
                  for j in range(n)] for i in range(n)]
            assert self.check(a, n) == []


class TestRowOrder:
    """The kernel does not depend on the order, scale, sign or repetition of
    the rows: the solver may assemble its rows in any order."""

    @pytest.mark.parametrize("rows,cols", [(60, 25), (25, 60), (40, 40), (1, 30), (30, 1)])
    @pytest.mark.parametrize("density", [0.01, 0.05, 0.2])
    def test_random_sparse(self, rng, rows, cols, density):
        for _ in range(3):
            m = RatMatrix.from_rows(rand_sparse_rows(rng, rows, cols, density))
            want = _kernel(m)
            for _ in range(3):
                assert _kernel(jumbled(m, rng)) == want


class TestSparseFormat:
    @pytest.mark.parametrize("zero", [0, "0", Fraction(0), "0/5", 0.0],
                             ids=["int", "str", "Fraction", "ratio-str", "float"])
    def test_explicit_zeros_dropped(self, zero):
        a = RatMatrix.from_rows([[1, zero, "1/2"], [zero, zero, zero]])
        b = RatMatrix.from_sparse(
            [{0: Fraction(1), 1: Fraction(0), 2: Fraction(1, 2)}, {1: Fraction(0)}], 3)
        want = (((0, Fraction(1)), (2, Fraction(1, 2))), ())
        assert a.data == b.data == want
        assert a == b and hash(a) == hash(b)
        assert RatMatrix.from_rows([[zero] * 2] * 2) == RatMatrix.zero(2, 2)

    @pytest.mark.parametrize("value,want", [
        (2, Fraction(2)), ("3/4", Fraction(3, 4)), (0.5, Fraction(1, 2)),
        (Fraction(-1, 3), Fraction(-1, 3))], ids=["int", "str", "float", "Fraction"])
    def test_values_become_fractions(self, value, want):
        m = RatMatrix.from_sparse([{1: value, 0: "0", 2: 0.0}], 3)
        assert m.data == (((1, want),),)
        assert type(m.data[0][0][1]) is Fraction
        assert m == RatMatrix.from_rows([[0, want, 0]])

    def test_non_fraction_kernel(self):
        # a float entry used to reach the integer core unconverted
        m = RatMatrix.from_sparse([{0: 0.5, 1: 1}], 2)
        assert kernel_basis(m) == [[Fraction(-2), Fraction(1)]]
        assert RatMatrix.from_sparse([{0: 2}], 1).data == (((0, Fraction(2)),),)

    def test_rows_sorted_by_column(self):
        m = RatMatrix.from_sparse([{3: Fraction(2), 0: Fraction(-1)}], 4)
        assert m.data == (((0, Fraction(-1)), (3, Fraction(2))),)
        assert m.row(0) == (Fraction(-1), 0, 0, Fraction(2))

    @pytest.mark.parametrize("col", [-1, 3, 7])
    def test_column_outside_matrix(self, col):
        with pytest.raises(ArityError, match="column"):
            RatMatrix.from_sparse([{}, {0: Fraction(1), col: Fraction(1)}], 3)

    @pytest.mark.parametrize("data,match", [
        ((((0, 0),),), "row 0 holds a zero in column 0"),
        ((((0, Fraction(0)), (1, 1)),), "row 0 holds a zero in column 0"),
        ((((0, 1), (0, 2)),), "row 0 lists column 0 twice or out of order"),
        ((((2, 1), (0, 1)),), "row 0 lists column 0 twice or out of order"),
        ((((0, 1), (-1, 1)),), "row 0 has a column outside a 3-column matrix"),
    ], ids=["zero", "zero-fraction", "repeated", "unsorted", "unsorted-outside"])
    def test_direct_rows_must_be_sparse_and_sorted(self, data, match):
        with pytest.raises(ArityError, match=match):
            RatMatrix(1, 3, data)

    def test_direct_zeros_reach_no_elimination(self):
        # a stored zero once counted as a pivot, or divided by zero in the RREF
        with pytest.raises(ArityError, match="zero"):
            rank(RatMatrix(1, 2, (((0, 0),),)))
        with pytest.raises(ArityError, match="zero"):
            rref(RatMatrix(2, 3, (((0, 0), (1, 1)), ((0, 2), (1, 2)))))

    @pytest.mark.parametrize("value", [0.5, 1.0, "1/2", None],
                             ids=["float", "integral-float", "str", "None"])
    def test_direct_values_must_be_exact(self, value):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            RatMatrix(2, 2, (((0, 1),), ((0, 1), (1, value))))

    def test_direct_ints_and_fractions(self):
        m = RatMatrix(2, 3, (((0, 2), (2, Fraction(-1, 3))), ((1, -4),)))
        want = RatMatrix.from_rows([[2, 0, Fraction(-1, 3)], [0, -4, 0]])
        assert m == want and hash(m) == hash(want)
        assert rank(m) == 2

    def test_identity_and_zero_data(self):
        assert RatMatrix.identity(2).data == (((0, Fraction(1)),), ((1, Fraction(1)),))
        assert RatMatrix.zero(2, 5).data == ((), ())
        assert RatMatrix.identity(3) == RatMatrix.from_rows(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestSolve:
    def test_consistent(self):
        m = RatMatrix.from_rows([[1, 2], [3, 4]])
        sol = solve(m, [5, 6])
        assert sol is not None
        assert m.matvec(sol) == [Fraction(5), Fraction(6)]

    def test_inconsistent(self):
        m = RatMatrix.from_rows([[1, 1], [1, 1]])
        assert solve(m, [0, 1]) is None

    def test_shape_errors(self):
        with pytest.raises(ArityError):
            RatMatrix(2, 2, (Fraction(0),) * 3)
        with pytest.raises(ArityError):
            TAYLOR.matvec([1, 2])
