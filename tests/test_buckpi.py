"""Dimensional analysis: kernel exponents and dimensionless power products."""
from fractions import Fraction

import pytest

import liesym as ls
from liesym import DimensionalModel, RatMatrix, pi_basis, power_products
from liesym.ratla import in_span

from conftest import rand_rational

BLAST = DimensionalModel(
    RatMatrix.from_rows([
        [2, 0, -3, -1, 1],
        [1, 0, 1, 1, 0],
        [-2, 1, 0, -2, 0],
    ]),
    ("M", "L", "T"),
    ("E", "t", "rho0", "P0", "R"),
)


class TestPiBasis:
    def test_rank_and_count(self):
        basis = pi_basis(BLAST)
        assert basis.s == 3
        assert basis.b.cols == 2 and basis.b.rows == 5

    def test_annihilated(self):
        basis = pi_basis(BLAST)
        for k in range(basis.b.cols):
            col = [basis.b[j, k] for j in range(basis.b.rows)]
            assert not any(BLAST.a.matvec(col))

    def test_known_products_in_span(self):
        basis = pi_basis(BLAST)
        cols = [[basis.b[j, k] for j in range(5)] for k in range(2)]
        assert in_span(cols, [-2, 6, -3, 5, 0])
        assert in_span(cols, [-1, -2, 1, 0, 5])

    def test_full_rank_square(self):
        model = DimensionalModel(RatMatrix.identity(3),
                                 ("M", "L", "T"), ("a", "b", "c"))
        basis = pi_basis(model)
        assert basis.s == 3 and basis.b.cols == 0

    def test_zero_matrix(self):
        model = DimensionalModel(RatMatrix.zero(2, 3),
                                 ("M", "L"), ("a", "b", "c"))
        basis = pi_basis(model)
        assert basis.s == 0 and basis.b.cols == 3


class TestPowerProducts:
    def test_blast_wave_product(self):
        basis = ls.PiBasis(
            RatMatrix.from_rows([[-2], [6], [-3], [5], [0]]), 3)
        got = power_products(basis, BLAST.derived_names)
        assert got == ["P0^5 · t^6 · E^-2 · rho0^-3"]

    def test_trivial_column(self):
        basis = ls.PiBasis(RatMatrix.zero(3, 1), 2)
        assert power_products(basis, ("a", "b", "c")) == ["1"]

    def test_unit_exponent_kept(self):
        basis = ls.PiBasis(RatMatrix.from_rows([[1], [0]]), 1)
        assert power_products(basis, ("E", "t")) == ["E^1"]

    def test_fractional_exponent_parenthesized(self):
        basis = ls.PiBasis(
            RatMatrix.from_rows([[Fraction(1, 2)], [-1]]), 1)
        assert power_products(basis, ("E", "t")) == ["E^(1/2) · t^-1"]

    def test_name_count_mismatch(self):
        with pytest.raises(ls.ArityError):
            power_products(pi_basis(BLAST), ("a", "b"))


class TestPiKernelThroughMatvec:
    def test_examples(self):
        assert not any(BLAST.a.matvec([-2, 6, -3, 5, 0]))
        assert any(BLAST.a.matvec([1, 0, 0, 0, 0]))

    def test_random_kernel_members(self, rng):
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            a = RatMatrix.from_rows(
                [[rand_rational(rng) for _ in range(cols)]
                 for _ in range(rows)])
            model = DimensionalModel(
                a, tuple(f"f{i}" for i in range(rows)),
                tuple(f"d{j}" for j in range(cols)))
            basis = pi_basis(model)
            assert basis.b.cols == cols - basis.s
            for k in range(basis.b.cols):
                col = [basis.b[j, k] for j in range(basis.b.rows)]
                assert not any(model.a.matvec(col))
