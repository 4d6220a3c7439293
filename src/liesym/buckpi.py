"""Dimensional analysis: kernel exponents and dimensionless power products."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import ratla
from .errors import ArityError
from .ratla import RatMatrix


@dataclass(frozen=True)
class DimensionalModel:
    """Exact dimension matrix: rows are fundamental units, columns derived
    quantities; entry (i, j) is the exponent of unit i in quantity j."""

    a: RatMatrix
    fundamental_names: tuple[str, ...]
    derived_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.fundamental_names) != self.a.rows:
            raise ArityError("fundamental name count does not match row count")
        if len(self.derived_names) != self.a.cols:
            raise ArityError("derived name count does not match column count")


@dataclass(frozen=True)
class PiBasis:
    """Kernel exponent vectors arranged column-wise: A*B = 0, rank(B) = m - s."""

    b: RatMatrix            # m x (m - s)
    s: int                  # rank of A


def pi_basis(model: DimensionalModel) -> PiBasis:
    kernel = ratla.kernel_basis(model.a)
    m = model.a.cols
    b = RatMatrix.from_rows([[v[j] for v in kernel] for j in range(m)])
    return PiBasis(b, s=m - len(kernel))  # rank-nullity


def _exp_str(e: Fraction) -> str:
    return f"^{e}" if e.denominator == 1 else f"^({e})"


def power_products(basis: PiBasis, names: Sequence[str]) -> list[str]:
    """One formatted monomial per basis column; positive-exponent factors
    first, each group ordered by name."""
    if len(names) != basis.b.rows:
        raise ArityError("name count does not match exponent vector length")
    out = []
    for k in range(basis.b.cols):
        col = [(names[j], basis.b[j, k]) for j in range(basis.b.rows)]
        pos = sorted((n, e) for n, e in col if e > 0)
        negv = sorted((n, e) for n, e in col if e < 0)
        factors = [n + _exp_str(e) for n, e in pos + negv]
        out.append(" · ".join(factors) if factors else "1")
    return out
