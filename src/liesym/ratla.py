"""Exact rational linear algebra: RREF, rank, kernel bases, solving.

``RatMatrix`` stores only its nonzeros, one sorted tuple of
``(column, Fraction)`` pairs per row, and every elimination runs on those
rows as ``{column: Fraction}`` dicts, so cost follows the nonzeros rather than
rows x columns.  The determining matrices of the polynomial-ansatz solve are
well under 1 % dense.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ArityError


@dataclass(frozen=True)
class RatMatrix:
    """Exact rational matrix in sparse rows.

    ``data`` holds one tuple per row of ``(column, value)`` pairs, sorted by
    column, with zeros omitted; the constructors keep it in that form, so
    equal matrices compare and hash equal.
    """

    rows: int
    cols: int
    data: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ArityError(f"matrix of {self.rows} rows given {len(self.data)}")
        for i, row in enumerate(self.data):
            if row and not 0 <= row[0][0] <= row[-1][0] < self.cols:
                raise ArityError(f"row {i} has a column outside a {self.cols}-column matrix")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ArityError("ragged rows")
        return RatMatrix.from_sparse(
            [dict(enumerate(map(Fraction, row))) for row in rows], c
        )

    @staticmethod
    def from_sparse(rows: Sequence[Mapping[int, Fraction]], cols: int) -> "RatMatrix":
        """Matrix whose row i holds ``rows[i][j]`` in column j, zero elsewhere;
        the values must already be Fractions, and zero values are dropped."""
        return RatMatrix(len(rows), cols, tuple(
            tuple(sorted((j, x) for j, x in row.items() if x)) for row in rows
        ))

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, tuple(((i, Fraction(1)),) for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return dict(self.data[i]).get(j, Fraction(0))

    def row(self, i: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.cols
        for j, x in self.data[i]:
            out[j] = x
        return tuple(out)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        cols: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row:
                cols[j].append((i, x))
        return RatMatrix(self.cols, self.rows, tuple(map(tuple, cols)))

    def matvec(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.cols:
            raise ArityError(f"vector length {len(v)} does not match {self.cols} columns")
        vv = [Fraction(x) for x in v]
        return [sum((x * vv[j] for j, x in row), Fraction(0)) for row in self.data]


def _subtract(dst: dict[int, Fraction], f: Fraction,
              src: Mapping[int, Fraction], skip: int) -> None:
    """dst -= f * src on every column but ``skip``, dropping zeros."""
    for c, v in src.items():
        if c != skip:
            x = dst.get(c, 0) - f * v
            if x:
                dst[c] = x
            else:
                del dst[c]


def _reduce_rows(rows: Iterable[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Sparse Gauss-Jordan elimination: the nonzero rows of the RREF, keyed by
    their pivot column.  ``rows`` hold no zero entries and are consumed.

    Each incoming row is reduced against the pivot rows found so far; a
    nonzero remainder is scaled so its leading entry is 1 and becomes a pivot
    row, after which its pivot column is cleared from the earlier pivot rows.
    Pivot rows therefore stay fully reduced against one another, and sorted by
    pivot column they form the (unique) reduced row echelon form.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for r in rows:
        for p in [c for c in r if c in pivots]:
            _subtract(r, r.pop(p), pivots[p], p)
        if not r:
            continue
        p = min(r)
        inv = 1 / r[p]
        r = {c: v * inv for c, v in r.items()}
        for q in pivots.values():
            f = q.pop(p, None)
            if f is not None:
                _subtract(q, f, r, p)
        pivots[p] = r
    return pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form with the list of pivot columns."""
    reduced = _reduce_rows(map(dict, m.data))
    order = sorted(reduced)
    rows = [reduced[p] for p in order] + [{}] * (m.rows - len(order))
    return RatMatrix.from_sparse(rows, m.cols), tuple(order)


def rank(m: RatMatrix) -> int:
    return len(_reduce_rows(map(dict, m.data)))


def kernel_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column.

    Free coordinates follow the canonical RREF unit pattern, so the output is
    deterministic and directly comparable in golden tests.  A pivot row's
    first pair is its pivot; every later pair lies in a free column.
    """
    r, pivots = rref(m)
    pivot_set = set(pivots)
    basis = {f: [Fraction(0)] * m.cols for f in range(m.cols) if f not in pivot_set}
    for f, v in basis.items():
        v[f] = Fraction(1)
    for p, row in zip(pivots, r.data):
        for f, x in row[1:]:
            basis[f][p] = -x
    return list(basis.values())


def solve(m: RatMatrix, b: Sequence) -> list[Fraction] | None:
    """One solution of M x = b, or None if inconsistent."""
    if len(b) != m.rows:
        raise ArityError(f"rhs length {len(b)} does not match {m.rows} rows")
    aug = list(map(dict, m.data))
    for row, bi in zip(aug, b):
        bi = Fraction(bi)
        if bi:
            row[m.cols] = bi
    reduced = _reduce_rows(aug)
    if m.cols in reduced:
        return None
    x = [Fraction(0)] * m.cols
    for p, row in reduced.items():
        x[p] = row.get(m.cols, Fraction(0))
    return x


def in_span(vectors: list[Sequence], target: Sequence) -> bool:
    """Exact span-membership test via a rational solve."""
    if not vectors:
        return all(Fraction(t) == 0 for t in target)
    cols = len(vectors)
    rows = len(target)
    if any(len(v) != rows for v in vectors):
        raise ArityError("vector length mismatch")
    m = RatMatrix.from_rows(
        [[vectors[j][i] for j in range(cols)] for i in range(rows)]
    )
    return solve(m, target) is not None
