"""Exact rational linear algebra: RREF, rank, kernel bases, solving.

``RatMatrix`` stores its entries densely, but every elimination runs on
sparse rows (``{column: Fraction}`` dicts), so its cost follows the nonzeros
rather than rows x columns.  The determining matrices of the polynomial-ansatz
solve are well under 1 % dense.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ArityError

# The zero entry of every matrix built by ``from_sparse``: rows are read back
# by skipping it by identity, without a Fraction comparison per entry.
_ZERO = Fraction(0)


@dataclass(frozen=True)
class RatMatrix:
    rows: int
    cols: int
    entries: tuple[Fraction, ...]  # row-major, length rows*cols

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ArityError(
                f"matrix {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ArityError("ragged rows")
        return RatMatrix(r, c, tuple(Fraction(x) for row in rows for x in row))

    @staticmethod
    def from_sparse(rows: Sequence[Mapping[int, Fraction]], cols: int) -> "RatMatrix":
        """Matrix whose row i holds ``rows[i][j]`` in column j, zero elsewhere;
        the values must already be Fractions."""
        entries = [_ZERO] * (len(rows) * cols)
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not 0 <= j < cols:
                    raise ArityError(f"column {j} outside a {cols}-column matrix")
                entries[i * cols + j] = x
        return RatMatrix(len(rows), cols, tuple(entries))

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix.from_rows(
            [[self[i, j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def matvec(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.cols:
            raise ArityError(f"vector length {len(v)} does not match {self.cols} columns")
        vv = [Fraction(x) for x in v]
        return [
            sum((self[i, j] * vv[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        ]


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


def _sparse_rows(m: RatMatrix) -> list[dict[int, Fraction]]:
    return [
        {j: x for j, x in enumerate(m.row(i)) if x is not _ZERO and x}
        for i in range(m.rows)
    ]


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form with the list of pivot columns."""
    reduced = _reduce_rows(_sparse_rows(m))
    order = sorted(reduced)
    rows = [reduced[p] for p in order] + [{}] * (m.rows - len(order))
    return RatMatrix.from_sparse(rows, m.cols), tuple(order)


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column.

    Free coordinates follow the canonical RREF unit pattern, so the output is
    deterministic and directly comparable in golden tests.
    """
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i, f]
        basis.append(v)
    return basis


def solve(m: RatMatrix, b: Sequence) -> list[Fraction] | None:
    """One solution of M x = b, or None if inconsistent."""
    if len(b) != m.rows:
        raise ArityError(f"rhs length {len(b)} does not match {m.rows} rows")
    aug = _sparse_rows(m)
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
