"""Exact rational linear algebra: RREF, rank, kernel bases, solving.

``RatMatrix`` stores only its nonzeros, one sorted tuple of
``(column, Fraction)`` pairs per row, so cost follows the nonzeros rather
than rows x columns; the determining matrices of the polynomial-ansatz solve
are well under 1 % dense.  Every routine runs one fraction-free elimination
core on those rows in integer arithmetic: rows are cleared to primitive
integer rows, a presolve pivots out singleton rows, the rest are eliminated
forward, and one back-substitution pass gives the RREF, whose entries become
Fractions only at the end.  Kernel vectors are read off the RREF's pivot rows
as sparse ``{column: Fraction}`` dicts (``_kernel``); ``kernel_basis`` is
their dense view.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import ArityError


@dataclass(frozen=True)
class RatMatrix:
    """Exact rational matrix in sparse rows.

    ``data`` holds one tuple per row of ``(column, value)`` pairs, sorted by
    column, with zeros omitted, so equal matrices compare and hash equal.
    The constructor refuses a zero and a repeated, unsorted or outside column
    with ``ArityError``, and a value that is not an int or a Fraction with
    ``TypeError``.  ``from_rows`` and ``from_sparse`` convert values to
    Fractions and drop zeros; a matrix built directly may also hold ints,
    which compare and hash like the equal Fractions.
    """

    rows: int
    cols: int
    data: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ArityError(f"matrix of {self.rows} rows given {len(self.data)}")
        cols = self.cols
        for i, row in enumerate(self.data):
            last = -1
            for j, x in row:
                if type(x) is not int and not isinstance(x, (int, Fraction)):
                    raise TypeError(f"row {i} holds {x!r}, not an int or a Fraction")
                if not x:
                    raise ArityError(f"row {i} holds a zero in column {j}")
                if not last < j < cols:
                    raise ArityError(f"row {i} lists column {j} twice or out of order"
                                     if 0 <= j < cols else
                                     f"row {i} has a column outside a {cols}-column matrix")
                last = j

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: tuple) -> "RatMatrix":
        """The matrix of ``data``, which is already in the constructor's
        form, without the constructor's checks."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, data=data)
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ArityError("ragged rows")
        return RatMatrix.from_sparse([dict(enumerate(row)) for row in rows], c)

    @staticmethod
    def from_sparse(rows: Sequence[Mapping[int, Fraction]], cols: int) -> "RatMatrix":
        """Matrix whose row i holds ``Fraction(rows[i][j])`` in column j, zero
        elsewhere; values that convert to zero are dropped."""
        return RatMatrix(len(rows), cols, tuple(
            tuple(sorted((j, x) for j, x in zip(row, map(Fraction, row.values())) if x))
            for row in rows
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


def _primitive(r: dict[int, int], lead: int) -> dict[int, int]:
    """``r`` divided by the gcd of its entries, signed so that ``r[lead] > 0``."""
    g = gcd(*r.values())
    if r[lead] < 0:
        g = -g
    return r if g == 1 else {c: x // g for c, x in r.items()}


def _reduce_rows(rows: Iterable[Sequence[tuple[int, int | Fraction]]]) -> dict[int, dict[int, int]]:
    """Fraction-free sparse elimination: the nonzero rows of the RREF, keyed by
    their pivot column.  Each input row is a sequence of nonzero
    ``(column, value)`` pairs sorted by column, each value an int or a
    Fraction.  Each output row holds integers whose gcd is 1; dividing it by
    its (positive) pivot entry gives the RREF row.

    Rows become primitive integer rows, and repeated rows are dropped.  A
    singleton row ``{j: v}`` makes ``j`` a pivot with row e_j, and column j
    is deleted from every row holding it, which may leave new singletons; a
    column index and a worklist touch each nonzero once.  The remaining rows
    are eliminated forward by increasing leading column, the shortest row of
    each becoming its pivot row, by cross-multiplication: ``a*r - b*q``
    with ``a/b = q[p]/r[p]`` in lowest terms.  One back-substitution pass in
    decreasing pivot order then clears every pivot column from the rows
    above it, so sorted by pivot column the rows form the (unique) reduced
    row echelon form.
    """
    unique: dict[tuple, None] = {}
    for row in rows:
        if len(row) == 1:
            unique[((row[0][0], 1),)] = None
        elif row:
            den = lcm(*[x.denominator for _, x in row])
            r = ({c: x.numerator for c, x in row} if den == 1 else
                 {c: x.numerator * (den // x.denominator) for c, x in row})
            unique[tuple(_primitive(r, row[0][0]).items())] = None
    work = [dict(t) for t in unique]

    pivots: dict[int, dict[int, int]] = {}
    singles = [r for r in work if len(r) == 1]
    if singles:
        holders: dict[int, list[dict[int, int]]] = {}
        for r in work:
            for c in r:
                holders.setdefault(c, []).append(r)
        while singles:
            r = singles.pop()
            if len(r) == 1:
                p = next(iter(r))
                pivots[p] = {p: 1}
                for s in holders[p]:
                    if p in s:
                        del s[p]
                        if len(s) == 1:
                            singles.append(s)
        work = [r for r in work if r]

    leading: dict[int, list[dict[int, int]]] = {}
    for r in work:
        lead = min(r)
        leading.setdefault(lead, []).append(_primitive(r, lead))
    heap = sorted(leading)
    while heap:
        p = heappop(heap)
        group = leading.pop(p)
        q = pivots[p] = min(group, key=len)
        for r in group:
            if r is q:
                continue
            g = gcd(q[p], r[p])
            a, b = q[p] // g, r.pop(p) // g
            if a != 1:
                r = {c: a * x for c, x in r.items()}
            for c, y in q.items():
                if c != p:
                    x = r.get(c, 0) - b * y
                    if x:
                        r[c] = x
                    else:
                        del r[c]
            if r:
                lead = min(r)
                if lead not in leading:
                    heappush(heap, lead)
                    leading[lead] = []
                leading[lead].append(_primitive(r, lead))

    for p in sorted(pivots, reverse=True):
        r = pivots[p]
        hits = [c for c in r if c != p and c in pivots]
        if not hits:
            continue
        den = lcm(*[pivots[c][c] // gcd(pivots[c][c], r[c]) for c in hits])
        out = {c: den * x for c, x in r.items() if c == p or c not in pivots}
        for c in hits:
            q = pivots[c]
            f = r[c] * den // q[c]
            for k, y in q.items():
                if k != c:
                    x = out.get(k, 0) - f * y
                    if x:
                        out[k] = x
                    else:
                        del out[k]
        pivots[p] = _primitive(out, p)
    return pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form with the list of pivot columns."""
    reduced = _reduce_rows(m.data)
    order = tuple(sorted(reduced))
    data, one = [], Fraction(1)
    for p in order:
        r = reduced[p]
        lead = r.pop(p)
        data.append(((p, one), *((c, Fraction(r[c], lead)) for c in sorted(r))))
    data += [()] * (m.rows - len(order))
    return RatMatrix._trusted(m.rows, m.cols, tuple(data)), order


def rank(m: RatMatrix) -> int:
    return len(_reduce_rows(m.data))


def _kernel(m: RatMatrix) -> list[dict[int, Fraction]]:
    """Sparse basis of the right null space: for each free column f, in
    increasing f, the vector ``{p: -x for each pivot row p holding x in
    column f, f: 1}`` with its keys in increasing order.  A pivot row's
    first pair is its pivot; every later pair lies in a free column."""
    r, pivots = rref(m)
    pivot_set = set(pivots)
    basis: dict[int, dict[int, Fraction]] = {
        f: {} for f in range(m.cols) if f not in pivot_set}
    for p, row in zip(pivots, r.data):
        for f, x in row[1:]:
            basis[f][p] = -x
    one = Fraction(1)
    for f, v in basis.items():
        v[f] = one
    return list(basis.values())


def kernel_basis(m: RatMatrix) -> list[list[Fraction]]:
    """Basis of the right null space, one vector per free column: the dense
    view of :func:`_kernel`.

    Free coordinates follow the canonical RREF unit pattern, so the output is
    deterministic and directly comparable in golden tests.
    """
    out = []
    for v in _kernel(m):
        dense = [Fraction(0)] * m.cols
        for j, x in v.items():
            dense[j] = x
        out.append(dense)
    return out


def solve(m: RatMatrix, b: Sequence) -> list[Fraction] | None:
    """One solution of M x = b, or None if inconsistent."""
    if len(b) != m.rows:
        raise ArityError(f"rhs length {len(b)} does not match {m.rows} rows")
    aug = []
    for row, bi in zip(m.data, b):
        bi = Fraction(bi)
        aug.append(row + ((m.cols, bi),) if bi else row)
    reduced = _reduce_rows(aug)
    if m.cols in reduced:
        return None
    x = [Fraction(0)] * m.cols
    for p, row in reduced.items():
        x[p] = Fraction(row.get(m.cols, 0), row[p])
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
