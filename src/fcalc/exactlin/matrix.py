"""Immutable dense matrices over Z, Q or F_p, stored row-major.

All module elements in this package are ROW vectors; a map is applied as
``v -> v @ M``, so the matrix of ``g after f`` is ``f.mat @ g.mat``.
"""
from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

from .coeff import Coeff, demote_integral


class Mat:
    """A rows x cols matrix with entries in a fixed coefficient ring.

    Entries are canonical for the ring: ``int`` over Z, ``int`` in
    ``range(p)`` over F_p, and over Q an ``int`` when integral and a
    ``Fraction`` with denominator greater than 1 otherwise.  ``from_rows``,
    ``from_json`` and the arithmetic establish this through
    ``Coeff.normalize``, or, in the product, by reducing mod p or demoting
    an integral ``Fraction`` to ``int``; the raw constructor trusts its
    caller.  ``RowBasis`` relies on it and does not normalize again.

    >>> m = Mat.from_rows(Coeff.Z(), [[1, 2], [3, 4]])
    >>> (m @ Mat.identity(Coeff.Z(), 2)) == m
    True
    """

    __slots__ = ("coeff", "nrows", "ncols", "rows", "_sparse")

    def __init__(self, coeff: Coeff, nrows: int, ncols: int, rows):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_sparse", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def from_rows(cls, coeff: Coeff, rows: Iterable[Sequence]) -> "Mat":
        norm = coeff.normalize
        data = tuple(tuple(norm(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(coeff, nrows, ncols, data)

    @classmethod
    def zero(cls, coeff: Coeff, nrows: int, ncols: int) -> "Mat":
        z = coeff.zero()
        row = (z,) * ncols
        return cls(coeff, nrows, ncols, (row,) * nrows)

    @classmethod
    def identity(cls, coeff: Coeff, n: int) -> "Mat":
        z, o = (coeff.zero(),), (coeff.one(),)
        rows = tuple(z * i + o + z * (n - 1 - i) for i in range(n))
        return cls(coeff, n, n, rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.coeff == other.coeff
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.coeff, self.rows))

    def __repr__(self):
        return f"Mat({self.coeff.code}, {self.nrows}x{self.ncols}, {list(map(list, self.rows))})"

    def is_zero(self) -> bool:
        return not any(x for row in self.rows for x in row)

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        norm = self.coeff.normalize
        rows = tuple(
            tuple(norm(a + b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return Mat(self.coeff, self.nrows, self.ncols, rows)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        norm = self.coeff.normalize
        rows = tuple(
            tuple(norm(a - b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return Mat(self.coeff, self.nrows, self.ncols, rows)

    def scale(self, c) -> "Mat":
        norm = self.coeff.normalize
        c = norm(c)
        rows = tuple(tuple(norm(c * x) for x in row) for row in self.rows)
        return Mat(self.coeff, self.nrows, self.ncols, rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.coeff != other.coeff:
            raise ValueError("coefficient mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        sparse = other.sparse_rows()
        return Mat(
            self.coeff,
            self.nrows,
            other.ncols,
            tuple(
                mul_row_mat(self.coeff, row, sparse, other.ncols)
                for row in self.rows
            ),
        )

    def sparse_rows(self) -> tuple:
        """Each row's nonzero (column, value) pairs, as ``mul_row_mat``
        takes them.  Computed on first use and kept: every later call
        returns the same tuples."""
        sparse = self._sparse
        if sparse is None:
            sparse = tuple(tuple(compress(enumerate(row), row))
                           for row in self.rows)
            object.__setattr__(self, "_sparse", sparse)
        return sparse

    def transpose(self) -> "Mat":
        rows = tuple(zip(*self.rows)) if self.nrows else ()
        return Mat(self.coeff, self.ncols, self.nrows, rows)

    def stack(self, other: "Mat") -> "Mat":
        """Rows of self followed by rows of other (same width)."""
        if self.coeff != other.coeff or self.ncols != other.ncols:
            if other.nrows == 0:
                return self
            raise ValueError("stack mismatch")
        return Mat(
            self.coeff, self.nrows + other.nrows, self.ncols,
            self.rows + other.rows,
        )

    def hjoin(self, other: "Mat") -> "Mat":
        """Columns of self followed by columns of other (same height)."""
        if self.coeff != other.coeff or self.nrows != other.nrows:
            raise ValueError("hjoin mismatch")
        rows = tuple(ra + rb for ra, rb in zip(self.rows, other.rows))
        return Mat(self.coeff, self.nrows, self.ncols + other.ncols, rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Mat":
        rows = tuple(
            tuple(self.rows[i][j] for j in col_idx) for i in row_idx
        )
        return Mat(self.coeff, len(row_idx), len(col_idx), rows)

    def block_diag(self, other: "Mat") -> "Mat":
        if self.coeff != other.coeff:
            raise ValueError("coefficient mismatch")
        z = self.coeff.zero()
        left = tuple(row + (z,) * other.ncols for row in self.rows)
        right = tuple((z,) * self.ncols + row for row in other.rows)
        return Mat(
            self.coeff, self.nrows + other.nrows, self.ncols + other.ncols,
            left + right,
        )

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; basis of the product is (i, j) lexicographic."""
        if self.coeff != other.coeff:
            raise ValueError("coefficient mismatch")
        norm = self.coeff.normalize
        rows = []
        for ra in self.rows:
            for rb in other.rows:
                rows.append(tuple(norm(a * b) for a in ra for b in rb))
        return Mat(
            self.coeff, self.nrows * other.nrows, self.ncols * other.ncols,
            tuple(rows),
        )

    def diagonal(self) -> list:
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]

    def _check_same_shape(self, other: "Mat"):
        if self.coeff != other.coeff or self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def to_json(self) -> list[list[str]]:
        s = self.coeff.scalar_str
        return [[s(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, coeff: Coeff, data, shape: tuple[int | None, int]) -> "Mat":
        """Parse a list of rows of exactly the given (rows, cols) shape;
        rows None accepts any height.  A 0-row matrix is ``[]`` and an r x 0
        matrix is r empty lists; anything else raises ValueError.

        >>> Mat.from_json(Coeff.Z(), [["1", "2"]], (None, 2)).shape
        (1, 2)
        >>> Mat.from_json(Coeff.Z(), [["1", "2"]], (2, 2))
        Traceback (most recent call last):
        ...
        ValueError: expected 2 rows, got 1
        """
        nrows, ncols = shape
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("a matrix must be a list of rows")
        if nrows is not None and len(data) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(data)}")
        for i, row in enumerate(data):
            if len(row) != ncols:
                raise ValueError(f"row {i} has {len(row)} entries, expected {ncols}")
        rows = tuple(tuple(coeff.parse_scalar(x) for x in row) for row in data)
        return cls(coeff, len(rows), ncols, rows)


def basis_matrix(coeff: Coeff, src, dst, image) -> Mat:
    """The matrix of the map sending each element b of the basis src to
    the combination image(b) of the basis dst: (element of dst, canonical
    value) pairs with distinct elements, every other entry zero.

    >>> basis_matrix(Coeff.Z(), "ab", "xyz",
    ...              lambda b: (("x", 1), ("z", -2)) if b == "a" else ())
    Mat(Z, 2x3, [[1, 0, -2], [0, 0, 0]])
    """
    index = {b: i for i, b in enumerate(dst)}
    zero = coeff.zero()
    rows = []
    for b in src:
        row = [zero] * len(index)
        for c, x in image(b):
            row[index[c]] = x
        rows.append(tuple(row))
    return Mat(coeff, len(rows), len(index), tuple(rows))


def mul_row_mat(coeff: Coeff, row: Sequence, sparse, ncols: int) -> tuple:
    """Row vector times a matrix given by its ``sparse_rows``, skipping
    zero entries on both sides; the result is canonical."""
    acc = [0] * ncols
    for a, srow in compress(zip(row, sparse), row):
        for j, b in srow:
            acc[j] += a * b
    if coeff.p is not None:
        p = coeff.p
        return tuple(x % p for x in acc)
    if coeff.kind == Coeff.RATIONALS:
        return tuple(demote_integral(acc))
    return tuple(acc)


def det(m: Mat):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Each Bareiss step divides exactly in any integral domain, so one loop
    serves every ring: the division is ``//`` over Z and multiplication by
    the inverse over a field.

    >>> det(Mat.from_rows(Coeff.Z(), [[2, 4], [6, 8]]))
    -8
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    coeff, n = m.coeff, m.nrows
    if n == 0:
        return coeff.one()
    norm = coeff.normalize
    a = [list(row) for row in m.rows]
    sign = 1
    prev = coeff.one()
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return coeff.zero()
        ak = a[k]
        inv = coeff.invert(prev) if coeff.is_field else None
        for ai in a[k + 1:]:
            for j in range(k + 1, n):
                x = ai[j] * ak[k] - ai[k] * ak[j]
                ai[j] = x // prev if inv is None else norm(x * inv)
        prev = ak[k]
    return norm(sign * a[n - 1][n - 1])
