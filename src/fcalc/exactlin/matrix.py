"""Immutable sparse matrices over Z, Q or F_p.

A matrix is stored as its sparse rows: for each row, the (column, value)
pairs of its nonzero entries, columns strictly increasing.  Dense rows
are built on first request, for the few consumers that need them.

All module elements in this package are ROW vectors; a map is applied as
``v -> v @ M``, so the matrix of ``g after f`` is ``f.mat @ g.mat``.
"""
from __future__ import annotations

from itertools import compress, count, repeat
from operator import itemgetter, ne
from typing import Iterable, Sequence

from .coeff import Coeff

_key = itemgetter(0)
_value = itemgetter(1)


class Mat:
    """A rows x cols matrix with entries in a fixed coefficient ring.

    The storage is ``sparse_rows()``: per row, the (column, value) pairs of
    the nonzero entries, columns strictly increasing, no stored zero.
    ``rows``, the dense tuple of row tuples, is built on first request and
    kept.  Equality and hash read the sparse rows.

    Entries are canonical for the ring: ``int`` over Z, ``int`` in
    ``range(p)`` over F_p, and over Q an ``int`` when integral and a
    ``Fraction`` with denominator greater than 1 otherwise.  ``from_rows``,
    ``from_json`` and the arithmetic establish this, the arithmetic on the
    nonzero entries it produces only; the raw constructors ``Mat(coeff,
    nrows, ncols, dense_rows)`` and ``Mat.from_sparse`` trust their caller.
    ``RowBasis`` relies on it and does not normalize again.

    >>> m = Mat.from_rows(Coeff.Z(), [[1, 0], [3, 4]])
    >>> m.sparse_rows()
    (((0, 1),), ((0, 3), (1, 4)))
    >>> (m @ Mat.identity(Coeff.Z(), 2)) == m
    True
    """

    __slots__ = ("coeff", "nrows", "ncols", "_sparse", "_dense")

    def __init__(self, coeff: Coeff, nrows: int, ncols: int, rows):
        """From trusted dense rows of canonical entries."""
        _set_coeff(self, coeff)
        _set_nrows(self, nrows)
        _set_ncols(self, ncols)
        _set_sparse(self, tuple([tuple(compress(enumerate(row), row))
                                 for row in rows]))
        _set_dense(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def from_sparse(coeff: Coeff, nrows: int, ncols: int, sparse) -> "Mat":
        """From trusted sparse rows: a tuple of tuples of (column, value)
        pairs, columns strictly increasing, values canonical and nonzero."""
        m = _new(Mat)
        _set_coeff(m, coeff)
        _set_nrows(m, nrows)
        _set_ncols(m, ncols)
        _set_sparse(m, sparse)
        _set_dense(m, None)
        return m

    @classmethod
    def from_rows(cls, coeff: Coeff, rows: Iterable[Sequence]) -> "Mat":
        norm = coeff.normalize
        data = [[norm(x) for x in row] for row in rows]
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(coeff, nrows, ncols, data)

    @classmethod
    def zero(cls, coeff: Coeff, nrows: int, ncols: int) -> "Mat":
        return cls.from_sparse(coeff, nrows, ncols, ((),) * nrows)

    @classmethod
    def identity(cls, coeff: Coeff, n: int) -> "Mat":
        return cls.from_sparse(coeff, n, n, tuple([((i, 1),) for i in range(n)]))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def sparse_rows(self) -> tuple:
        """Each row's nonzero (column, value) pairs: the storage itself."""
        return self._sparse

    @property
    def rows(self) -> tuple:
        """The dense rows, built from the sparse rows on first request."""
        dense = self._dense
        if dense is None:
            blank = [0] * self.ncols
            out = []
            for srow in self._sparse:
                row = blank.copy()
                for j, x in srow:
                    row[j] = x
                out.append(tuple(row))
            dense = tuple(out)
            _set_dense(self, dense)
        return dense

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.coeff == other.coeff
            and self.shape == other.shape
            and self._sparse == other._sparse
        )

    def __hash__(self):
        return hash((self.coeff, self.nrows, self.ncols, self._sparse))

    def __repr__(self):
        return f"Mat({self.coeff.code}, {self.nrows}x{self.ncols}, {list(map(list, self.rows))})"

    def is_zero(self) -> bool:
        return not any(self._sparse)

    def __add__(self, other: "Mat") -> "Mat":
        return self._merge(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._merge(other, -1)

    def _merge(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other, row by row, touching only nonzeros."""
        self._check_same_shape(other)
        coeff = self.coeff
        rows = []
        for ra, rb in zip(self._sparse, other._sparse):
            if not rb:
                rows.append(ra)
                continue
            acc = dict(ra)
            get = acc.get
            for j, b in rb:
                acc[j] = get(j, 0) + sign * b
            rows.append(finish_row(coeff, acc))
        return Mat.from_sparse(coeff, self.nrows, self.ncols, tuple(rows))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.coeff != other.coeff:
            raise ValueError("coefficient mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        coeff, sparse = self.coeff, other._sparse
        return Mat.from_sparse(
            coeff, self.nrows, other.ncols,
            tuple([mul_row_mat(coeff, row, sparse) for row in self._sparse]))

    def transpose(self) -> "Mat":
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self._sparse):
            for j, x in row:
                cols[j].append((i, x))
        return Mat.from_sparse(self.coeff, self.ncols, self.nrows,
                               tuple(map(tuple, cols)))

    def stack(self, other: "Mat") -> "Mat":
        """Rows of self followed by rows of other (same width)."""
        if self.coeff != other.coeff or self.ncols != other.ncols:
            raise ValueError("stack mismatch")
        return Mat.from_sparse(
            self.coeff, self.nrows + other.nrows, self.ncols,
            self._sparse + other._sparse,
        )

    def block_diag(self, other: "Mat") -> "Mat":
        if self.coeff != other.coeff:
            raise ValueError("coefficient mismatch")
        w = self.ncols
        right = tuple([tuple([(w + j, x) for j, x in row])
                       for row in other._sparse])
        return Mat.from_sparse(
            self.coeff, self.nrows + other.nrows, w + other.ncols,
            self._sparse + right,
        )

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; basis of the product is (i, j) lexicographic."""
        if self.coeff != other.coeff:
            raise ValueError("coefficient mismatch")
        coeff, w = self.coeff, other.ncols
        rows = tuple([
            canonical_pairs(coeff, [(ja * w + jb, a * b)
                                    for ja, a in ra for jb, b in rb])
            for ra in self._sparse for rb in other._sparse])
        return Mat.from_sparse(
            coeff, self.nrows * other.nrows, self.ncols * w, rows)

    def diagonal(self) -> list:
        return [dict(self._sparse[i]).get(i, 0)
                for i in range(min(self.nrows, self.ncols))]

    def _check_same_shape(self, other: "Mat"):
        if self.coeff != other.coeff or self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    @classmethod
    def from_json(cls, coeff: Coeff, data, shape: tuple[int | None, int]) -> "Mat":
        """Parse a list of rows of exactly the given (rows, cols) shape;
        rows None accepts any height.  A 0-row matrix is ``[]`` and an r x 0
        matrix is r empty lists; anything else raises ValueError.

        Only the entries other than the literal string ``"0"`` are parsed,
        in row-major order, and those that parse to zero (``"00"``, ``"3"``
        over F3) are dropped.  So every entry is still checked, and a bad
        one raises the same error as if all were parsed.

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
        parse = coeff.parse_scalar
        sparse = []
        for row in data:
            srow = []
            for j in compress(count(), map(ne, row, repeat("0"))):
                x = parse(row[j])
                if x:
                    srow.append((j, x))
            sparse.append(tuple(srow))
        return cls.from_sparse(coeff, len(data), ncols, tuple(sparse))


_new = object.__new__
# the slots' own setters, which bypass the immutable __setattr__
_set_coeff, _set_nrows, _set_ncols, _set_sparse, _set_dense = (
    Mat.__dict__[name].__set__ for name in Mat.__slots__)


def canonical_pairs(coeff: Coeff, pairs) -> tuple:
    """(column, value) pairs of raw arithmetic results on canonical
    entries, in the given column order, as a sparse row: each value
    reduced mod p over F_p, an integral ``Fraction`` demoted to ``int``
    over Q, and the zeros dropped.

    >>> from fractions import Fraction
    >>> canonical_pairs(Coeff.Q(), [(0, Fraction(4, 2)), (2, Fraction(0))])
    ((0, 2),)
    """
    p = coeff.p
    if p is not None:
        pairs = [(j, x % p) for j, x in pairs]
    elif coeff.kind == Coeff.RATIONALS:
        pairs = [(j, x if type(x) is int or x.denominator != 1
                  else x.numerator) for j, x in pairs]
    return tuple(filter(_value, pairs))


def finish_row(coeff: Coeff, acc: dict) -> tuple:
    """The sparse row of raw sums {column: value}: ``canonical_pairs`` in
    column order."""
    return canonical_pairs(coeff, sorted(acc.items()))


def basis_matrix(coeff: Coeff, src, dst, image) -> Mat:
    """The matrix of the map sending each element b of the basis src to
    the combination image(b) of the basis dst: (element of dst, canonical
    value) pairs with distinct elements, every other entry zero.

    >>> basis_matrix(Coeff.Z(), "ab", "xyz",
    ...              lambda b: (("x", 1), ("z", -2)) if b == "a" else ())
    Mat(Z, 2x3, [[1, 0, -2], [0, 0, 0]])
    """
    index = {b: i for i, b in enumerate(dst)}
    rows = image_rows(index, list(map(image, src)))
    return Mat.from_sparse(coeff, len(rows), len(index), rows)


def image_rows(index: dict, images) -> tuple:
    """The sparse rows of the map sending the k-th source element to
    images[k], a combination of the basis that index numbers ({element:
    column}) given as (element, canonical value) pairs with distinct
    elements.  A map whose every image is one pair with a nonzero value,
    a permutation of a basis among them, is laid out at C speed; the
    others row by row, with their zero values dropped.

    >>> image_rows({"x": 0, "y": 1}, [(("y", 1),), (("x", 2),)])
    (((1, 1),), ((0, 2),))
    >>> image_rows({"x": 0, "y": 1}, [(("y", 1), ("x", 2)), ()])
    (((0, 2), (1, 1)), ())
    """
    if set(map(len, images)) == {1}:
        pairs = list(map(_key, images))
        values = list(map(_value, pairs))
        if all(values):
            return tuple(zip(zip(map(index.__getitem__, map(_key, pairs)),
                                 values)))
    return tuple([tuple(sorted([(index[c], x) for c, x in image if x]))
                  for image in images])


def mul_row_mat(coeff: Coeff, row, sparse) -> tuple:
    """A sparse row times a matrix given by its ``sparse_rows``, touching
    only the nonzero entries on both sides; the result is a sparse row."""
    if len(row) == 1:  # a monomial row picks out a row of the matrix
        i, a = row[0]
        if a == 1:
            return sparse[i]
    acc = {}
    get = acc.get
    for i, a in row:
        for j, b in sparse[i]:
            acc[j] = get(j, 0) + a * b
    return finish_row(coeff, acc)


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
