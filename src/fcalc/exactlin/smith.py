"""Smith normal form and row-echelon workhorses.

Two engines live here:

* ``_smith`` is the one Smith elimination.  ``snf`` asks it for the
  unimodular U and V with U @ m @ V = D, D diagonal with the divisibility
  chain d1 | d2 | ...; ``snf_diagonal`` asks for the invariant factors
  only and skips the transform work.  Pivots are chosen by minimal
  absolute value, which keeps intermediate entries small in practice.

* ``RowBasis`` is the one incremental echelon engine for Z, Q and F_p
  (Hermite-style over Z, reduced echelon over fields) used for span
  membership, left kernels, solving ``x @ A = v`` and lattice saturation.
  It is by far the hottest code path in the package.  Rows are
  {column: value} maps of their nonzero entries, so a move costs the
  nonzeros it touches, not the width.  Every row move is one primitive,
  ``v -= x * row`` over the nonzero entries of row, reduced mod p over
  F_p, and every reduction divides by one pivot quotient: floor division
  over Z, the entry itself over a field, whose pivots are 1.  Only the
  gcd merge of a leading entry that its pivot does not divide, the pivot
  quotient and the sign of a new pivot are particular to Z.  Entries are
  taken as given: they must be canonical for the ring, as ``Mat`` keeps
  them, and the row primitive keeps them so: over Q an integral entry is
  an ``int``, so integral data is eliminated at the cost of Z, and only a
  result with denominator 1 is demoted from ``Fraction``.
"""
from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from itertools import compress

from .coeff import Coeff
from .matrix import Mat


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def _smith(m: Mat, track: bool):
    """The min-pivot elimination behind ``snf`` and ``snf_diagonal``.

    Returns (a, v, rank).  a holds the rows of the diagonal form, each
    followed, when track is set, by the matching row of U (row moves act on
    [m | I]); v is V as a list of rows, empty unless track; rank counts the
    nonzero diagonal entries.  Once pivot t is placed, the rows above it
    are zero from column t on, so every move on a starts there.
    """
    if m.coeff.kind != Coeff.INTEGERS:
        raise ValueError("Smith normal form is defined over the integer "
                         "coefficients only")
    nr, nc = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    v = []
    if track:
        for i, row in enumerate(a):
            row.extend(1 if i == k else 0 for k in range(nr))
        v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    width = nc + nr if track else nc
    t = 0
    while t < min(nr, nc):
        # minimal |entry| pivot in the trailing block
        best = None
        for i in range(t, nr):
            ai = a[i]
            for j in range(t, nc):
                x = ai[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best[0]:
                        best = (ax, i, j)
                        if ax == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        cols = a[t:] + v  # the rows a column move touches
        if bj != t:
            for row in cols:
                row[t], row[bj] = row[bj], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                x = a[i][t]
                if x:
                    piv = a[t][t]
                    if x % piv == 0:
                        q = x // piv
                        ai, at = a[i], a[t]
                        for j in range(t, width):
                            ai[j] -= q * at[j]
                    else:
                        s, y, g = _xgcd(piv, x)
                        ag, bg = piv // g, x // g
                        at, ai = a[t], a[i]
                        for j in range(t, width):
                            tj, ij = at[j], ai[j]
                            at[j] = s * tj + y * ij
                            ai[j] = -bg * tj + ag * ij
            for j in range(t + 1, nc):
                x = a[t][j]
                if x:
                    piv = a[t][t]
                    if x % piv == 0:
                        q = x // piv
                        for row in cols:
                            row[j] -= q * row[t]
                    else:
                        s, y, g = _xgcd(piv, x)
                        ag, bg = piv // g, x // g
                        for row in cols:
                            rt, rj = row[t], row[j]
                            row[t] = s * rt + y * rj
                            row[j] = -bg * rt + ag * rj
                    if any(a[i][t] for i in range(t + 1, nr)):
                        dirty = True
        # enforce the divisibility chain: fold any non-divisible entry in
        piv = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            ai = a[i]
            for j in range(t + 1, nc):
                if ai[j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            at, ao = a[t], a[offender]
            for j in range(t, width):
                at[j] += ao[j]
            continue
        if piv < 0 and track:
            a[t] = [-x for x in a[t]]
        t += 1
    return a, v, t


def snf(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form over Z: returns (U, D, V) with U @ m @ V = D.

    D is diagonal, its nonzero entries are positive and satisfy
    d1 | d2 | ...; U and V have determinant +-1.  Empty matrices return
    empty factors.

    >>> from .coeff import Z
    >>> U, D, V = snf(Mat.from_rows(Z, [[2, 4], [6, 8]]))
    >>> D.diagonal()
    [2, 4]
    >>> (U @ Mat.from_rows(Z, [[2, 4], [6, 8]]) @ V) == D
    True
    """
    a, v, _ = _smith(m, track=True)
    Z, nr, nc = m.coeff, m.nrows, m.ncols
    return (
        Mat(Z, nr, nr, tuple(tuple(row[nc:]) for row in a)),
        Mat(Z, nr, nc, tuple(tuple(row[:nc]) for row in a)),
        Mat(Z, nc, nc, tuple(map(tuple, v))),
    )


def snf_diagonal(m: Mat) -> list[int]:
    """Just the invariant factors of m (nonzero diagonal of its SNF),
    without the work of carrying U and V.

    >>> from .coeff import Z
    >>> snf_diagonal(Mat.from_rows(Z, [[2, 4], [6, 8]]))
    [2, 4]
    """
    a, _, rank = _smith(m, track=False)
    return [abs(a[i][i]) for i in range(rank)]


class RowBasis:
    """Incremental echelon basis of the row span of a set of vectors.

    Over Z this maintains a Hermite-style basis of the *lattice* generated
    by the rows (pivots positive, gcd-combining on conflicts); over a field
    it maintains a reduced echelon basis with pivots 1.  Optionally tracks,
    for each basis row, its expression in terms of the vectors fed in (for
    solving).  Basis rows and their combinations are held as {column:
    value} maps of their nonzero entries; ``rows`` and ``combos`` are
    dense views of them, built on each request.

    A vector is given dense, as a sequence of entries, or sparse, as a
    {column: value} map of its nonzero entries or as a row of
    ``Mat.sparse_rows()``; ``reduce`` and ``solve`` answer with a map when
    given one and dense otherwise.  Entries must be canonical for the
    ring, as ``Mat`` keeps them; they are taken as given.

    >>> from .coeff import Z
    >>> b = RowBasis(Z, 2)
    >>> b.add([2, 0]), b.add({1: 1}), b.add([1, 0])
    (True, True, True)
    >>> b.contains([5, 7]), b.reduce({0: 5, 1: 7})
    (True, {})
    """

    def __init__(self, coeff: Coeff, width: int, track: bool = False):
        self.coeff = coeff
        self.width = width
        self.track = track
        self.pivots: list[int] = []  # pivot column of each basis row
        self._rows: list[dict] = []  # basis rows, in pivot order
        self._combos: list[dict] = []  # their expressions in the inputs
        self._row_at: dict = {}  # pivot column -> its basis row
        self._combo_at: dict = {}  # pivot column -> that row's combination
        self._n_added = 0
        self._field = coeff.is_field
        self._p = coeff.p
        self._rational = coeff.kind == Coeff.RATIONALS

    def _sub(self, dst: dict, x, src: dict):
        """The row primitive: dst -= x * src for a nonzero x, reduced mod p
        over F_p, an integral ``Fraction`` demoted to ``int`` over Q, and
        an entry that becomes zero removed."""
        get, p, rational = dst.get, self._p, self._rational
        for k, b in src.items():
            y = get(k, 0) - x * b
            if p is not None:
                y %= p
            elif rational and type(y) is not int and y.denominator == 1:
                y = y.numerator
            if y:
                dst[k] = y
            else:
                del dst[k]

    def add(self, vec) -> bool:
        """Insert a vector; returns True iff the span/lattice grew."""
        v = _as_map(vec)
        c = None
        if self.track:
            c = {self._n_added: 1}  # input n, as a combination of the inputs
            self._n_added += 1
        if self._field:
            self._reduce(v, c)  # at every pivot: the basis stays reduced
            grew = False
        else:
            grew = self._clear_leading(v, c)
        if v:
            self._insert(min(v), v, c)
            return True
        return grew

    def _clear_leading(self, v: dict, c) -> bool:
        """Over Z: cancel the leading entry of v against the pivot row in
        its column until it lands in a column with no pivot, merging v into
        that row by gcd where the pivot does not divide it.  The later
        entries of v stay unreduced, and so does the row it becomes: the
        basis ``left_kernel`` returns is built this way.  True iff a merge
        grew the lattice."""
        row_at, combo_at = self._row_at, self._combo_at
        grew = False
        while v:
            j = min(v)
            row = row_at.get(j)
            if row is None:
                return grew
            a, b = row[j], v[j]
            if b % a == 0:
                self._sub(v, b // a, row)
                if c is not None:
                    self._sub(c, b // a, combo_at[j])
                continue
            # (row, v) <- (x row + y v, (a v - b row) / g), row[j] = |g|
            x, y, g = _xgcd(a, b)
            ag, bg = a // g, b // g
            if g < 0:
                x, y = -x, -y
            _gcd_merge(row, v, x, y, ag, bg)
            if c is not None:
                _gcd_merge(combo_at[j], c, x, y, ag, bg)
            self._reduce_above(bisect_left(self.pivots, j), self._rows,
                               self._combos)
            grew = True
        return grew

    def _insert(self, j: int, v: dict, c):
        """Make v, whose leading entry is v[j], a basis row: scale it so its
        pivot is canonical (positive over Z, 1 over a field), insert it in
        pivot order and reduce the rows above it at column j."""
        x = v[j]
        u = self.coeff.invert(x) if self._field else (1 if x > 0 else -1)
        if u != 1:
            # v *= u, as v -= (1 - u) * v: no entry becomes zero
            self._sub(v, 1 - u, v)
            if c is not None:
                self._sub(c, 1 - u, c)
        pos = bisect_left(self.pivots, j)
        self._rows.insert(pos, v)
        self.pivots.insert(pos, j)
        self._row_at[j] = v
        if c is not None:
            self._combos.insert(pos, c)
            self._combo_at[j] = c
        self._reduce_above(pos, self._rows, self._combos)

    def _reduce_above(self, pos: int, rows: list, combos):
        """Reduce rows[:pos] at the pivot column of rows[pos] by the pivot
        quotient: into [0, pivot) over Z, to zero over a field.  combos,
        when not empty, take the same moves."""
        j = self.pivots[pos]
        row = rows[pos]
        piv = row[j]
        for i in range(pos):
            x = rows[i].get(j)
            if x:
                q = x if self._field else x // piv
                if q:
                    self._sub(rows[i], q, row)
                    if combos:
                        self._sub(combos[i], q, combos[pos])

    def _reduce(self, v: dict, c=None):
        """Reduce v at every pivot in increasing order by the pivot
        quotient: floor division over Z, the entry itself over a field
        (whose pivots are 1).  c, when given, takes the same moves against
        the combos.  Only the pivots where v is nonzero are visited: a heap
        holds them, and a move at pivot j changes v at later columns only.
        Over a field a basis row is zero at every other pivot, so a move
        adds no pivot to visit."""
        row_at = self._row_at
        heap = [k for k in v if k in row_at]
        heapify(heap)
        while heap:
            j = heappop(heap)
            x = v.get(j)
            if not x:
                continue
            row = row_at[j]
            q = x if self._field else x // row[j]
            if q:
                if not self._field:
                    for k in row:
                        if k not in v and k in row_at:
                            heappush(heap, k)
                self._sub(v, q, row)
                if c is not None:
                    self._sub(c, q, self._combo_at[j])

    def add_mat(self, m: Mat) -> bool:
        changed = False
        for row in m.sparse_rows():
            if self.add(row):
                changed = True
        return changed

    def reduce(self, vec):
        """Residue of vec modulo the span; zero iff vec lies in the span."""
        v = _as_map(vec)
        self._reduce(v)
        return v if type(vec) is dict else _dense(v, self.width)

    def contains(self, vec) -> bool:
        v = _as_map(vec)
        self._reduce(v)
        return not v

    def solve(self, vec):
        """Coefficients expressing vec over the *input* vectors, or None.

        Requires track=True.  Reducing -vec leaves the coefficients in the
        tracked combination.  Over Z a pivot that does not divide the entry
        leaves a nonzero residue there, so the residue test covers it.
        """
        if not self.track:
            raise ValueError("RowBasis built without tracking")
        p = self._p
        v = {k: -x if p is None else -x % p
             for k, x in _as_map(vec).items()}
        c = {}
        self._reduce(v, c)
        if v:
            return None
        return c if type(vec) is dict else _dense(c, self._n_added)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list]:
        """The basis rows, dense."""
        return [_dense(r, self.width) for r in self._rows]

    @property
    def combos(self) -> list[list]:
        """Each basis row's expression in the inputs so far, dense."""
        return [_dense(c, self._n_added) for c in self._combos]

    def is_full(self) -> bool:
        """True iff the span is the whole ambient module (Z^w or k^w)."""
        return len(self._rows) == self.width and all(
            row[j] == 1 for row, j in zip(self._rows, self.pivots))

    def basis_mat(self) -> Mat:
        return Mat.from_sparse(
            self.coeff, len(self._rows), self.width,
            tuple([tuple(sorted(r.items())) for r in self._rows]),
        )

    def snapshot(self) -> tuple:
        """Canonical form of the current span (for equality tests): the
        basis with every row reduced at every later pivot, which over Z is
        the HNF and over a field the basis as kept."""
        rows = [dict(r) for r in self._rows]
        for pos in range(len(rows)):
            self._reduce_above(pos, rows, None)
        return tuple(tuple(_dense(r, self.width)) for r in rows)


def _as_map(vec) -> dict:
    """A fresh {column: value} map of the nonzero entries of a vector given
    dense, as such a map, or as (column, value) pairs.  A scalar is never a
    tuple, so the first entry tells pairs from dense entries."""
    if type(vec) is dict:
        return vec.copy()
    if vec and type(vec[0]) is tuple:
        return dict(vec)
    return dict(compress(enumerate(vec), vec))


def _dense(v: dict, width: int) -> list:
    out = [0] * width
    for k, x in v.items():
        out[k] = x
    return out


def _gcd_merge(r: dict, w: dict, x, y, ag, bg):
    """(r, w) <- (x r + y w, ag w - bg r) over Z, in place."""
    nr, nw = {}, {}
    for k, rk in r.items():
        wk = w.get(k, 0)
        if (t := x * rk + y * wk):
            nr[k] = t
        if (t := ag * wk - bg * rk):
            nw[k] = t
    for k, wk in w.items():
        if k not in r:
            if (t := y * wk):
                nr[k] = t
            if (t := ag * wk):
                nw[k] = t
    r.clear()
    r.update(nr)
    w.clear()
    w.update(nw)


def left_kernel(m: Mat) -> Mat:
    """Basis (as rows) of {x : x @ m = 0}; over Z a lattice basis.

    Computed by echelonizing the rows of [m | I]: rows whose leading entry
    falls in the identity block have zero m-part, and their identity parts
    form a basis of the kernel (the row operations are invertible).

    >>> from .coeff import Z
    >>> lk = left_kernel(Mat.from_rows(Z, [[2], [3]]))
    >>> [row for row in lk.rows]
    [(3, -2)]
    """
    n, w = m.nrows, m.ncols
    b = RowBasis(m.coeff, w + n)
    for i, row in enumerate(m.sparse_rows()):
        b.add(row + ((w + i, 1),))
    rows = tuple([tuple(sorted([(k - w, x) for k, x in r.items()]))
                  for r, j in zip(b._rows, b.pivots) if j >= w])
    return Mat.from_sparse(m.coeff, len(rows), n, rows)
