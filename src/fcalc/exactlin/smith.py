"""Row-echelon elimination, and the Smith normal form built on it.

``RowBasis`` is the one elimination engine for Z, Q and F_p: an
incremental echelon basis (Hermite-style over Z, reduced echelon over
fields) used for span membership, left kernels, solving ``x @ A = v``,
lattice saturation and the Smith normal form.  It is by far the hottest
code path in the package.  A column index names the basis rows nonzero
in each column, so the back-reduction after a new pivot visits only the
rows it moves, and ``fork`` copies a basis so that a quotient's span can
grow from its parent's instead of being rebuilt.  Rows are {column:
value} maps of their nonzero entries, so a move costs the nonzeros it
touches, not the width.  Every
row move is one primitive, ``v -= x * row`` over the nonzero entries of
row, reduced mod p over F_p, and every reduction divides by one pivot
quotient: floor division over Z, the entry itself over a field, whose
pivots are 1.  Only the gcd merge of a leading entry that its pivot does
not divide, the pivot quotient and the sign of a new pivot are particular
to Z.  Entries are taken as given: they must be canonical for the ring,
as ``Mat`` keeps them, and the row primitive keeps them so: over Q an
integral entry is an ``int``, so integral data is eliminated at the cost
of Z, and only a result with denominator 1 is demoted from ``Fraction``.

``snf`` and ``snf_diagonal`` alternate ``RowBasis`` passes on the rows
of a matrix and on those of its transpose until it is diagonal, then make
the divisibility chain by a gcd/lcm sweep (R. Kannan and A. Bachem, SIAM
J. Comput. 8 (1979) 499-507; H. Cohen, A Course in Computational
Algebraic Number Theory, GTM 138, 2.4).  They read no dense row.  A
Hermite basis whose pivots are all 1 spans a direct summand
(``unit_pivots``), so a quotient by it is free and needs no Smith form.
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
        # column -> the pivots of the basis rows nonzero there
        self._cols: dict = {}
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

    def _move(self, i: int, dst: dict, x, src: dict):
        """``_sub`` on dst, the basis row with pivot i, keeping the column
        index: i leaves the columns where dst becomes zero and joins those
        where it becomes nonzero.  src is a basis row, so every column it
        touches is in the index already."""
        get, p, rational, cols = dst.get, self._p, self._rational, self._cols
        for k, b in src.items():
            a = get(k, 0)
            y = a - x * b
            if p is not None:
                y %= p
            elif rational and type(y) is not int and y.denominator == 1:
                y = y.numerator
            if y:
                dst[k] = y
                if not a:
                    cols[k].add(i)
            else:
                del dst[k]
                cols[k].discard(i)

    def fork(self) -> "RowBasis":
        """An independent copy: adds to either leave the other as it is,
        and adding to the copy what was not yet added here gives the basis
        of adding it all to a new ``RowBasis``."""
        other = object.__new__(RowBasis)
        other.__dict__.update(self.__dict__)
        other.pivots = self.pivots.copy()
        other._rows = [r.copy() for r in self._rows]
        other._combos = [c.copy() for c in self._combos]
        other._row_at = dict(zip(other.pivots, other._rows))
        other._combo_at = dict(zip(other.pivots, other._combos))
        other._cols = {k: s.copy() for k, s in self._cols.items()}
        return other

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
            before = set(row)
            _gcd_merge(row, v, x, y, ag, bg)
            cols = self._cols
            for k in before - row.keys():
                cols[k].discard(j)
            for k in row.keys() - before:
                cols.setdefault(k, set()).add(j)
            if c is not None:
                _gcd_merge(combo_at[j], c, x, y, ag, bg)
            self._reduce_above(j)
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
        cols = self._cols
        for k in v:
            s = cols.get(k)
            if s is None:
                cols[k] = {j}
            else:
                s.add(j)
        if c is not None:
            self._combos.insert(pos, c)
            self._combo_at[j] = c
        self._reduce_above(j)

    def _reduce_above(self, j: int):
        """Reduce the basis rows above the one with pivot j at column j by
        the pivot quotient: into [0, pivot) over Z, to zero over a field.
        The column index names the rows that are nonzero there, and the
        moves on different rows are independent, so their order does not
        matter.  The combos, when tracked, take the same moves."""
        nonzero = self._cols[j]
        if len(nonzero) == 1:  # the row with pivot j alone
            return
        row_at, combo_at = self._row_at, self._combo_at
        row = row_at[j]
        piv = row[j]
        for i in [i for i in nonzero if i < j]:
            dst = row_at[i]
            x = dst[j]
            q = x if self._field else x // piv
            if q:
                self._move(i, dst, q, row)
                if combo_at:
                    self._sub(combo_at[i], q, combo_at[j])
        # the moves emptied most of column j, and a set keeps its table
        # when it shrinks: a copy holds what is left at its own size
        self._cols[j] = set(nonzero)

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

    def unit_pivots(self) -> bool:
        """True iff every pivot is 1: always over a field, and over Z
        exactly when the lattice is a direct summand of Z^w (the standard
        basis vectors off the pivots span a complement)."""
        return all(row[j] == 1 for row, j in zip(self._rows, self.pivots))

    def is_full(self) -> bool:
        """True iff the span is the whole ambient module (Z^w or k^w)."""
        return len(self._rows) == self.width and self.unit_pivots()

    def basis_mat(self) -> Mat:
        return Mat.from_sparse(
            self.coeff, len(self._rows), self.width,
            tuple([tuple(sorted(r.items())) for r in self._rows]),
        )


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


def _echelon(m: Mat, track: bool) -> RowBasis:
    """The echelon basis of the rows of m, or of [m | I] when track is set.
    The rows of [m | I] are independent, so then the basis has a row for
    each row of m: the I-parts are the rows of an invertible T, unimodular
    over Z, and the m-parts those of T @ m, zero where the pivot falls in
    the I block."""
    w = m.ncols
    b = RowBasis(m.coeff, w + m.nrows if track else w)
    for i, row in enumerate(m.sparse_rows()):
        b.add(row + ((w + i, 1),) if track else row)
    return b


def left_kernel(m: Mat) -> Mat:
    """Basis (as rows) of {x : x @ m = 0}; over Z a lattice basis: the
    I-parts of the rows of the echelon basis of [m | I] whose m-parts are
    zero.

    >>> from .coeff import Z
    >>> lk = left_kernel(Mat.from_rows(Z, [[2], [3]]))
    >>> [row for row in lk.rows]
    [(3, -2)]
    """
    w = m.ncols
    b = _echelon(m, True)
    rows = tuple([tuple(sorted([(k - w, x) for k, x in r.items()]))
                  for r, j in zip(b._rows, b.pivots) if j >= w])
    return Mat.from_sparse(m.coeff, len(rows), m.nrows, rows)


def _diagonalize(m: Mat, track: bool) -> tuple:
    """Alternating passes until a is diagonal; see ``snf``.  Returns
    (a, U, W) with U @ m @ W.T == a when track is set, else (a or a.T,
    None, None) with the zero rows dropped.  Each pass takes a to
    (T @ a).T, so the invariant x @ m @ y.T == a (m.T while flipped) holds
    with x, y <- y, T @ x."""
    if m.coeff.kind != Coeff.INTEGERS:
        raise ValueError("Smith normal form is defined over the integer "
                         "coefficients only")
    Z, a, flipped, x, y = m.coeff, m, False, None, None
    if track:
        x, y = Mat.identity(Z, m.nrows), Mat.identity(Z, m.ncols)
    while True:
        b, w = _echelon(a, track), a.ncols
        cols, t = [[] for _ in range(w)], []
        for i, r in enumerate(b._rows):
            for k, v in r.items():
                if k < w:
                    cols[k].append((i, v))
            if track:
                t.append(tuple(sorted([(k - w, v) for k, v in r.items()
                                       if k >= w])))
        if track:
            x, y = y, Mat.from_sparse(Z, b.rank, b.rank, tuple(t)) @ x
        else:
            cols = [c for c in cols if c]
        a = Mat.from_sparse(Z, len(cols), b.rank, tuple(map(tuple, cols)))
        flipped = not flipped
        if all(not r or (len(r) == 1 and r[0][0] == i)
               for i, r in enumerate(a.sparse_rows())):
            break
    return (a.transpose(), y, x) if flipped and track else (a, x, y)


def _chain(d: list, u=None, w=None) -> list:
    """The gcd/lcm sweep: for i < j, (a, b) = (d_i, d_j) <- (g, ab/g) with
    g = xa + yb = gcd(a, b), which leaves d_1 | d_2 | ... .  With u and w,
    the rows of U and of V.T, each step takes [[x, y], [-b/g, a/g]] on
    rows i, j of U and [[1, -yb/g], [1, xa/g]] on columns i, j of V."""
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                x, y, g = _xgcd(a, b)
                d[i], d[j] = g, a // g * b
                if u is not None:
                    _gcd_merge(u[i], u[j], x, y, a // g, b // g)
                    _gcd_merge(w[i], w[j], 1, 1, x * (a // g), y * (b // g))
    return d


def snf(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form over Z: returns (U, D, V) with U @ m @ V = D.

    D is diagonal, its nonzero entries are positive and satisfy
    d1 | d2 | ...; U and V have determinant +-1.  Empty matrices return
    empty factors.

    Each pass echelonizes the rows of [a | I] with ``RowBasis``, which
    gives the Hermite form T @ a and the unimodular T, and the next works
    on the transpose of the result, until a pass leaves a diagonal.  The
    passes end.  Each makes the leading entry, the pivot of the first
    nonzero column, the gcd of that column, and clears the rest of it; the
    next pass sees that column as a row and takes the gcd of the leading
    entry's row.  So the leading entry's absolute value falls to a proper
    divisor of itself, pass by pass, until it divides every entry of its
    row and column.  The pass after that leaves it alone in both, and no
    later pass touches it: each adds its row first, and no other row has
    an entry in its column, so the other rows go through the passes of
    the matrix without it, and end by induction.  The pass after one that
    leaves at most one entry in each row puts the entries on the diagonal,
    in pivot order.  A final gcd/lcm sweep (``_chain``) then makes the
    divisibility chain.

    >>> from .coeff import Z
    >>> U, D, V = snf(Mat.from_rows(Z, [[2, 4], [6, 8]]))
    >>> D.diagonal()
    [2, 4]
    >>> (U @ Mat.from_rows(Z, [[2, 4], [6, 8]]) @ V) == D
    True
    """
    a, x, y = _diagonalize(m, True)
    u, w = ([dict(r) for r in z.sparse_rows()] for z in (x, y))
    _chain([e for e in a.diagonal() if e], u, w)
    U, Vt = (Mat.from_sparse(m.coeff, len(z), len(z), tuple(
        [tuple(sorted(r.items())) for r in z])) for z in (u, w))
    V = Vt.transpose()
    return U, U @ m @ V, V


def snf_diagonal(m: Mat) -> list[int]:
    """Just the invariant factors of m (nonzero diagonal of its SNF), by
    the passes of ``snf`` without U and V.  The first pass is on the
    columns: ``PresentedModule.invariant_factors`` hands over a Hermite
    basis, which a pass on its rows would only echelonize again.  A 1
    divides every entry, so the gcd/lcm sweep runs on the others only.

    >>> from .coeff import Z
    >>> snf_diagonal(Mat.from_rows(Z, [[2, 4], [6, 8]]))
    [2, 4]
    """
    a, _, _ = _diagonalize(m.transpose(), False)
    diag = [row[0][1] for row in a.sparse_rows()]
    rest = [e for e in diag if e != 1]
    return [1] * (len(diag) - len(rest)) + _chain(rest)
