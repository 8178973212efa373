"""Smith normal form and row-echelon workhorses.

Two engines live here:

* ``_smith`` is the one Smith elimination.  ``snf`` asks it for the
  unimodular U and V with U @ m @ V = D, D diagonal with the divisibility
  chain d1 | d2 | ...; ``snf_diagonal`` asks for the invariant factors
  only and skips the transform work.  Pivots are chosen by minimal
  absolute value, which keeps intermediate entries small in practice.

* ``RowBasis`` is an incremental row-echelon accumulator (Hermite-style
  over Z, reduced echelon over fields) used for span membership, left
  kernels, solving ``x @ A = v`` and lattice saturation.  It is by far the
  hottest code path in the package.
"""
from __future__ import annotations

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
    it maintains a reduced echelon basis.  Optionally tracks, for each basis
    row, its expression in terms of the vectors fed in (for solving).

    >>> from .coeff import Z
    >>> b = RowBasis(Z, 2)
    >>> b.add([2, 0]), b.add([0, 1]), b.add([1, 0])
    (True, True, True)
    >>> b.contains([5, 7])
    True
    """

    def __init__(self, coeff: Coeff, width: int, track: bool = False):
        self.coeff = coeff
        self.width = width
        self.track = track
        self.rows: list[list] = []
        self.pivots: list[int] = []  # pivot column of each basis row
        self.combos: list[list] = []  # expression of basis rows in the inputs
        self._n_added = 0

    def _widen_combos(self):
        # combos are kept as dense lists over all inputs seen so far
        for c in self.combos:
            c.append(0 if self.coeff.kind != Coeff.RATIONALS else self.coeff.zero())

    def add(self, vec, combo=None) -> bool:
        """Insert a vector; returns True iff the span/lattice grew."""
        coeff = self.coeff
        zero = coeff.zero()
        v = [coeff.normalize(x) for x in vec]
        if self.track:
            self._widen_combos()
            c = [zero] * self._n_added + [coeff.one()]
            self._n_added += 1
        else:
            c = None
        changed = False
        if coeff.kind == Coeff.INTEGERS:
            changed = self._add_int(v, c)
        else:
            changed = self._add_field(v, c)
        return changed

    def _add_int(self, v, c) -> bool:
        rows, pivots, combos = self.rows, self.pivots, self.combos
        width = self.width
        changed = False
        j = 0
        while True:
            # advance to the leading nonzero of v
            while j < width and v[j] == 0:
                j += 1
            if j == width:
                return changed
            # find where v's pivot sits relative to the basis
            pos = 0
            while pos < len(pivots) and pivots[pos] < j:
                pos += 1
            if pos == len(pivots) or pivots[pos] > j:
                if v[j] < 0:
                    v = [-x for x in v]
                    if c is not None:
                        c = [-x for x in c]
                rows.insert(pos, v)
                pivots.insert(pos, j)
                if self.track:
                    combos.insert(pos, c)
                self._reduce_above(pos)
                return True
            row = rows[pos]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for k in range(j, width):
                    v[k] -= q * row[k]
                if c is not None:
                    rc = combos[pos]
                    for k in range(len(c)):
                        c[k] -= q * (rc[k] if k < len(rc) else 0)
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, width):
                    rk, vk = row[k], v[k]
                    row[k] = x * rk + y * vk
                    v[k] = -bg * rk + ag * vk
                if c is not None:
                    rc = combos[pos]
                    while len(rc) < len(c):
                        rc.append(0)
                    for k in range(len(c)):
                        rck, ck = rc[k], c[k]
                        rc[k] = x * rck + y * ck
                        c[k] = -bg * rck + ag * ck
                if row[j] < 0:
                    for k in range(j, width):
                        row[k] = -row[k]
                    if c is not None:
                        rc = combos[pos]
                        for k in range(len(rc)):
                            rc[k] = -rc[k]
                self._reduce_above(pos)
                changed = True

    def _add_field(self, v, c) -> bool:
        coeff = self.coeff
        p = coeff.p if coeff.kind == Coeff.PRIME_FIELD else None
        zero = coeff.zero()
        rows, pivots, combos = self.rows, self.pivots, self.combos
        width = self.width
        for pos, j in enumerate(pivots):
            x = v[j]
            if x:
                row = rows[pos]
                if p is None:
                    for k in range(j, width):
                        v[k] = v[k] - x * row[k]
                else:
                    for k in range(j, width):
                        v[k] = (v[k] - x * row[k]) % p
                if c is not None:
                    rc = combos[pos]
                    nrc = len(rc)
                    if p is None:
                        for k in range(min(len(c), nrc)):
                            c[k] = c[k] - x * rc[k]
                    else:
                        for k in range(min(len(c), nrc)):
                            c[k] = (c[k] - x * rc[k]) % p
        j = 0
        while j < width and not v[j]:
            j += 1
        if j == width:
            return False
        inv = coeff.invert(v[j])
        if p is None:
            v = [inv * x for x in v]
            if c is not None:
                c = [inv * x for x in c]
        else:
            v = [(inv * x) % p for x in v]
            if c is not None:
                c = [(inv * x) % p for x in c]
        pos = 0
        while pos < len(pivots) and pivots[pos] < j:
            pos += 1
        rows.insert(pos, v)
        pivots.insert(pos, j)
        if self.track:
            combos.insert(pos, c)
        # re-reduce earlier rows against the new pivot
        for q in range(pos):
            row = rows[q]
            x = row[j]
            if x:
                if p is None:
                    for k in range(j, width):
                        row[k] = row[k] - x * v[k]
                else:
                    for k in range(j, width):
                        row[k] = (row[k] - x * v[k]) % p
                if self.track:
                    rc, nc = self.combos[q], c
                    while len(rc) < len(nc):
                        rc.append(zero)
                    if p is None:
                        for k in range(len(nc)):
                            rc[k] = rc[k] - x * nc[k]
                    else:
                        for k in range(len(nc)):
                            rc[k] = (rc[k] - x * nc[k]) % p
        return True

    def _reduce_above(self, pos: int):
        # keep entries above each integer pivot in [0, pivot)
        if self.coeff.kind != Coeff.INTEGERS:
            return
        rows, pivots = self.rows, self.pivots
        j = pivots[pos]
        piv = rows[pos][j]
        width = self.width
        for q in range(pos):
            x = rows[q][j]
            qq = x // piv
            if qq:
                rq, rp = rows[q], rows[pos]
                for k in range(j, width):
                    rq[k] -= qq * rp[k]
                if self.track:
                    rc, pc = self.combos[q], self.combos[pos]
                    while len(rc) < len(pc):
                        rc.append(0)
                    for k in range(len(pc)):
                        rc[k] -= qq * pc[k]

    def add_mat(self, m: Mat) -> bool:
        changed = False
        for row in m.rows:
            if self.add(row):
                changed = True
        return changed

    def reduce(self, vec):
        """Residue of vec modulo the span; zero iff vec lies in the span."""
        coeff = self.coeff
        v = [coeff.normalize(x) for x in vec]
        if coeff.kind == Coeff.INTEGERS:
            for pos, j in enumerate(self.pivots):
                if v[j]:
                    row = self.rows[pos]
                    q = v[j] // row[j]
                    if q:
                        for k in range(j, self.width):
                            v[k] -= q * row[k]
            return v
        p = coeff.p if coeff.kind == Coeff.PRIME_FIELD else None
        for pos, j in enumerate(self.pivots):
            x = v[j]
            if x:
                row = self.rows[pos]
                if p is None:
                    for k in range(j, self.width):
                        v[k] = v[k] - x * row[k]
                else:
                    for k in range(j, self.width):
                        v[k] = (v[k] - x * row[k]) % p
        return v

    def contains(self, vec) -> bool:
        zero = self.coeff.zero()
        return not any(self.reduce(vec))

    def solve(self, vec):
        """Coefficients expressing vec over the *input* vectors, or None.

        Requires track=True.
        """
        if not self.track:
            raise ValueError("RowBasis built without tracking")
        coeff = self.coeff
        zero = coeff.zero()
        v = [coeff.normalize(x) for x in vec]
        out = [zero] * self._n_added
        if coeff.kind == Coeff.INTEGERS:
            for pos, j in enumerate(self.pivots):
                if v[j]:
                    row = self.rows[pos]
                    if v[j] % row[j]:
                        return None
                    q = v[j] // row[j]
                    for k in range(j, self.width):
                        v[k] -= q * row[k]
                    rc = self.combos[pos]
                    for k in range(len(rc)):
                        out[k] += q * rc[k]
            if any(v):
                return None
            return out
        p = coeff.p if coeff.kind == Coeff.PRIME_FIELD else None
        for pos, j in enumerate(self.pivots):
            x = v[j]
            if x:
                row = self.rows[pos]
                rc = self.combos[pos]
                if p is None:
                    for k in range(j, self.width):
                        v[k] = v[k] - x * row[k]
                    for k in range(len(rc)):
                        out[k] = out[k] + x * rc[k]
                else:
                    for k in range(j, self.width):
                        v[k] = (v[k] - x * row[k]) % p
                    for k in range(len(rc)):
                        out[k] = (out[k] + x * rc[k]) % p
        if any(v):
            return None
        return out

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        """True iff the span is the whole ambient module (Z^w or k^w)."""
        if len(self.rows) != self.width:
            return False
        if self.coeff.kind == Coeff.INTEGERS:
            one = 1
            return all(self.rows[i][self.pivots[i]] == one for i in range(self.width))
        return True

    def basis_mat(self) -> Mat:
        return Mat(
            self.coeff, len(self.rows), self.width,
            tuple(tuple(r) for r in self.rows),
        )

    def snapshot(self) -> tuple:
        """Canonical form of the current span (for equality tests).

        Over a field the basis is kept reduced eagerly; over Z one
        normalization pass (left-to-right over pivots) makes it the HNF.
        """
        if self.coeff.kind != Coeff.INTEGERS:
            return tuple(tuple(r) for r in self.rows)
        rows = [list(r) for r in self.rows]
        width = self.width
        for pos, j in enumerate(self.pivots):
            piv = rows[pos][j]
            for q in range(pos):
                x = rows[q][j]
                qq = x // piv
                if qq:
                    rq, rp = rows[q], rows[pos]
                    for k in range(j, width):
                        rq[k] -= qq * rp[k]
        return tuple(tuple(r) for r in rows)


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
    zero, one = m.coeff.zero(), m.coeff.one()
    for i, row in enumerate(m.rows):
        aug = list(row) + [zero] * n
        aug[w + i] = one
        b.add(aug)
    rows = tuple(
        tuple(b.rows[pos][w:])
        for pos in range(len(b.rows))
        if b.pivots[pos] >= w
    )
    return Mat(m.coeff, len(rows), n, rows)

