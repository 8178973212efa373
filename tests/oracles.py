"""Reference computations that only the tests use: brute-force oracles
for the library's strategies, random representation lists, the plain
JSON data of outputs, and a type-free text form of it for digests."""
from itertools import accumulate, combinations, permutations

from fcalc.cattilde import CatError, TildeHom, _normal_form
from fcalc.exactlin import Coeff, Mat, PresentedModule, RowBasis
from fcalc.fimod import TruncFIModule, insertion_map, perm_word
from fcalc.fisharp import FISharpModule, SymRep, epsilon_idem


def as_text(x):
    """x with every scalar replaced by ``str(x)``, through lists, tuples
    (both become lists) and dict values; booleans and None stay.  A digest
    of its ``repr`` pins values and not scalar types:
    ``str(Fraction(1)) == str(1)``, while ``repr`` tells them apart."""
    if isinstance(x, (list, tuple)):
        return [as_text(y) for y in x]
    if isinstance(x, dict):
        return {k: as_text(v) for k, v in x.items()}
    if x is None or isinstance(x, bool):
        return x
    return str(x)


def mat_json(m: Mat) -> list[list[str]]:
    """The dense rows of m, each entry its ``scalar_str``: the form in
    which ``cli.emit`` writes a matrix, built entry by entry."""
    s = m.coeff.scalar_str
    blank = ["0"] * m.ncols
    out = []
    for srow in m.sparse_rows():
        row = blank.copy()
        for j, x in srow:
            row[j] = s(x)
        out.append(row)
    return out


def plain(x):
    """The plain JSON data that ``cli.emit`` writes for x, a ``to_json()``
    form or a list of classes: each ``Mat`` leaf as its dense rows
    (``mat_json``) and each ``TildeHom`` as ``{"domain": [..], "values":
    [..]}``, the part of its representative landing in the b block,
    through dicts, lists and tuples (both become lists)."""
    if isinstance(x, Mat):
        return mat_json(x)
    if isinstance(x, TildeHom):
        # read off the representative, not through as_partial
        f, b = x.rep_map, x.b
        return {"domain": [i for i, v in enumerate(f, 1) if v <= b],
                "values": [v for v in f if v <= b]}
    if isinstance(x, (list, tuple)):
        return [plain(y) for y in x]
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    return x


def mod_p(M: PresentedModule, p: int) -> PresentedModule:
    """M (x) F_p for a module M over Z: the same generators, with the
    relations read mod p."""
    Fp = Coeff.GF(p)
    rows = tuple(tuple((j, x % p) for j, x in row if x % p)
                 for row in M.rels.sparse_rows())
    return PresentedModule(Fp, M.gens,
                           Mat.from_sparse(Fp, len(rows), M.gens, rows))


def uct_dimension(M: PresentedModule, p: int) -> int:
    """dim over F_p of M (x) F_p for M over Z, by the universal
    coefficients: the free rank plus the number of invariant factors
    divisible by p."""
    free, *torsion = M.invariant_factors()
    return free + sum(1 for d in torsion if d % p == 0)


def difference_rep(F: TruncFIModule, d: int, n: int) -> SymRep:
    """(delta^d F)(n) as a representation of the symmetric group on d
    letters, from F's levels, inclusions and transpositions alone: F(n + d)
    modulo the images of F(n + d - 1) under the d injections that miss one
    of the last d points, with the group permuting those points by
    s_{n+1} .. s_{n+d-1}.  At n = 0 on an FI#-module this is the
    cross-effect by its cokernel description, with no idempotent."""
    m = n + d
    lvl = F.levels[m]
    rels = lvl.rels
    for i in range(n + 1, m + 1):
        # injection [m-1] -> [m] missing i: standard inclusion then the
        # cycle moving the new last point down to position i
        rels = rels.stack(insertion_map(F, i - 1, m - i).mat)
    return SymRep(d, PresentedModule(F.coeff, lvl.gens, rels),
                  F.sym[m][n:m - 1])


def colimit_over_injections(F: TruncFIModule) -> PresentedModule:
    """Brute-force colimit of F over its whole window: one generator block
    per level, coequalizing every injection between any two levels.

    Reference oracle for the chain-of-coinvariants strategy in alpha; only
    usable for small windows (it enumerates all injections).
    """
    coeff = F.coeff
    offsets = []
    total = 0
    for m in F.levels:
        offsets.append(total)
        total += m.gens
    rel_rows = []
    zero = coeff.zero()
    for n, m in enumerate(F.levels):
        for row in m.rels.rows:
            out = [zero] * total
            out[offsets[n]:offsets[n] + m.gens] = row
            rel_rows.append(out)
    # enough to coequalize all injections n -> n+1: they generate
    for n in range(F.N):
        src, dst = F.levels[n], F.levels[n + 1]
        for image in permutations(range(1, n + 2), n):
            # the injection k -> image[k-1]: standard inclusion followed by
            # the permutation with that one-line image
            missing = next(x for x in range(1, n + 2) if x not in image)
            perm = tuple(image) + (missing,)
            mat = F.incl[n].mat @ F.perm_matrix(n + 1, perm)
            for g in range(src.gens):
                out = [zero] * total
                out[offsets[n] + g] = coeff.one()
                row = mat.rows[g]
                for j, x in enumerate(row):
                    out[offsets[n + 1] + j] = coeff.normalize(
                        out[offsets[n + 1] + j] - x)
                rel_rows.append(out)
    rels = Mat(coeff, len(rel_rows), total, tuple(tuple(r) for r in rel_rows)) \
        if rel_rows else Mat(coeff, 0, total, ())
    return PresentedModule(coeff, total, rels)


def compose_partial(a, b, c, pf, pg):
    """Composition of partial injections (domain, values) the naive way."""
    dom_f, val_f = pf
    dom_g, val_g = pg
    gmap = dict(zip(dom_g, val_g))
    dom, val = [], []
    for i, v in zip(dom_f, val_f):
        if v in gmap:
            dom.append(i)
            val.append(gmap[v])
    return tuple(dom), tuple(val)


def tilde_hom_adjacent(cat, a, b, max_extra=None, *, members=None):
    """``cattilde.tilde_hom`` saturated under every generating arrow of
    every stage: each adjacent transposition of each stage t and the
    inclusion t - 1 -> t, where the category has one.  The rest (indices,
    representatives, counts, stopping rule, members) is tilde_hom's."""
    if a < 0 or b < 0:
        raise CatError("objects are non-negative counts")
    if max_extra is None:
        max_extra = a + 2 if cat.name == "theta" else max(a - b, 0) + 2
    stages = [sorted(cat.hom(a, b + t)) for t in range(max_extra + 1)]
    start = list(accumulate(map(len, stages), initial=0))
    parent = list(range(start[-1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx < ry:
            parent[ry] = rx
        elif ry < rx:
            parent[rx] = ry

    has_step = bool(cat.hom(0, 1))
    head = tuple(range(b + 1))
    for t2 in range(max_extra + 1):
        # the arrows into stage t2, as (source stage, u)
        arrows = [(t2, (*range(1, i), i + 1, i, *range(i + 2, t2 + 1)))
                  for i in range(1, t2)]
        if has_step and t2 > 0:
            arrows.append((t2 - 1, range(1, t2)))
        index = dict(zip(stages[t2], range(start[t2], start[t2 + 1])))
        for t, u in arrows:
            glue = head + tuple(b + x for x in u)
            for i, f in enumerate(stages[t], start[t]):
                j = index[tuple([glue[x] for x in f])]
                if i < j:
                    union(i, j)
    counts = list(accumulate(
        sum(parent[i] == i for i in range(start[t], start[t + 1]))
        for t in range(max_extra + 1)))
    first = next((t for t, maps in enumerate(stages) if maps), None)
    if first is None:
        if b + max_extra < a:
            raise CatError(
                f"hom colimit {cat.name}({a},{b}): no stage up to "
                f"t={max_extra} reaches {a}")
        first = 0
    if not any(counts[t] == counts[t + 1] == counts[t + 2]
               for t in range(first, max_extra - 1)):
        raise CatError(
            f"hom colimit {cat.name}({a},{b}) did not stabilize by t={max_extra}")
    classes = [TildeHom(cat, a, b, t, f, _normal_form(cat, a, b, f))
               for t, maps in enumerate(stages)
               for i, f in enumerate(maps, start[t]) if parent[i] == i]
    if len({h.normal for h in classes}) != len(classes):
        raise CatError("normal forms do not separate the computed classes")
    if members is not None:
        others = {i: [] for i in range(start[-1]) if parent[i] == i}
        for t, maps in enumerate(stages):
            for i, f in enumerate(maps, start[t]):
                root = find(i)
                if root != i:
                    others[root].append((t, f))
        members.extend(others.values())
    return classes


def moebius_sum(F: FISharpModule, n: int, subset) -> Mat:
    """e_I at level n by its definition, the alternating sum over the
    subsets J of I of (-1)^{|I - J|} epsilon_J: 2^|I| idempotents, where
    ``moebius_idem`` multiplies |I| + 1 of them."""
    I = tuple(sorted(set(subset)))
    lvl = F.levels[n]
    total = Mat.zero(F.coeff, lvl.gens, lvl.gens)
    for r in range(len(I) + 1):
        for J in combinations(I, r):
            term = epsilon_idem(F, n, J).mat
            total = total - term if (len(I) - r) % 2 else total + term
    return total


def word_product(coeff, gens: int, sym, perm) -> Mat:
    """The action of a permutation as the product of its
    adjacent-transposition word, identity @ sym[w_r] @ ... @ sym[w_1]:
    one ``Mat`` product per letter, where ``perm_action`` multiplies the
    running product's rows directly."""
    mat = Mat.identity(coeff, gens)
    for i in reversed(perm_word(perm)):
        mat = mat @ sym[i]
    return mat


def random_symrep(rng, coeff, k, max_blocks=2) -> SymRep:
    """A representation of the symmetric group on k letters: a direct sum
    of up to max_blocks trivial and permutation (on max(k, 1) points)
    blocks, drawn from rng."""
    blocks = [rng.choice(("triv", "nat"))
              for _ in range(rng.randint(0, max_blocks))]
    nat_dim = max(k, 1)
    dim = sum(1 if b == "triv" else nat_dim for b in blocks)
    module = PresentedModule.free(coeff, dim)
    sym = []
    for i in range(1, k):
        mat = Mat.identity(coeff, 0)
        for b in blocks:
            if b == "triv":
                blk = Mat.identity(coeff, 1)
            else:
                rows = [[coeff.zero()] * nat_dim for _ in range(nat_dim)]
                for j in range(nat_dim):
                    rows[j][j] = coeff.one()
                rows[i - 1][i - 1] = coeff.zero()
                rows[i][i] = coeff.zero()
                rows[i - 1][i] = coeff.one()
                rows[i][i - 1] = coeff.one()
                blk = Mat(coeff, nat_dim, nat_dim, tuple(tuple(r) for r in rows))
            mat = mat.block_diag(blk)
        sym.append(mat)
    return SymRep(k, module, sym)


def snapshot(b: RowBasis) -> tuple:
    """The canonical form of the span of b, for equality tests: its basis
    with every row reduced at every later pivot by the pivot quotient
    (floor division over Z, the entry itself over a field), which over Z
    is the HNF and over a field the basis as kept.  Dense rows."""
    coeff = b.coeff
    rows = [list(r) for r in b.basis_mat().rows]
    for pos, j in enumerate(b.pivots):
        pivot_row = rows[pos]
        for row in rows[:pos]:
            q = row[j] if coeff.is_field else row[j] // pivot_row[j]
            if q:
                row[:] = [coeff.normalize(x - q * y)
                          for x, y in zip(row, pivot_row)]
    return tuple(map(tuple, rows))


def submatrix(m: Mat, row_idx, col_idx) -> Mat:
    """The rows row_idx and columns col_idx of m, in the given orders:
    the minors the determinant oracles take."""
    dense = m.rows
    return Mat(m.coeff, len(row_idx), len(col_idx),
               [[dense[i][j] for j in col_idx] for i in row_idx])


class DenseRef:
    """Reference matrix arithmetic on dense rows (tuples of tuples), every
    entry computed the schoolbook way and passed through
    ``Coeff.normalize``: the oracle for ``Mat``'s sparse storage."""

    def __init__(self, coeff):
        self.coeff = coeff
        self.norm = coeff.normalize

    def rows(self, raw):
        return tuple(tuple(self.norm(x) for x in row) for row in raw)

    def zero(self, nrows, ncols):
        return ((0,) * ncols,) * nrows

    def identity(self, n):
        return tuple(tuple(1 if i == j else 0 for j in range(n))
                     for i in range(n))

    def basis_matrix(self, src, dst, image):
        out = []
        for b in src:
            row = [0] * len(dst)
            for c, x in image(b):
                row[dst.index(c)] = x
            out.append(tuple(row))
        return tuple(out)

    def matmul(self, a, b, ncols):
        inner = len(b)
        return tuple(tuple(self.norm(sum((ra[t] * b[t][j] for t in range(inner)), 0))
                           for j in range(ncols)) for ra in a)

    def add(self, a, b, sign=1):
        return tuple(tuple(self.norm(x + sign * y) for x, y in zip(ra, rb))
                     for ra, rb in zip(a, b))

    def block_diag(self, a, acols, b, bcols):
        return (tuple(ra + (0,) * bcols for ra in a)
                + tuple((0,) * acols + rb for rb in b))

    def kron(self, a, b):
        return tuple(tuple(self.norm(x * y) for x in ra for y in rb)
                     for ra in a for rb in b)

    def transpose(self, a, ncols):
        return tuple(tuple(row[j] for row in a) for j in range(ncols))

    def submatrix(self, a, row_idx, col_idx):
        return tuple(tuple(a[i][j] for j in col_idx) for i in row_idx)
