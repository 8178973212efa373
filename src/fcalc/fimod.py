"""Truncated FI-modules and the difference-functor calculus.

A ``TruncFIModule`` holds a functor from finite sets and injections to
modules, recorded up to a truncation level N: per-level presented modules,
the one-step inclusion maps (new last point), and the actions of the
adjacent transpositions.  On top of that sit the translation, difference
and kernel operations and the degree computations.

``levelwise`` is the one place that spells out this layout for a derived
functor (one inclusion per level n -> n + 1, the transpositions
s_1 .. s_{n-1} at level n): sub-objects, sums, tensor and Schur powers and
the free normalization each give it only the image of one structure
matrix.

Truncation discipline: translation and difference consume window, so every
degree answer carries the window on which it is certified.  A "true" or a
numeric degree never claims more than the window shows.

Convention for translation: ``shift(F, x)`` stores F(n+x) at level n with
the functorial variable occupying the FIRST n points and the x translation
points the LAST x.  The canonical map F -> shift(F, x) is then literally
the composite of the stored inclusions, and the inclusion map of the
shifted functor inserts the new point just before the translation block
(the stored inclusion composed with a cycle of transpositions).
"""
from __future__ import annotations

from bisect import bisect
from contextlib import contextmanager
from itertools import combinations, combinations_with_replacement, product

from .exactlin import (
    Coeff, Mat, ModuleMap, PresentedModule, basis_matrix,
    check_exact, cokernel, direct_sum_modules, factor_through, freeify_module,
    is_isomorphism, kernel,
)
from .exactlin.matrix import mul_row_mat


class FunctorError(Exception):
    pass


class WindowError(FunctorError):
    """An operation needed more truncation window than is available."""


@contextmanager
def json_field(name: str):
    """Re-raise a malformed-input error as a FunctorError naming the JSON
    field it was found in; nested fields read outside in."""
    try:
        yield
    except (FunctorError, TypeError, ValueError, KeyError) as exc:
        raise FunctorError(f"{name}: {exc}") from None


def json_list(value, name: str, length: int | None = None) -> list:
    """value, checked to be a JSON list (of the given length)."""
    if not isinstance(value, list):
        raise FunctorError(f"{name} must be a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise FunctorError(f"{name} has {len(value)} entries, expected {length}")
    return value


NEG_INF = "-inf"
NOT_CERTIFIED = "not certified"


class DegreeReport:
    """Outcome of a degree computation.

    value is an int, "-inf" (stably null / zero), or "not certified";
    window is the inclusive level range on which the certificate holds.

    For the weak degree d the window counts levels of G = δ^{d+1}F, the
    first difference found stably null, not levels of F: it is
    [0, G.N - margin].  Its upper certificate, G stably null there,
    persists as N grows, since an element dead by one level is dead at
    every later one.  The lower side, δ^d F not stably null within the
    margin, holds for the truncation only, so the value can rise with N
    at the same window and margin.
    """

    def __init__(self, value, window=None, margin=None):
        if isinstance(value, int):
            if window is None or window[1] < window[0]:
                raise FunctorError("numeric degree needs a non-empty window")
        self.value = value
        self.window = window
        self.margin = margin

    @property
    def certified(self) -> bool:
        return self.value != NOT_CERTIFIED

    def __eq__(self, other):
        if isinstance(other, DegreeReport):
            return (self.value, self.window, self.margin) == (
                other.value, other.window, other.margin)
        return self.value == other

    def __repr__(self):
        return f"DegreeReport({self.value!r}, window={self.window}, margin={self.margin})"

    def __str__(self):
        s = f"degree = {self.value}"
        if self.window is not None:
            s += f", window [{self.window[0]},{self.window[1]}]"
        if self.margin is not None:
            s += f", margin {self.margin}"
        return s


class DimProfile:
    """Per-level profiles with the finite-difference table of dimensions."""

    def __init__(self, profiles, dims, diffs, poly_degree, poly_from):
        self.profiles = profiles      # invariant-factor profile per level
        self.dims = dims              # numeric row: dim (fields) / free rank (Z)
        self.diffs = diffs            # diffs[0] is dims, diffs[k+1] differences
        self.poly_degree = poly_degree
        self.poly_from = poly_from

    def __repr__(self):
        return (f"DimProfile(dims={self.dims}, poly_degree={self.poly_degree}, "
                f"poly_from={self.poly_from})")


class TruncFIModule:
    """A functor on finite sets and injections, truncated at level N.

    levels[n]   -- PresentedModule at the set of size n, 0 <= n <= N
    incl[n]     -- ModuleMap levels[n] -> levels[n+1] (new last point)
    sym[n]      -- matrices of the adjacent transpositions s_1..s_{n-1}
    """

    def __init__(self, coeff: Coeff, levels, incl, sym):
        self.coeff = coeff
        self.levels = tuple(levels)
        self.N = len(self.levels) - 1
        if self.N < 0:
            raise FunctorError("a truncated functor needs at least level 0")
        self.incl = tuple(incl)
        self.sym = tuple(tuple(s) for s in sym)
        if len(self.incl) != self.N:
            raise FunctorError(f"expected {self.N} inclusion maps, got {len(self.incl)}")
        if len(self.sym) != self.N + 1:
            raise FunctorError("one transposition list per level expected")
        for n, mats in enumerate(self.sym):
            if len(mats) != max(n - 1, 0):
                raise FunctorError(
                    f"level {n} needs {max(n - 1, 0)} transpositions, got {len(mats)}")

    # -- basic access ----------------------------------------------------

    def sym_map(self, n: int, i: int) -> ModuleMap:
        """The action of s_{i+1} on level n (i is 0-indexed)."""
        return ModuleMap(self.levels[n], self.levels[n], self.sym[n][i])

    def unit_to(self, n: int, m: int) -> ModuleMap:
        """The composite inclusion levels[n] -> levels[m], n <= m <= N."""
        if not (0 <= n <= m <= self.N):
            raise WindowError(f"no inclusion composite {n} -> {m} at truncation {self.N}")
        f = ModuleMap.identity(self.levels[n])
        for k in range(n, m):
            f = f.then(self.incl[k])
        return f

    def perm_matrix(self, n: int, perm) -> Mat:
        """Matrix of the action of a permutation on level n.

        perm is a sequence with perm[i] = image of point i+1 (1-indexed).
        """
        return perm_action(self.coeff, self.levels[n].gens, self.sym[n], perm)

    def is_zero_functor(self) -> bool:
        return all(m.is_zero() for m in self.levels)

    def structurally_equal(self, other: "TruncFIModule") -> bool:
        return (
            self.coeff == other.coeff
            and self.N == other.N
            and all(a.same_presentation(b) for a, b in zip(self.levels, other.levels))
            and all(a.mat == b.mat for a, b in zip(self.incl, other.incl))
            and self.sym == other.sym
        )

    def profile_eq(self, other: "TruncFIModule") -> bool:
        return (
            self.coeff == other.coeff
            and self.N == other.N
            and all(a.profile_eq(b) for a, b in zip(self.levels, other.levels))
        )

    def __repr__(self):
        dims = [m.invariant_factors() for m in self.levels]
        return f"TruncFIModule({self.coeff.code}, N={self.N}, profiles={dims})"

    # -- structural invariants -------------------------------------------

    def verify(self) -> list[str]:
        """Check all structural invariants; returns a list of violations."""
        bad = [f"level {n}: {v}" for n in range(self.N + 1)
               for v in coxeter_violations(self.levels[n], self.sym[n])]
        for n in range(self.N):
            inc = self.incl[n]
            if not inc.is_well_defined():
                bad.append(f"inclusion at level {n} does not respect the relations")
                continue
            for i in range(max(n - 1, 0)):
                left = self.sym_map(n, i).then(inc)
                right = inc.then(self.sym_map(n + 1, i))
                if not left.equals(right):
                    bad.append(f"inclusion at level {n} not equivariant for s_{i+1}")
        for n in range(self.N - 1):
            two = self.incl[n].then(self.incl[n + 1])
            swap_new = self.sym_map(n + 2, n)  # transposition of the added pair
            if not two.then(swap_new).equals(two):
                bad.append(
                    f"levels {n}->{n+2}: transposition of the two added points "
                    "moves the image")
        return bad

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """The JSON form, for ``cli.emit``, with every matrix a ``Mat``
        leaf, which the writer prints as dense rows of scalar strings."""
        return {
            "coeff": self.coeff.code,
            "N": self.N,
            "levels": [{"gens": m.gens, "rels": m.rels} for m in self.levels],
            "incl": [f.mat for f in self.incl],
            "sym": [list(mats) for mats in self.sym],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TruncFIModule":
        """Parse the JSON form; every matrix must have exactly its declared
        shape, and a malformed field raises FunctorError naming it."""
        with json_field("coeff"):
            coeff = Coeff.parse(data["coeff"])
        levels = []
        for n, entry in enumerate(json_list(data["levels"], "levels")):
            with json_field(f"levels[{n}]"):
                levels.append(PresentedModule.from_json(entry, coeff))
        N = len(levels) - 1
        with json_field("N"):
            if type(data["N"]) is not int:
                raise ValueError(f"expected an integer, got {data['N']!r}")
            if data["N"] != N:
                raise ValueError("does not match the number of levels")
        incl = []
        for n, mat in enumerate(json_list(data["incl"], "incl", N)):
            with json_field(f"incl[{n}]"):
                m = Mat.from_json(coeff, mat, (levels[n].gens, levels[n + 1].gens))
            incl.append(ModuleMap(levels[n], levels[n + 1], m))
        sym = []
        for n, mats in enumerate(json_list(data["sym"], "sym", N + 1)):
            g = levels[n].gens
            lvl_sym = []
            for i, s in enumerate(json_list(mats, f"sym[{n}]")):
                with json_field(f"sym[{n}][{i}]"):
                    lvl_sym.append(Mat.from_json(coeff, s, (g, g)))
            sym.append(lvl_sym)
        return cls(coeff, levels, incl, sym)


def perm_word(perm) -> list[int]:
    """Adjacent-transposition word for a permutation, as 0-indexed positions.

    Returns w with perm = s_{w[0]+1} o s_{w[1]+1} o ... (rightmost applied
    first); bubble sort on the one-line notation.

    >>> perm_word((2, 1))
    [0]
    >>> perm_word((1, 2, 3))
    []
    """
    p = list(perm)
    word = []
    for limit in range(len(p) - 1, 0, -1):
        for i in range(limit):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i)
    # the recorded swaps sort p; the permutation is their reverse product
    return word[::-1]


def perm_action(coeff: Coeff, gens: int, sym, perm) -> Mat:
    """Matrix of a permutation acting on a module with the given number of
    generators, where sym[i] is the action of s_{i+1}.

    perm is a sequence with perm[i] = image of point i+1 (1-indexed).

    The running product is kept as sparse rows, so a letter of the word
    costs the nonzero entries it touches: O(gens) for a permutation matrix.

    >>> swap = Mat.from_rows(Coeff.Z(), [[0, 1], [1, 0]])
    >>> perm_action(Coeff.Z(), 2, [swap], (2, 1)) == swap
    True
    """
    rows = Mat.identity(coeff, gens).sparse_rows()
    # sigma = s_{w1} o s_{w2} o ... applied right-to-left, so the
    # row-convention matrix multiplies left-to-right in reversed order
    for i in reversed(perm_word(perm)):
        letter = sym[i].sparse_rows()
        rows = tuple([mul_row_mat(coeff, row, letter) for row in rows])
    return Mat.from_sparse(coeff, gens, gens, rows)


def coxeter_violations(m: PresentedModule, sym) -> list[str]:
    """The relations of the Coxeter presentation of the symmetric group
    that the transposition matrices sym fail as maps of the module m:
    each s_i must respect the relations and be an involution, adjacent
    ones must satisfy the braid relation and distant ones commute.

    >>> swap = Mat.from_rows(Coeff.Q(), [[0, 1], [1, 0]])
    >>> one = Mat.identity(Coeff.Q(), 2)
    >>> coxeter_violations(PresentedModule.free(Coeff.Q(), 2), [swap, one])
    ['braid relation fails at s_1, s_2']
    """
    maps = [ModuleMap(m, m, s) for s in sym]
    one = ModuleMap.identity(m)
    bad = []
    for i, a in enumerate(maps):
        if not a.is_well_defined():
            bad.append(f"s_{i+1} does not respect the relations")
        elif not a.then(a).equals(one):
            bad.append(f"s_{i+1} is not an involution")
    for i, (a, b) in enumerate(zip(maps, maps[1:])):
        if not a.then(b).then(a).equals(b.then(a).then(b)):
            bad.append(f"braid relation fails at s_{i+1}, s_{i+2}")
    for i, a in enumerate(maps):
        for j, b in enumerate(maps[i + 2:], i + 2):
            if not a.then(b).equals(b.then(a)):
                bad.append(f"distant transpositions s_{i+1}, s_{j+1} "
                           "do not commute")
    return bad


class NatMap:
    """A levelwise family of module maps between truncated functors."""

    def __init__(self, src: TruncFIModule, dst: TruncFIModule, maps):
        if src.N != dst.N:
            raise FunctorError("natural map between different truncations")
        self.src = src
        self.dst = dst
        self.maps = tuple(maps)
        if len(self.maps) != src.N + 1:
            raise FunctorError("one component per level expected")

    def is_natural(self) -> bool:
        if not all(f.is_well_defined() for f in self.maps):
            return False
        for n in range(self.src.N):
            left = self.maps[n].then(self.dst.incl[n])
            right = self.src.incl[n].then(self.maps[n + 1])
            if not left.equals(right):
                return False
        for n in range(self.src.N + 1):
            for i in range(len(self.src.sym[n])):
                left = self.src.sym_map(n, i).then(self.maps[n])
                right = self.maps[n].then(self.dst.sym_map(n, i))
                if not left.equals(right):
                    return False
        return True

    def is_levelwise_iso(self) -> bool:
        return all(is_isomorphism(f) for f in self.maps)


def truncate(F: TruncFIModule, M: int) -> TruncFIModule:
    if M > F.N or M < 0:
        raise WindowError(f"cannot truncate at {M}, window is [0, {F.N}]")
    return TruncFIModule(F.coeff, F.levels[:M + 1], F.incl[:M], F.sym[:M + 1])


def insertion_map(F: TruncFIModule, n: int, x: int) -> ModuleMap:
    """F applied to the injection n+x -> n+1+x fixing 1..n and shifting the
    last x points up by one (insertion just before the translation block)."""
    f = F.incl[n + x]
    mat = f.mat
    for i in range(n + x - 1, n - 1, -1):
        # s_{i+1} at level n+x+1, applied left to right in decreasing order
        mat = mat @ F.sym[n + x + 1][i]
    return ModuleMap(F.levels[n + x], F.levels[n + x + 1], mat)


def shift(F: TruncFIModule, x: int) -> TruncFIModule:
    """The translation of F by x: level n holds F(n+x).

    >>> from .corpus import build
    >>> shift(build("const", "Z", 4), 2).N
    2
    """
    if x < 0 or x > F.N:
        raise WindowError(f"shift by {x} exceeds the window [0, {F.N}]")
    if x == 0:
        return F
    M = F.N - x
    levels = [F.levels[n + x] for n in range(M + 1)]
    incl = [insertion_map(F, n, x) for n in range(M)]
    sym = [[F.sym[n + x][i] for i in range(max(n - 1, 0))] for n in range(M + 1)]
    return TruncFIModule(F.coeff, levels, incl, sym)


def unit_map(F: TruncFIModule, x: int) -> NatMap:
    """The canonical map F -> shift(F, x): at each level the composite of
    the stored inclusions."""
    if x < 0 or x > F.N:
        raise WindowError(f"unit map for x={x} exceeds the window [0, {F.N}]")
    M = F.N - x
    return NatMap(truncate(F, M), shift(F, x),
                  [F.unit_to(n, n + x) for n in range(M + 1)])


def levelwise(levels, image, *functors) -> TruncFIModule:
    """The functor on the given levels whose structure matrices are
    image(n, m, a, ...) of the matching structure matrices a, ... of the
    functors: m = n + 1 for an inclusion, m = n for a transposition."""
    incl = [ModuleMap(levels[n], levels[n + 1],
                      image(n, n + 1, *[F.incl[n].mat for F in functors]))
            for n in range(len(levels) - 1)]
    sym = [[image(n, n, *mats) for mats in zip(*[F.sym[n] for F in functors])]
           for n in range(len(levels))]
    return TruncFIModule(functors[0].coeff, levels, incl, sym)


def induced_structure(F: TruncFIModule, incls) -> TruncFIModule:
    """The subfunctor of F on the levels 0..len(incls)-1 carried by the
    levelwise inclusions incls[n]: K(n) -> F(n), with the inclusion maps
    and transpositions of F factored through them."""
    def image(n, m, a):
        return factor_through(ModuleMap(incls[n].src, F.levels[m],
                                        incls[n].mat @ a), incls[m]).mat
    return levelwise([inc.src for inc in incls], image, F)


def kernel_nat(u: NatMap) -> tuple[TruncFIModule, NatMap]:
    """Levelwise kernel with the induced functor structure."""
    incls = [kernel(f)[1] for f in u.maps]
    K = induced_structure(u.src, incls)
    return K, NatMap(K, u.src, incls)


def cokernel_nat(u: NatMap) -> tuple[TruncFIModule, NatMap]:
    """Levelwise cokernel with the induced functor structure: a quotient
    keeps its target's matrices."""
    levels, projs = zip(*map(cokernel, u.maps))
    C = levelwise(levels, lambda n, m, a: a, u.dst)
    return C, NatMap(u.dst, C, projs)


def diff(F: TruncFIModule, x: int = 1) -> TruncFIModule:
    """The difference functor: levelwise cokernel of F -> shift(F, x).

    >>> from .corpus import build
    >>> [m.invariant_factors() for m in diff(build("zgeq(2)", "Z", 4)).levels]
    [[0], [1], [0], [0]]
    """
    if x > F.N:
        raise WindowError(f"diff by {x} exceeds the window [0, {F.N}]")
    C, _ = cokernel_nat(unit_map(F, x))
    return C

def kappa(F: TruncFIModule, x: int = 1) -> TruncFIModule:
    """The kernel functor: levelwise kernel of F -> shift(F, x)."""
    if x > F.N:
        raise WindowError(f"kappa by {x} exceeds the window [0, {F.N}]")
    K, _ = kernel_nat(unit_map(F, x))
    return K


def is_stably_null(F: TruncFIModule, margin: int = 2) -> bool:
    """True iff every level up to N - margin dies in F(N).

    A certificate on the window only: the colimit genuinely vanishing is a
    statement about all levels, which a truncation cannot see.
    """
    top = F.N - margin
    if top < 0:
        raise WindowError(f"margin {margin} empties the window [0, {F.N}]")
    return all(F.unit_to(n, F.N).is_zero_map() for n in range(top + 1))


def stable_kernel(F: TruncFIModule, margin: int = 2) -> TruncFIModule:
    """The largest subfunctor dying by the top level, certified on
    [0, N - margin]."""
    top = F.N - margin
    if margin < 1 or top < 0:
        raise WindowError(f"margin {margin} empties the window [0, {F.N}]")
    return induced_structure(
        F, [kernel(F.unit_to(n, F.N))[1] for n in range(top + 1)])


def _degree(F: TruncFIModule, null_window, margin=None) -> DegreeReport:
    """Smallest d with the (d+1)-st difference of F null, where
    null_window(G) is the window on which G is certified null, or None,
    and raises WindowError once the window cannot certify anything."""
    G = F
    applied = 0
    while True:
        try:
            window = null_window(G)
        except WindowError:
            return DegreeReport(NOT_CERTIFIED, None, margin)
        if window is not None:
            return DegreeReport(applied - 1 if applied else NEG_INF, window, margin)
        if G.N < 1:
            return DegreeReport(NOT_CERTIFIED, None, margin)
        G = diff(G)
        applied += 1


def strong_degree(F: TruncFIModule) -> DegreeReport:
    """Smallest d with the (d+1)-st difference zero on its window.

    >>> from .corpus import build
    >>> strong_degree(build("zgeq(2)", "Z", 6)).value
    2
    """
    return _degree(F, lambda G: (0, G.N) if G.is_zero_functor() else None)


def weak_degree(F: TruncFIModule, margin: int = 2) -> DegreeReport:
    """Smallest d with the (d+1)-st difference stably null at the margin."""
    if margin < 1:
        raise FunctorError("margin must be at least 1")
    return _degree(F, lambda G: (0, G.N - margin)
                   if is_stably_null(G, margin) else None, margin)


def generation_degree(F: TruncFIModule) -> DegreeReport:
    """Smallest r such that the values on sets of size <= r span every
    level of the window (images under all injections, i.e. the symmetric-
    group saturation of the composite inclusions)."""
    if F.N < 1:
        raise FunctorError("generation degree needs window at least [0, 1]")
    needed = 0
    for n in range(1, F.N + 1):
        lvl = F.levels[n]
        r_min = None
        if lvl.is_zero():
            r_min = 0
        else:
            span = lvl.rel_span().fork()
            gen_mats = [s.sparse_rows() for s in F.sym[n]]
            for r in range(0, n):
                comp = F.unit_to(r, n)
                queue = list(comp.mat.sparse_rows())
                for v in queue:
                    span.add(v)
                # close under the transposition actions
                while queue:
                    v = queue.pop()
                    for s in gen_mats:
                        w = mul_row_mat(F.coeff, v, s)
                        if span.add(w):
                            queue.append(w)
                if span.is_full():
                    r_min = r
                    break
            if r_min is None:
                r_min = n
        needed = max(needed, r_min)
    return DegreeReport(needed, (0, F.N))


def dim_profile(F: TruncFIModule) -> DimProfile:
    """Profiles, the finite-difference table, and the eventual-polynomiality
    witness (over Z the numeric row is the free rank)."""
    profiles = [m.invariant_factors() for m in F.levels]
    dims = [p[0] for p in profiles]
    diffs = [list(dims)]
    while len(diffs[-1]) > 1:
        prev = diffs[-1]
        diffs.append([b - a for a, b in zip(prev, prev[1:])])
    poly_degree = None
    poly_from = None
    for d in range(len(diffs) - 1):
        row = diffs[d + 1]
        if not row:
            break
        s = len(row)
        while s > 0 and row[s - 1] == 0:
            s -= 1
        if s < len(row):
            poly_degree = d
            poly_from = s
            break
    return DimProfile(profiles, dims, diffs, poly_degree, poly_from)


def direct_sum(F: TruncFIModule, G: TruncFIModule) -> TruncFIModule:
    if F.coeff != G.coeff or F.N != G.N:
        raise FunctorError("direct sum needs matching coefficients and truncation")
    levels = [direct_sum_modules(a, b) for a, b in zip(F.levels, G.levels)]
    return levelwise(levels, lambda n, m, a, b: a.block_diag(b), F, G)


def tensor(F: TruncFIModule, G: TruncFIModule) -> TruncFIModule:
    """Levelwise tensor product with the diagonal action (fields only)."""
    if F.coeff != G.coeff or F.N != G.N:
        raise FunctorError("tensor needs matching coefficients and truncation")
    if not F.coeff.is_field:
        raise FunctorError("tensor requires field coefficients")
    coeff = F.coeff
    levels = []
    for a, b in zip(F.levels, G.levels):
        gens = a.gens * b.gens
        rels = a.rels.kron(Mat.identity(coeff, b.gens)).stack(
            Mat.identity(coeff, a.gens).kron(b.rels))
        levels.append(PresentedModule(coeff, gens, rels))
    return levelwise(levels, lambda n, m, a, b: a.kron(b), F, G)


# -- Schur-type postcomposition ------------------------------------------

# each power's basis words of length k in the letters: every word for T
# (lexicographic, which is kron's order), sorted words for S, strictly
# increasing words for L
_WORDS = {"T": lambda letters, k: product(letters, repeat=k),
          "S": combinations_with_replacement, "L": combinations}


def _power_mat(m: Mat, kind: str, k: int) -> Mat:
    """The matrix of the k-th tensor ("T"), symmetric ("S") or exterior
    ("L") power of the map m.

    Row I is the product of the rows of m in I, expanded over one nonzero
    entry per row.  Each term's word of columns is put on its basis word
    as it grows: T keeps it, S sorts it, and L sorts it with the sign of
    the sorting permutation and drops it when a column repeats, so that an
    L entry is the k x k minor expanded by Leibniz.
    """
    coeff, sparse = m.coeff, m.sparse_rows()
    words = _WORDS[kind]

    def expand(I):
        acc = {(): 1}
        for i in I:
            nxt = {}
            for word, c in acc.items():
                n = len(word)
                for j, a in sparse[i]:
                    pos = n if kind == "T" else bisect(word, j)
                    if kind == "L":
                        if pos and word[pos - 1] == j:
                            continue
                        if (n - pos) % 2:
                            a = -a
                    key = word[:pos] + (j,) + word[pos:]
                    nxt[key] = nxt.get(key, 0) + c * a
            acc = nxt
        return [(word, coeff.normalize(x)) for word, x in acc.items()]

    return basis_matrix(coeff, words(range(m.nrows), k),
                        words(range(m.ncols), k), expand)


def parse_schur(token: str) -> tuple[str, int]:
    """Parse "T2", "S^3", "L2" (L = exterior power) into (kind, k)."""
    token = token.replace("^", "")
    kind = token[0].upper()
    if kind not in _WORDS:
        raise FunctorError(f"unknown power functor {token!r} (use T/S/L)")
    return kind, int(token[1:])


def freeify(F: TruncFIModule) -> tuple[TruncFIModule, NatMap]:
    """Over a field: replace every level by a free presentation, with a
    witness isomorphism from F to the result."""
    if not F.coeff.is_field:
        raise FunctorError("freeify needs field coefficients")
    levels, to_free, from_free = zip(*map(freeify_module, F.levels))
    G = levelwise(levels,
                  lambda n, m, a: from_free[n].mat @ a @ to_free[m].mat, F)
    return G, NatMap(F, G, to_free)


def postcompose(F: TruncFIModule, schur: str) -> TruncFIModule:
    """Postcompose with a tensor, symmetric or exterior power (fields only).

    >>> from .corpus import build
    >>> dim_profile(postcompose(build("P(1)", "Q", 4), "L2")).dims
    [0, 0, 1, 3, 6]
    """
    kind, k = parse_schur(schur)
    if not F.coeff.is_field:
        raise FunctorError("power functors are implemented over fields only")
    base = F
    if any(m.rels.nrows and not m.rels.is_zero() for m in F.levels):
        base, _ = freeify(F)
    levels = [PresentedModule.free(base.coeff, _power_mat(
        Mat.identity(base.coeff, m.gens), kind, k).nrows) for m in base.levels]
    return levelwise(levels, lambda n, m, a: _power_mat(a, kind, k), base)


# -- six-term sequence and exactness transfer ------------------------------

def _six_term_exact(units, src_maps, dst_mats, connect) -> bool:
    """Exactness of
    0 -> ker u1 -> ker u2 -> ker u3 -> coker u1 -> coker u2 -> coker u3 -> 0
    for the maps units = (u1, u2, u3), joined by src_maps = (a, b) between
    their sources and dst_mats = (A, B) between their targets.
    connect(i3, p1) is the connecting map ker u3 -> coker u1, given the
    inclusion of ker u3 and the projection onto coker u1."""
    (k1, i1), (_, i2), (_, i3) = map(kernel, units)
    (c1, p1), (c2, _), (c3, _) = map(cokernel, units)
    zero = PresentedModule.zero(k1.coeff)
    return check_exact([
        ModuleMap.zero_map(zero, k1),
        factor_through(i1.then(src_maps[0]), i2),
        factor_through(i2.then(src_maps[1]), i3),
        connect(i3, p1),
        ModuleMap(c1, c2, dst_mats[0]),
        ModuleMap(c2, c3, dst_mats[1]),
        ModuleMap.zero_map(c3, zero),
    ])


def verify_six_term(F: TruncFIModule) -> bool:
    """Levelwise exactness of
    0 -> ker(u) -> ker(vu) -> ker(v) -> coker(u) -> coker(vu) -> coker(v) -> 0
    for u the one-step unit map and v its translate (x = y = one point).

    >>> from .corpus import build
    >>> verify_six_term(build("zgeq(2)", "Z", 5))
    True
    """
    if F.N < 2:
        raise WindowError("six-term check needs window at least [0, 2]")
    for n in range(F.N - 1):
        u, v = F.incl[n], F.incl[n + 1]
        if not _six_term_exact(
                (u, u.then(v), v), (ModuleMap.identity(u.src), u),
                (v.mat, Mat.identity(F.coeff, v.dst.gens)),
                lambda i3, p1: i3.then(p1)):
            return False
    return True


def exactness_transfer(i: NatMap, p: NatMap, x: int = 1) -> bool:
    """For a levelwise short exact sequence F >-> G ->> H, check that
    0 -> kF -> kG -> kH -> dF -> dG -> dH -> 0 is exact at every level
    that the window allows (k and d the kernel/cokernel of the x-unit)."""
    F, G, H = i.src, i.dst, p.dst
    M = F.N - x
    if M < 0:
        raise WindowError("window too small for the exactness transfer")
    for n in range(M + 1):
        ug = G.unit_to(n, n + x)

        def connect(i3, p1):
            # lift a kernel class of H to G, push up, pull back along the
            # inclusion at the top, project to the cokernel of F
            lifted = factor_through(i3, p.maps[n])
            return factor_through(lifted.then(ug), i.maps[n + x]).then(p1)

        if not _six_term_exact(
                (F.unit_to(n, n + x), ug, H.unit_to(n, n + x)),
                (i.maps[n], p.maps[n]),
                (i.maps[n + x].mat, p.maps[n + x].mat), connect):
            return False
    return True
