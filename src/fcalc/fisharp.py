"""Truncated FI#-modules: functors on finite sets with partial injections.

An ``FISharpModule`` extends the FI-module data with projection maps
(dropping the last point).  Any partial injection is a composite of
inclusions, projections and permutations, so this linear-size data
determines the whole functor; the epsilon idempotents make the
reconstruction canonical.

``linearize`` is the one builder of a functor given on bases (an FI- or
FI#-module, free or presented): the corpus's free and rank-one functors
and ``dold_kan_reconstruct`` give it their bases, the images of each
level's basis under the transpositions and those of basis elements under
the projections.  ``linearize_map`` is
the one builder of a natural map given on bases: the corpus's
augmentation, norm and extension maps give it the image of each basis
element.

On top of the raw structure live the commuting idempotents ``epsilon_I``,
their Moebius inversion ``e_I`` (a complete orthogonal family), the
cross-effects, the decomposition into symmetric-group representations and
its inverse, and the stabilized-translation left Kan extension ``alpha``
from FI-modules with its adjunction unit.  ``alpha``'s coinvariant stages
over one level form a chain, each the coinvariants of the previous one by
one more transposition, so each stage's relation span grows from the
previous one's.

The Moebius inversion is computed as a product, not as its alternating
sum: e_I = epsilon_I * prod_{i in I} (epsilon_I - epsilon_{I - {i}}).
Expanding the product and using epsilon_J epsilon_K = epsilon_{J cap K}
gives back the sum over J in I of (-1)^{|I - J|} epsilon_J, so |I| + 1
idempotents and |I| products stand in for 2^|I| idempotents; all but two
of those idempotents are conjugates of a neighbour by one transposition.
Each cross-effect inclusion, the image of e_{1..k} at level k, is
computed once per module and k, and the decomposition and the Dold-Kan
witness share it.
"""
from __future__ import annotations

from itertools import combinations

from .exactlin import (
    Coeff, Mat, ModuleMap, PresentedModule, basis_matrix,
    coinvariants, factor_through, freeify_module, image_in, invert_iso,
    is_isomorphism,
)
from .exactlin.matrix import image_rows
from .fimod import (
    FunctorError, NatMap, TruncFIModule, WindowError, coxeter_violations,
    insertion_map, json_field, json_list, perm_action, truncate,
)


class FISharpModule(TruncFIModule):
    """FI-module data plus projections: proj[n] maps level n+1 to level n
    (the partial injection leaving the new last point undefined)."""

    def __init__(self, coeff, levels, incl, sym, proj):
        super().__init__(coeff, levels, incl, sym)
        self.proj = tuple(proj)
        if len(self.proj) != self.N:
            raise FunctorError(f"expected {self.N} projection maps")
        self._cross_inclusions = {}  # k -> cross_effect_inclusion(self, k)

    def verify(self) -> list[str]:
        bad = super().verify()
        for n in range(self.N):
            if not self.proj[n].is_well_defined():
                bad.append(f"projection at level {n+1} does not respect relations")
                continue
            up_down = self.incl[n].then(self.proj[n])
            if not up_down.equals(ModuleMap.identity(self.levels[n])):
                bad.append(f"level {n}: proj o incl is not the identity")
            idem = self.proj[n].then(self.incl[n])
            for i in range(max(n - 1, 0)):
                s = self.sym_map(n + 1, i)
                if not s.then(idem).equals(idem.then(s)):
                    bad.append(
                        f"level {n+1}: incl o proj does not commute with s_{i+1}")
                left = s.then(self.proj[n])
                right = self.proj[n].then(self.sym_map(n, i))
                if not left.equals(right):
                    bad.append(f"projection at level {n+1} not equivariant for s_{i+1}")
        return bad

    def to_json(self) -> dict:
        data = super().to_json()
        data["proj"] = [f.mat for f in self.proj]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FISharpModule":
        base = TruncFIModule.from_json(data)
        coeff, levels = base.coeff, base.levels
        proj = []
        for n, mat in enumerate(json_list(data["proj"], "proj", base.N)):
            with json_field(f"proj[{n}]"):
                m = Mat.from_json(coeff, mat, (levels[n + 1].gens, levels[n].gens))
            proj.append(ModuleMap(levels[n + 1], levels[n], m))
        return cls(coeff, levels, base.incl, base.sym, proj)


def eta_restrict(F: FISharpModule) -> TruncFIModule:
    """Forget the projections: the underlying FI-module."""
    return TruncFIModule(F.coeff, F.levels, F.incl, F.sym)


def linearize(coeff: Coeff, bases, act, drop=None, rels=None) -> TruncFIModule:
    """The functor given on bases: level n has the basis bases[n], and is
    free or carries the relation rows rels(n).

    The inclusion sends a basis element to itself in bases[n + 1], or to 0
    where that basis lacks it.  act(n, i) gives the images of the whole
    basis bases[n] under s_i, in basis order and, when drop is given,
    drop(n) each element's image under the projection from level n + 1 to
    level n, which makes the result an FI#-module.  Images and relation
    rows are (element, value) pairs, as ``basis_matrix`` takes them; each
    level's index is built once, and a level whose images are each one
    pair, as under a permutation of the basis, is laid out at C speed
    (``exactlin.matrix.image_rows``).

    >>> from .exactlin import Q
    >>> bases = [["a"], ["a", "b"], ["b"]]
    >>> F = linearize(Q, bases, lambda n, i: [((b, 1),) for b in bases[n]])
    >>> [f.mat.rows for f in F.incl]  # "a" is not in level 2: it maps to 0
    [((1, 0),), ((0,), (1,))]
    """
    index = [{b: k for k, b in enumerate(basis)} for basis in bases]

    def mat(m, images):
        """The matrix of the images, combinations of the basis of level m."""
        rows = image_rows(index[m], images)
        return Mat.from_sparse(coeff, len(rows), len(index[m]), rows)

    def kept(n):
        """The inclusion's images of bases[n]."""
        there = index[n + 1]
        return [((b, 1),) if b in there else () for b in bases[n]]

    levels = [PresentedModule.free(coeff, len(basis)) if rels is None else
              PresentedModule(coeff, len(basis), mat(n, rels(n)))
              for n, basis in enumerate(bases)]
    N = len(bases) - 1
    incl = [ModuleMap(levels[n], levels[n + 1], mat(n + 1, kept(n)))
            for n in range(N)]
    sym = [[mat(n, act(n, i)) for i in range(1, n)] for n in range(N + 1)]
    if drop is None:
        return TruncFIModule(coeff, levels, incl, sym)
    proj = [ModuleMap(levels[n + 1], levels[n],
                      mat(n, list(map(drop(n), bases[n + 1]))))
            for n in range(N)]
    return FISharpModule(coeff, levels, incl, sym, proj)


def linearize_map(F: TruncFIModule, G: TruncFIModule, src, dst, image) -> NatMap:
    """The natural map F -> G given on bases: its level-n component sends
    each element b of the basis src(n) of F to the combination image(b) of
    the basis dst(n) of G, as (element, value) pairs, as ``basis_matrix``
    takes them.

    >>> from .exactlin import Z
    >>> fixed = None  # levels 0 and 1 have no transpositions
    >>> F = linearize(Z, [["a"], ["a"]], fixed)
    >>> G = linearize(Z, [["x", "y"], ["x", "y"]], fixed)
    >>> f = linearize_map(F, G, lambda n: ["a"], lambda n: ["x", "y"],
    ...                   lambda b: (("x", 1), ("y", -1)))
    >>> [g.mat.rows for g in f.maps], f.is_natural()
    ([((1, -1),), ((1, -1),)], True)
    """
    return NatMap(F, G, [ModuleMap(F.levels[n], G.levels[n],
                                   basis_matrix(F.coeff, src(n), dst(n), image))
                         for n in range(F.N + 1)])


def _down_up(F: FISharpModule, n: int, k: int) -> Mat:
    """Matrix of the idempotent keeping the first k < n points of level n."""
    mat = F.proj[n - 1].mat
    for m in range(n - 2, k - 1, -1):
        mat = mat @ F.proj[m].mat
    for m in range(k, n):
        mat = mat @ F.incl[m].mat
    return mat


def _sorting_perm(n: int, subset: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation of {1..n} sending subset (sorted, 1-indexed) onto
    {1..k} order-preservingly and the complement onto the rest."""
    rest = [x for x in range(1, n + 1) if x not in set(subset)]
    sigma = [0] * n
    for pos, x in enumerate(sorted(subset), start=1):
        sigma[x - 1] = pos
    for pos, x in enumerate(rest, start=len(subset) + 1):
        sigma[x - 1] = pos
    return tuple(sigma)


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def epsilon_idem(F: FISharpModule, n: int, subset) -> ModuleMap:
    """The idempotent action of the partial injection fixing subset of
    {1..n} and undefined elsewhere.

    epsilon_{full} is the identity, epsilon_{empty} factors through level 0,
    and epsilon_I epsilon_J = epsilon_{I cap J}.  For I = {1..k} it is
    ``_down_up(F, n, k)``; any other I is carried onto {1..k} by its
    sorting permutation sigma, and the matrix is
    sigma @ _down_up(F, n, k) @ sigma^-1, with sigma^-1 applied to the
    rows of the product before it (``perm_action``'s start).
    """
    I = tuple(sorted(set(subset)))
    if n > F.N:
        raise WindowError(f"level {n} beyond the truncation {F.N}")
    if any(x < 1 or x > n for x in I):
        raise FunctorError(f"subset {I} not contained in 1..{n}")
    k = len(I)
    lvl = F.levels[n]
    if k == n:
        return ModuleMap.identity(lvl)
    mat = _down_up(F, n, k)
    if I != tuple(range(1, k + 1)):
        sigma = _sorting_perm(n, I)
        mat = F.perm_matrix(n, _inverse_perm(sigma),
                            F.perm_matrix(n, sigma) @ mat)
    return ModuleMap(lvl, lvl, mat)


def moebius_idem(F: FISharpModule, n: int, subset) -> ModuleMap:
    """Moebius inversion of the epsilon family, e_I = sum over J in I of
    (-1)^{|I - J|} epsilon_J.  The e_I form a complete orthogonal family.

    It is computed as epsilon_I (epsilon_I - E_1) ... (epsilon_I - E_k)
    over I = (a_1 < ... < a_k), E_j = epsilon_{I - a_j}, which expands to
    that sum because epsilon_J epsilon_K = epsilon_{J cap K}; for I empty
    it is epsilon_empty.  The factors are built walking down I: E_k is
    ``epsilon_idem``'s, and E_j is t E_{j+1} t for the transposition t of
    a_j and a_{j+1}, which carries I - a_{j+1} onto I - a_j.  The product
    is taken from the right, each step mat - E_j @ mat.

    For I = {1..n}, every cross-effect's, this is the matrix of the
    factors epsilon_idem(F, n, I - j) multiplied from the left, entry for
    entry: epsilon_I is the identity, so each step is (Id - E_j) @ mat;
    E_n is ``_down_up(F, n, n - 1)``; t is the level's own s_j; and
    ``perm_action`` builds the sorting permutation of I - j as the word
    s_j s_{j+1} .. s_{n-1} and its inverse as the reverse word, so
    s_j E_{j+1} s_j is E_j's matrix, exact products being associative.
    For other I, and against the alternating sum on levels with
    relations, the matrices may differ by relation rows and are equal as
    maps.
    """
    I = tuple(sorted(set(subset)))
    lvl = F.levels[n]
    eps = epsilon_idem(F, n, I).mat
    if not I:
        return ModuleMap(lvl, lvl, eps)
    E = epsilon_idem(F, n, I[:-1]).mat
    mat = eps - E
    for a, b in zip(I[-2::-1], I[:0:-1]):
        t = F.sym[n][a - 1] if b == a + 1 else F.perm_matrix(
            n, [b if x == a else a if x == b else x for x in range(1, n + 1)])
        E = t @ E @ t
        mat = mat - E @ mat
    return ModuleMap(lvl, lvl, mat)


class SymRep:
    """A representation of the symmetric group on k letters: a presented
    module with the actions of the adjacent transpositions."""

    def __init__(self, degree: int, module: PresentedModule, sym):
        self.degree = degree
        self.module = module
        self.sym = tuple(sym)
        if len(self.sym) != max(degree - 1, 0):
            raise FunctorError(
                f"degree {degree} needs {max(degree - 1, 0)} transpositions")

    def perm_matrix(self, perm, start: Mat | None = None) -> Mat:
        """The matrix of a permutation; with start, start @ that matrix,
        as ``perm_action`` computes it."""
        return perm_action(self.module.coeff, self.module.gens, self.sym,
                           perm, start)

    def verify(self) -> list[str]:
        """The violations of the Coxeter presentation of the symmetric
        group, as ``coxeter_violations`` names them."""
        return coxeter_violations(self.module, self.sym)

    def character(self) -> dict:
        """Trace of one permutation per cycle type, on a freeified copy
        (fields only): from_free @ perm @ to_free, the permutation applied
        to from_free's rows alone, which is the same matrix as exact
        products are associative."""
        if not self.module.coeff.is_field:
            raise FunctorError("characters are computed over fields only")
        free, to_free, from_free = freeify_module(self.module)
        out = {}
        for lam in _partitions(self.degree):
            perm = _cycle_type_rep(lam)
            mat = self.perm_matrix(perm, from_free.mat) @ to_free.mat
            out[lam] = self.module.coeff.normalize(sum(mat.diagonal()))
        return out

    def equivalent(self, other: "SymRep") -> bool:
        """Profile equality, plus character equality over fields."""
        if self.degree != other.degree:
            return False
        if self.module.invariant_factors() != other.module.invariant_factors():
            return False
        if self.module.coeff.is_field:
            return self.character() == other.character()
        return True

    def to_json(self) -> dict:
        return {
            "gens": self.module.gens,
            "rels": self.module.rels,
            "sym": self.sym,
        }

    @classmethod
    def from_json(cls, degree: int, data: dict, coeff: Coeff) -> "SymRep":
        module = PresentedModule.from_json(data, coeff)
        g = module.gens
        sym = []
        for i, s in enumerate(json_list(data.get("sym", []), "sym")):
            with json_field(f"sym[{i}]"):
                sym.append(Mat.from_json(coeff, s, (g, g)))
        return cls(degree, module, sym)


class SymRepList:
    """One symmetric-group representation per degree 0..N."""

    def __init__(self, coeff: Coeff, reps):
        self.coeff = coeff
        self.reps = tuple(reps)

    @property
    def N(self) -> int:
        return len(self.reps) - 1

    def equivalent(self, other: "SymRepList") -> bool:
        return (
            self.coeff == other.coeff
            and self.N == other.N
            and all(a.equivalent(b) for a, b in zip(self.reps, other.reps))
        )

    def to_json(self) -> dict:
        return {"coeff": self.coeff.code,
                "reps": [r.to_json() for r in self.reps]}

    @classmethod
    def from_json(cls, data: dict) -> "SymRepList":
        with json_field("coeff"):
            coeff = Coeff.parse(data["coeff"])
        reps = []
        for k, entry in enumerate(json_list(data["reps"], "reps")):
            with json_field(f"reps[{k}]"):
                reps.append(SymRep.from_json(k, entry, coeff))
        return cls(coeff, reps)


def _partitions(n: int):
    """Partitions of n in decreasing parts.

    >>> list(_partitions(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - part, part):
                yield (part,) + tail
    yield from gen(n, n)


def _cycle_type_rep(lam: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation with the given cycle type, 1-indexed one-line form."""
    perm = []
    start = 1
    for part in lam:
        block = list(range(start, start + part))
        perm.extend(block[1:] + block[:1])
        start += part
    return tuple(perm)


def cross_effect(F: FISharpModule, k: int) -> SymRep:
    """The k-th cross-effect: image of e_{1..k} at level k with the
    restricted symmetric-group action.

    >>> from .corpus import build_sharp
    >>> cross_effect(build_sharp("free_sharp(1)", "F2", 4), 1).module.dimension()
    1
    """
    if k > F.N:
        raise WindowError(f"cross-effect {k} beyond the truncation {F.N}")
    incl = cross_effect_inclusion(F, k)
    lifts = factor_through([incl.then(F.sym_map(k, i))
                            for i in range(max(k - 1, 0))], incl)
    return SymRep(k, incl.src, [g.mat for g in lifts])


def cross_effect_inclusion(F: FISharpModule, k: int) -> ModuleMap:
    """The inclusion of the k-th cross-effect into level k, computed once
    per module and k."""
    if k not in F._cross_inclusions:
        e = moebius_idem(F, k, range(1, k + 1))
        F._cross_inclusions[k] = image_in(F.levels[k], e.mat)[1]
    return F._cross_inclusions[k]


def dold_kan_decompose(F: FISharpModule) -> SymRepList:
    """All cross-effects: the equivalence with per-degree representations."""
    return SymRepList(F.coeff, [cross_effect(F, k) for k in range(F.N + 1)])


def dold_kan_reconstruct(reps: SymRepList, N: int | None = None) -> FISharpModule:
    """Assemble the FI#-module with level n the sum over subsets S of
    {1..n} of the representation in degree |S|.

    >>> from .exactlin import Q
    >>> triv = SymRep(0, PresentedModule.free(Q, 1), [])
    >>> dold_kan_reconstruct(SymRepList(Q, [triv]), 2).levels[2].dimension()
    1
    """
    coeff = reps.coeff
    if N is None:
        N = reps.N
    one = coeff.one()
    # degrees beyond the list are zero: no generators, no relations
    gens = [r.module.gens for r in reps.reps] + [0] * (N - reps.N)
    rel_rows = ([r.module.rels.sparse_rows() for r in reps.reps]
                + [()] * (N - reps.N))
    subsets = [[S for k in range(n + 1)
                for S in combinations(range(1, n + 1), k)]
               for n in range(N + 1)]
    # level n has the basis (S, j): generator j of the copy indexed by S;
    # the projection kills the copies whose S holds the point n + 1
    bases = [[(S, j) for S in Ss for j in range(gens[len(S)])]
             for Ss in subsets]

    def transposition(n, i):
        """s_i swaps the points i and i+1."""
        def image(b):
            S, j = b
            if i in S and i + 1 in S:  # adjacent entries of the sorted S
                s = reps.reps[len(S)].sym[S.index(i)]
                return [((S, c), x) for c, x in s.sparse_rows()[j]]
            T = tuple(sorted(i if x == i + 1 else i + 1 if x == i else x
                             for x in S))
            return (((T, j), one),)
        return list(map(image, bases[n]))

    return linearize(
        coeff, bases, transposition,
        lambda n: lambda b: () if n + 1 in b[0] else ((b, one),),
        lambda n: [[((S, j), x) for j, x in row]
                   for S in subsets[n] for row in rel_rows[len(S)]])


def dold_kan_witness(F: FISharpModule, reps: SymRepList | None = None) -> NatMap:
    """The natural isomorphism reconstruct(decompose(F)) -> F: on the copy
    indexed by S it includes the cross-effect and pushes along the
    injection onto S.  The push is the inverse sorting permutation of S
    applied to the few rows of that inclusion alone (``perm_matrix``'s
    start), the same matrix as the product with the permutation's matrix,
    since exact products are associative."""
    if reps is None:
        reps = dold_kan_decompose(F)
    R = dold_kan_reconstruct(reps, F.N)
    coeff = F.coeff
    incl_cr = [cross_effect_inclusion(F, k) for k in range(F.N + 1)]
    maps = []
    for n in range(F.N + 1):
        rows = []
        for k in range(n + 1):
            base = incl_cr[k].mat
            for m in range(k, n):
                base = base @ F.incl[m].mat
            for S in combinations(range(1, n + 1), k):
                # injection [k] -> [n] onto S: standard inclusion composed
                # with the inverse of the sorting permutation
                sigma = _sorting_perm(n, S)
                up = F.perm_matrix(n, _inverse_perm(sigma), base)
                rows.extend(up.sparse_rows())
        mat = Mat.from_sparse(coeff, R.levels[n].gens, F.levels[n].gens,
                              tuple(rows))
        maps.append(ModuleMap(R.levels[n], F.levels[n], mat))
    return NatMap(eta_restrict(R), eta_restrict(F), maps)


def sharp_natmap_ok(R: FISharpModule, F: FISharpModule, nm: NatMap) -> bool:
    """Naturality for the full FI# structure: incl, sym and proj."""
    if not nm.is_natural():
        return False
    for n in range(R.N):
        left = R.proj[n].then(nm.maps[n])
        right = nm.maps[n + 1].then(F.proj[n])
        if not left.equals(right):
            return False
    return True


# -- the left Kan extension alpha ------------------------------------------

class AlphaResult:
    """Stabilized-translation colimit of an FI-module.

    module         -- FISharpModule on the certified window [0, module.N]
    certified      -- per input level n, whether the last `margin`
                      transitions were isomorphisms: N - n >= margin and
                      first_stable[n] <= N - n - margin
    first_stable   -- per level, the least stage from which every remaining
                      transition is an isomorphism; the top stage N - n
                      when the last transition is not one
    unit           -- the canonical map F -> eta_restrict(module)
    """

    def __init__(self, module, certified, first_stable, unit):
        self.module = module
        self.certified = certified
        self.first_stable = first_stable
        self.unit = unit


def _coinvariant_stages(F: TruncFIModule) -> dict:
    """Stage (n, m) for n + m <= F.N: F(n+m) with the first m points
    coequalized, the coinvariants by s_1 .. s_{m-1}.  Over one level
    L = n + m the stages form a chain: stage (n - 1, m + 1) is the
    coinvariants of stage (n, m) by s_m alone (by nothing for m = 0), so
    its relations are those of stage (n, m) followed by one block, and
    its span grows from that stage's."""
    stages = {}
    for L in range(F.N + 1):
        stage = coinvariants(F.levels[L], ())[0]
        stages[(L, 0)] = stage
        for m in range(1, L + 1):
            stage = coinvariants(stage, F.sym[L][max(m - 2, 0):m - 1])[0]
            stages[(L - m, m)] = stage
    return stages


def alpha(F: TruncFIModule, margin: int = 2) -> AlphaResult:
    """Left Kan extension to FI#: level n is the chain colimit of the
    coinvariant stages of the translates of F, taken at the top stage the
    window affords; certified when the last `margin` transitions are
    isomorphisms.

    >>> from .corpus import build
    >>> alpha(build("P(1)", "F2", 6)).module.levels[3].dimension()
    4
    """
    if margin < 1:
        raise FunctorError("margin must be at least 1")
    N = F.N
    stages = _coinvariant_stages(F)  # (n, m) -> PresentedModule
    transitions = {}  # (n, m) -> ModuleMap stage(n, m) -> stage(n, m+1)
    for n in range(N + 1):
        for m in range(N - n):
            transitions[(n, m)] = ModuleMap(
                stages[(n, m)], stages[(n, m + 1)], insertion_map(F, m, n).mat)
    first_stable = []
    for n in range(N + 1):
        m = N - n
        while m > 0 and is_isomorphism(transitions[(n, m - 1)]):
            m -= 1
        first_stable.append(m)
    # first_stable[n] >= 0, so this also asks for N - n >= margin
    certified = [m <= N - n - margin for n, m in enumerate(first_stable)]
    # the last level of the certified prefix, -1 when level 0 fails
    cert_N = (certified + [False]).index(False) - 1
    if cert_N < 0:
        raise WindowError(
            "no level of alpha stabilizes within the window; "
            f"margin {margin}, truncation {N}")
    levels = [stages[(n, N - n)] for n in range(cert_N + 1)]
    incl = []
    for n in range(cert_N):
        back = invert_iso(transitions[(n, N - n - 1)])
        step = ModuleMap(stages[(n, N - n - 1)], stages[(n + 1, N - n - 1)],
                         F.incl[N - 1].mat)
        incl.append(back.then(step))
    proj = []
    for n in range(cert_N):
        # reclassify the last alpha point as colimit material: the cycle
        # sending position N to position N-n, shifting N-n..N-1 up by one
        rho = list(range(1, N + 1))
        for k in range(N - n, N):
            rho[k - 1] = k + 1
        rho[N - 1] = N - n
        mat = F.perm_matrix(N, tuple(rho))
        proj.append(ModuleMap(levels[n + 1], levels[n], mat))
    sym = []
    for n in range(cert_N + 1):
        mats = [F.sym[N][N - n + i] for i in range(max(n - 1, 0))]
        sym.append(mats)
    module = FISharpModule(F.coeff, levels, incl, sym, proj)
    # the adjunction unit: F(n) is stage (n, 0); compose the transitions
    unit_maps = []
    for n in range(cert_N + 1):
        f = ModuleMap.identity(stages[(n, 0)])
        for m in range(N - n):
            f = f.then(transitions[(n, m)])
        unit_maps.append(ModuleMap(F.levels[n], levels[n], f.mat))
    unit = NatMap(truncate(F, cert_N), eta_restrict(module), unit_maps)
    return AlphaResult(module, certified, first_stable, unit)
