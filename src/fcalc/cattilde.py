"""The hom-set nullification of a concrete monoidal category, computed.

For a skeletal symmetric monoidal category whose objects are the counts
0, 1, 2, ... (sum = addition), the nullified category has the same objects
and hom-set from a to b the colimit over t of the maps a -> b + t, two
maps being identified when post-composition with something fixing the b
block connects them.  The two instances implemented are finite sets with
injections (theta) and with bijections (sigma).

For theta the classes are exactly the partial injections a -> b; for sigma
the classes correspond to injections b -> a (reading off the preimage of
the b block).  Both normal forms are computed, and the colimit is also
saturated directly as a union-find cross-check.

tilde_hom enumerates each stage hom(a, b + t) once and runs the union-find
on integer indices of the stage elements, so the least index of a class
is its representative, the least (t, f).  Its stopping rule looks for
three equal class counts from the first non-empty stage on, so that
empty early stages cannot pass it.

verify_axioms computes each composite g o f of listed classes once and
keeps it as the index of its class, so associativity is a table lookup
that composes nothing per triple.  The lookup reads listed
representatives only, so independence of the representative is checked
on its own: every member of a class, a stage element that tilde_hom's
union-find joined to the representative, composes like the
representative on both sides.
"""
from __future__ import annotations

from itertools import accumulate, permutations
from math import comb, factorial


class CatError(Exception):
    pass


class ConcreteSMC:
    """A skeletal symmetric monoidal category of counts with enumerable homs.

    Morphisms a -> b are value tuples (f(1), ..., f(a)) with entries in
    1..b; sum places blocks side by side.
    """

    def __init__(self, name: str, hom):
        self.name = name
        self._hom = hom

    def hom(self, a: int, b: int) -> list[tuple[int, ...]]:
        return self._hom(a, b)

    @staticmethod
    def identity(a: int) -> tuple[int, ...]:
        return tuple(range(1, a + 1))

    @staticmethod
    def sum(f, a_dims, g, b_dims) -> tuple[int, ...]:
        """Block sum: f on the first a_dims[0] points into the first
        a_dims[1], g shifted after it."""
        return tuple(f) + tuple(x + a_dims[1] for x in g)

    def __repr__(self):
        return f"ConcreteSMC({self.name})"


def _injections(a: int, b: int):
    return [tuple(p) for p in permutations(range(1, b + 1), a)]


def _bijections(a: int, b: int):
    if a != b:
        return []
    return [tuple(p) for p in permutations(range(1, a + 1))]


THETA = ConcreteSMC("theta", _injections)
SIGMA = ConcreteSMC("sigma", _bijections)


def category(name: str) -> ConcreteSMC:
    if name in ("theta", "Theta", "FI"):
        return THETA
    if name in ("sigma", "Sigma"):
        return SIGMA
    raise CatError(f"unknown category {name!r} (theta or sigma)")


class TildeHom:
    """A morphism class of the nullified category: source a, target b,
    a representative (t, f : a -> b + t), and a canonical normal form."""

    __slots__ = ("cat", "a", "b", "rep_t", "rep_map", "normal")

    def __init__(self, cat: ConcreteSMC, a: int, b: int, rep_t: int, rep_map,
                 normal):
        self.cat = cat
        self.a = a
        self.b = b
        self.rep_t = rep_t
        self.rep_map = tuple(rep_map)
        self.normal = normal

    def __eq__(self, other):
        return (
            isinstance(other, TildeHom)
            and self.cat.name == other.cat.name
            and (self.a, self.b, self.normal) == (other.a, other.b, other.normal)
        )

    def __hash__(self):
        return hash((self.cat.name, self.a, self.b, self.normal))

    def __repr__(self):
        return f"TildeHom({self.cat.name}, {self.a}->{self.b}, {self.normal})"

    def as_partial(self):
        """For theta: the pair (defined domain, values)."""
        return _partial(self.rep_map, self.b)

    def to_json(self) -> dict:
        dom, vals = self.as_partial()
        return {"domain": list(dom), "values": list(vals)}


def _partial(f, b: int) -> tuple:
    """The part of f: a -> b + t landing in the b block, as the pair
    (defined domain, values)."""
    return (tuple([i for i, v in enumerate(f, 1) if v <= b]),
            tuple([v for v in f if v <= b]))


def _normal_form(cat: ConcreteSMC, a: int, b: int, f) -> tuple:
    """Class invariant of a representative f: a -> b + t.

    theta: the partial injection (the part of f landing in the b block).
    sigma: the preimage tuple of the b block (an injection b -> a).
    """
    if cat.name == "theta":
        return _partial(f, b)
    return tuple([f.index(j) + 1 for j in range(1, b + 1)])


def tilde_hom(cat: ConcreteSMC, a: int, b: int, max_extra: int | None = None,
              *, members: list | None = None) -> list[TildeHom]:
    """All morphism classes a -> b of the nullified category.

    The stages t = 0..max_extra are the sorted hom-sets a -> b + t, each
    enumerated once; element (t, f) gets the integer index start[t] + its
    position, so the least index of a class is its least (t, f), the
    class representative.  A union-find over those indices, linking each
    root under the smaller one, saturates the one-step identifications.
    The class count up to stage t is then the number of roots below
    start[t + 1], read in one cumulative pass.

    Stopping rule: from the first non-empty stage on, three consecutive
    stages must have the same class count (two transitions that are
    bijections); otherwise CatError.  If every stage is empty the answer
    is no class once the stages reach a (b + max_extra >= a, as for sigma
    with a < b); before that, too few extras were given and CatError is
    raised.

    When members is a list, it is extended with one list per returned
    class, in order: the stage elements (t, f) other than the
    representative that the union-find put in the class.

    >>> len(tilde_hom(THETA, 2, 2))
    7
    >>> len(tilde_hom(SIGMA, 3, 1))
    3
    """
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

    # generating arrows suffice: every map between extras is a composite
    # of the standard inclusion (id_t + the map 0 -> 1, where the category
    # has one) and adjacent transpositions, and the union-find closes
    # transitively.  An arrow u: t -> t2 acts by id_b + u, a glue tuple
    # with a leading 0 so that it is indexed by the values of f.  Each
    # pair is joined once, from its smaller index: a transposition pairs
    # the elements of its stage both ways, and the inclusion always lands
    # in a later stage.
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
    # the root of a class is its least index, so the classes met by
    # stages <= t are the roots below start[t + 1]
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


def tilde_from_partial(a: int, b: int, domain, values) -> TildeHom:
    """The theta-tilde class of a partial injection given by its data."""
    domain = tuple(domain)
    values = tuple(values)
    undefined = [i for i in range(1, a + 1) if i not in set(domain)]
    f = [0] * a
    for i, v in zip(domain, values):
        f[i - 1] = v
    for k, i in enumerate(undefined):
        f[i - 1] = b + k + 1
    t = len(undefined)
    f = tuple(f)
    return TildeHom(THETA, a, b, t, f, _normal_form(THETA, a, b, f))


def tilde_compose(g: TildeHom, f: TildeHom) -> TildeHom:
    """Composite g after f in the nullified category.

    Representatives f: a -> b + t and g: b -> c + u compose through
    (g + id_t): b + t -> c + u + t, built as a glue tuple with a leading 0
    so that it is indexed by the values of f.

    >>> h = tilde_from_partial(2, 2, (1,), (2,))
    >>> tilde_compose(h, h).normal
    ((), ())
    """
    if f.cat.name != g.cat.name or f.b != g.a:
        raise CatError("classes are not composable")
    t, u, c = f.rep_t, g.rep_t, g.b
    glue = (0, *g.rep_map, *range(c + u + 1, c + u + t + 1))
    comp = tuple([glue[x] for x in f.rep_map])
    return TildeHom(f.cat, f.a, c, u + t, comp,
                    _normal_form(f.cat, f.a, c, comp))


def theta_tilde_count(a: int, b: int) -> int:
    """Closed-form count of partial injections a -> b.

    >>> theta_tilde_count(2, 2)
    7
    """
    return sum(comb(a, k) * comb(b, k) * factorial(k) for k in range(min(a, b) + 1))


class AxiomReport:
    def __init__(self, name, bound, checks, failures):
        self.name = name
        self.bound = bound
        self.checks = checks
        self.failures = failures

    @property
    def ok(self):
        return not self.failures

    def __str__(self):
        status = "pass" if self.ok else f"FAIL ({self.failures[0]})"
        return (f"axioms for {self.name}-tilde on objects <= {self.bound}: "
                f"{self.checks} checks, {status}")


def verify_axioms(cat: ConcreteSMC, bound: int) -> AxiomReport:
    """Associativity, units, and functoriality of the sum on the nullified
    category, exhaustively on objects up to the bound.

    Each composite g o f of listed classes is computed once and kept as an
    index: after[(a, b, c)][i][j] is the position of g_j o f_i in
    homs[(a, c)], for f_i in homs[(a, b)] and g_j in homs[(b, c)], or None
    for a composite whose normal form is not listed, which is a failure.
    Associativity is then a lookup that composes nothing per triple:
    h o (g o f) is after[(a, c, d)][g o f][h] and (h o g) o f is
    after[(a, b, d)][f][h o g].  The left unit is looked up too; the right
    unit composes f o id_a.

    The lookup composes listed representatives only, so independence of
    the representative is checked explicitly, on both sides.  The members
    of a class are the stage elements that tilde_hom's union-find put in
    it besides the representative, and each representative that
    computing a composite produced outside those stages (for theta, the
    extras of g o f add up and can exceed the a + 2 that tilde_hom
    enumerates).  Each member must compose with every composable listed
    class, after it and before it, to the listed class the representative
    composes to.  The classes are the union-find's components, so this
    covers whole classes.  Together the two checks test at least what
    composing h with the representative r that computing g o f produced
    tests: r is a member or the representative, so h o r lands where the
    lookup h o (g o f) does; likewise for (h o g) o f.

    The member check costs members times composable classes.  Comparing
    each representative only with its images under the generating arrows
    would cost less, but it is sound only for a composite computed from
    stage maps: an answer that is wrong only on elements two arrows from
    the representative passes it.  Composites go through the module-level
    tilde_compose.

    The sum check, on objects up to 2, compares the sum of the
    representatives of two classes with the sum of other representatives
    of the same classes: each class's last member, or the representative
    when the class has none.
    """
    if bound < 1:
        raise CatError("bound must be at least 1")
    objs = range(bound + 1)
    homs, members = {}, {}
    for a in objs:
        for b in objs:
            members[(a, b)] = []
            homs[(a, b)] = tilde_hom(cat, a, b, members=members[(a, b)])
    index = {ab: {h.normal: i for i, h in enumerate(fs)}
             for ab, fs in homs.items()}
    checks = 0
    failures = []
    after = {}
    for a in objs:
        for c in objs:
            listed = index[(a, c)]
            # the representatives met so far: the listed ones and members
            known = {(h.rep_t, h.rep_map) for h in homs[(a, c)]}
            known.update(x for xs in members[(a, c)] for x in xs)
            for b in objs:
                after[(a, b, c)] = table = []
                for f in homs[(a, b)]:
                    row = []
                    for g in homs[(b, c)]:
                        gf = tilde_compose(g, f)
                        k = listed.get(gf.normal)
                        if k is None:
                            failures.append(
                                f"composite {g} o {f} is not a listed class")
                        elif (gf.rep_t, gf.rep_map) not in known:
                            known.add((gf.rep_t, gf.rep_map))
                            members[(a, c)][k].append((gf.rep_t, gf.rep_map))
                        row.append(k)
                    table.append(row)
    ident = {}
    for a in objs:
        f = cat.identity(a)
        ident[a] = TildeHom(cat, a, a, 0, f, _normal_form(cat, a, a, f))
    for (a, b), fs in homs.items():
        unit = index[(b, b)].get(ident[b].normal)
        for i, (f, row) in enumerate(zip(fs, after[(a, b, b)])):
            checks += 1
            if unit is None or row[unit] != i:
                failures.append(f"left unit fails on {f}")
            checks += 1
            if tilde_compose(f, ident[a]) != f:
                failures.append(f"right unit fails on {f}")
    # independence of representative: each member x of the class f : a -> b
    # composes like f, after each g : b -> c and before each e : c -> a
    for (a, b), fs in homs.items():
        for k, (f, xs) in enumerate(zip(fs, members[(a, b)])):
            for t, x in xs:
                fx = TildeHom(cat, a, b, t, x, f.normal)
                for c in objs:
                    index_ac, index_cb = index[(a, c)], index[(c, b)]
                    for g, gf in zip(homs[(b, c)], after[(a, b, c)][k]):
                        if index_ac.get(tilde_compose(g, fx).normal) != gf:
                            failures.append(
                                f"well-definedness fails on {f}, {g}: "
                                f"representative {(t, x)} of {f}")
                    for e, row in zip(homs[(c, a)], after[(c, a, b)]):
                        if index_cb.get(tilde_compose(fx, e).normal) != row[k]:
                            failures.append(
                                f"well-definedness fails on {e}, {f}: "
                                f"representative {(t, x)} of {f}")
    for a in objs:
        for b in objs:
            for c in objs:
                for dd in objs:
                    gfs, hgs = after[(a, b, c)], after[(b, c, dd)]
                    hfs, hgfs = after[(a, b, dd)], after[(a, c, dd)]
                    hs = homs[(c, dd)]
                    checks += len(gfs) * len(hgs) * len(hs)
                    for f, gf_row, hf_row in zip(homs[(a, b)], gfs, hfs):
                        for g, gf, hg_row in zip(homs[(b, c)], gf_row, hgs):
                            try:
                                same = hgfs[gf] == list(
                                    map(hf_row.__getitem__, hg_row))
                            except TypeError:  # g o f or an h o g unlisted
                                same = False
                            if same:
                                continue
                            for k, (h, hg) in enumerate(zip(hs, hg_row)):
                                if gf is None or hg is None \
                                        or hgfs[gf][k] != hf_row[hg]:
                                    failures.append(
                                        f"associativity fails on {f}, {g}, {h}")
    # sum functoriality on small pieces: the sum of two classes does not
    # depend on the representatives summed
    small = range(min(bound, 2) + 1)
    other = {(a, b): [TildeHom(cat, a, b, *xs[-1], f.normal) if xs else f
                      for f, xs in zip(homs[(a, b)], members[(a, b)])]
             for a in small for b in small}
    for a in small:
        for b in small:
            for c in small:
                for dd in small:
                    for f, fo in zip(homs[(a, b)], other[(a, b)]):
                        for g, go in zip(homs[(c, dd)], other[(c, dd)]):
                            checks += 1
                            if _tilde_sum(f, g) != _tilde_sum(fo, go):
                                failures.append(f"sum not functorial on {f}, {g}")
    return AxiomReport(cat.name, bound, checks, failures)


def _tilde_sum(f: TildeHom, g: TildeHom) -> TildeHom:
    """Monoidal sum of classes: blocks side by side, extras pushed last."""
    cat = f.cat
    a, b, t = f.a, f.b, f.rep_t
    c, d, u = g.a, g.b, g.rep_t
    # reorder the target b + t + d + u into b + d + (t + u)
    def retarget(x):
        if x <= b:
            return x
        if x <= b + t:
            return b + d + (x - b)
        if x <= b + t + d:
            return b + (x - b - t)
        return b + d + t + (x - b - t - d)
    h = tuple(retarget(x) for x in cat.sum(f.rep_map, (a, b + t), g.rep_map,
                                           (c, d + u)))
    return TildeHom(cat, a + c, b + d, t + u, h,
                    _normal_form(cat, a + c, b + d, h))
