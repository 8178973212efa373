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
"""
from __future__ import annotations

from itertools import permutations
from math import comb, factorial


class CatError(Exception):
    pass


class ConcreteSMC:
    """A skeletal symmetric monoidal category of counts with enumerable homs.

    Morphisms a -> b are value tuples (f(1), ..., f(a)) with entries in
    1..b.  compose(g, f) is g after f; sum places blocks side by side.
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
    def compose(g, f) -> tuple[int, ...]:
        return tuple(g[x - 1] for x in f)

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
        dom = tuple(i + 1 for i, v in enumerate(self.rep_map) if v <= self.b)
        vals = tuple(self.rep_map[i - 1] for i in dom)
        return dom, vals

    def to_json(self) -> dict:
        dom, vals = self.as_partial()
        return {"domain": list(dom), "values": list(vals)}


def _normal_form(cat: ConcreteSMC, a: int, b: int, f) -> tuple:
    """Class invariant of a representative f: a -> b + t.

    theta: the partial injection (the part of f landing in the b block).
    sigma: the preimage tuple of the b block (an injection b -> a).
    """
    if cat.name == "theta":
        dom = tuple(i + 1 for i, v in enumerate(f) if v <= b)
        return (dom, tuple(f[i - 1] for i in dom))
    inv = {v: i + 1 for i, v in enumerate(f)}
    return tuple(inv[j] for j in range(1, b + 1))


def tilde_hom(cat: ConcreteSMC, a: int, b: int, max_extra: int | None = None
              ) -> list[TildeHom]:
    """All morphism classes a -> b of the nullified category.

    Saturates the chain of stages t = 0, 1, ... with a union-find over the
    one-step identifications, stopping when two consecutive stage
    transitions are bijections.

    >>> len(tilde_hom(THETA, 2, 2))
    7
    >>> len(tilde_hom(SIGMA, 3, 1))
    3
    """
    if a < 0 or b < 0:
        raise CatError("objects are non-negative counts")
    if max_extra is None:
        max_extra = a + 2 if cat.name == "theta" else max(a - b, 0) + 2
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    elements = {t: cat.hom(a, b + t) for t in range(max_extra + 1)}
    for t, maps in elements.items():
        for f in maps:
            parent[(t, f)] = (t, f)
    ident_b = cat.identity(b)
    for t in range(max_extra + 1):
        # generating arrows suffice: every map between extras is a composite
        # of the standard inclusion and adjacent transpositions, and the
        # union-find closes transitively
        arrows = []
        if t + 1 <= max_extra and cat.hom(t, t + 1):
            arrows.append((t + 1, tuple(range(1, t + 1))))
        for i in range(1, t):
            swap = tuple(i + 1 if x == i else i if x == i + 1 else x
                         for x in range(1, t + 1))
            arrows.append((t, swap))
        for t2, u in arrows:
            glue = cat.sum(ident_b, (b, b), u, (t, t2))
            for f in elements[t]:
                g = cat.compose(glue, f)
                union((t, f), (t2, g))
    # stage-by-stage class counts, to apply the two-bijection stopping rule
    reps_by_stage = []
    for t in range(max_extra + 1):
        seen = set()
        for s in range(t + 1):
            for f in elements[s]:
                seen.add(find((s, f)))
        reps_by_stage.append(seen)
    stable_from = None
    for t in range(max_extra - 1):
        if (len(reps_by_stage[t]) == len(reps_by_stage[t + 1])
                == len(reps_by_stage[t + 2])):
            stable_from = t
            break
    if stable_from is None:
        raise CatError(
            f"hom colimit {cat.name}({a},{b}) did not stabilize by t={max_extra}")
    out = {}
    for s in range(max_extra + 1):
        for f in elements[s]:
            root = find((s, f))
            if root not in out or (s, f) < (out[root].rep_t, out[root].rep_map):
                nf = _normal_form(cat, a, b, f)
                out[root] = TildeHom(cat, a, b, s, f, nf)
    classes = sorted(out.values(), key=lambda h: (h.rep_t, h.rep_map))
    normals = {h.normal for h in classes}
    if len(normals) != len(classes):
        raise CatError("normal forms do not separate the computed classes")
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
    (g + id_t): b + t -> c + u + t.

    >>> h = tilde_from_partial(2, 2, (1,), (2,))
    >>> tilde_compose(h, h).normal
    ((), ())
    """
    if f.cat.name != g.cat.name or f.b != g.a:
        raise CatError("classes are not composable")
    cat = f.cat
    a, b, c = f.a, f.b, g.b
    t, u = f.rep_t, g.rep_t
    glue = cat.sum(g.rep_map, (b, c + u), cat.identity(t), (t, t))
    comp = cat.compose(glue, f.rep_map)
    extra = u + t
    return TildeHom(cat, a, c, extra, comp, _normal_form(cat, a, c, comp))


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
    category, exhaustively on objects up to the bound."""
    if bound < 1:
        raise CatError("bound must be at least 1")
    homs = {}
    for a in range(bound + 1):
        for b in range(bound + 1):
            homs[(a, b)] = tilde_hom(cat, a, b)
    checks = 0
    failures = []

    def ident(a):
        f = cat.identity(a)
        return TildeHom(cat, a, a, 0, f, _normal_form(cat, a, a, f))

    for (a, b), fs in homs.items():
        for f in fs:
            checks += 1
            if tilde_compose(ident(b), f) != f:
                failures.append(f"left unit fails on {f}")
            checks += 1
            if tilde_compose(f, ident(a)) != f:
                failures.append(f"right unit fails on {f}")
    for a in range(bound + 1):
        for b in range(bound + 1):
            for c in range(bound + 1):
                for dd in range(bound + 1):
                    for f in homs[(a, b)]:
                        for g in homs[(b, c)]:
                            for h in homs[(c, dd)]:
                                checks += 1
                                if tilde_compose(h, tilde_compose(g, f)) != \
                                        tilde_compose(tilde_compose(h, g), f):
                                    failures.append(
                                        f"associativity fails on {f}, {g}, {h}")
    # sum functoriality on small pieces
    for a in range(min(bound, 2) + 1):
        for b in range(min(bound, 2) + 1):
            for c in range(min(bound, 2) + 1):
                for dd in range(min(bound, 2) + 1):
                    for f in homs[(a, b)]:
                        for g in homs[(c, dd)]:
                            checks += 1
                            s = _tilde_sum(f, g)
                            fa = tilde_compose(f, ident(a))
                            gc = tilde_compose(g, ident(c))
                            if s != _tilde_sum(fa, gc):
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
