"""Finitely presented modules over Z, Q or F_p, and their maps.

A ``PresentedModule`` with g generators and relation matrix R (rows are
relations, width g) stands for the quotient of the free row-vector module
by the row span of R.  A ``ModuleMap`` src -> dst is a (src.gens x
dst.gens) matrix acting on row vectors; it is well defined when every
relation of src lands in the relation span of dst.

Presentations are never normalized eagerly; profile queries (invariant
factors / dimension) normalize on demand and cache.  A quotient made by
``cokernel`` or ``coinvariants`` has its parent's relations followed by
the rows it appends, and grows its relation span from its parent's: the
same ``RowBasis.add`` calls in the same order as from nothing, so the
same basis.  Every echelon of a module's relations is its ``rel_span()``
or a fork of it; ``factor_through``, whose basis is tracked and starts
from the map's rows, is the one exception.
"""
from __future__ import annotations

from .coeff import Coeff
from .matrix import Mat, finish_row
from .smith import RowBasis, left_kernel, snf_diagonal


class ExactLinError(Exception):
    pass


class PresentedModule:
    """A finitely presented module: gens generators, rels relations.

    >>> from .coeff import Z
    >>> m = PresentedModule.from_rel_rows(Z, 2, [[2, 0]])
    >>> m.invariant_factors()
    [1, 2]
    """

    __slots__ = ("coeff", "gens", "rels", "_rel_span", "_profile", "_grown")

    def __init__(self, coeff: Coeff, gens: int, rels: Mat):
        if rels.ncols != gens:
            raise ExactLinError(
                f"relations have width {rels.ncols}, expected {gens}"
            )
        if rels.coeff != coeff:
            raise ExactLinError("relation matrix over the wrong ring")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "rels", rels)
        object.__setattr__(self, "_rel_span", None)
        object.__setattr__(self, "_profile", None)
        # (parent, eager) for a quotient made by _quotient, until the span
        # is built
        object.__setattr__(self, "_grown", None)

    def __setattr__(self, name, value):
        raise AttributeError("PresentedModule is immutable")

    @classmethod
    def from_rel_rows(cls, coeff: Coeff, gens: int, rel_rows) -> "PresentedModule":
        return cls(coeff, gens, Mat.from_rows(coeff, rel_rows)
                   if rel_rows else Mat.zero(coeff, 0, gens))

    @classmethod
    def free(cls, coeff: Coeff, rank: int) -> "PresentedModule":
        return cls(coeff, rank, Mat.zero(coeff, 0, rank))

    @classmethod
    def zero(cls, coeff: Coeff) -> "PresentedModule":
        return cls.free(coeff, 0)

    def rel_span(self) -> RowBasis:
        """The echelon basis of the relation rows, built on first request
        and kept.  A quotient whose parent's span is there, or that
        ``coinvariants`` made, forks its parent's span and adds only the
        rows it appended; otherwise the rows are added to a new basis.
        Either way the rows go in the same order, so the basis is the
        same.  Callers must not add to it."""
        span = self._rel_span
        if span is None:
            parent, eager = self._grown or (None, False)
            if parent is not None and (eager or parent._rel_span is not None):
                span = parent.rel_span().fork()
                for row in self.rels.sparse_rows()[parent.rels.nrows:]:
                    span.add(row)
            else:
                span = RowBasis(self.coeff, self.gens)
                span.add_mat(self.rels)
            object.__setattr__(self, "_rel_span", span)
            object.__setattr__(self, "_grown", None)
        return span

    def invariant_factors(self) -> list[int]:
        """Isomorphism profile.

        Over a field: ``[dimension]``.  Over Z: ``[free_rank, d1, d2, ...]``
        with the torsion invariant factors > 1 in divisibility order.  When
        every pivot of the relation span is 1, as over a field, the span is
        a direct summand and the quotient is free of rank gens - rank;
        only a span with a pivot above 1 goes through ``snf_diagonal``.
        """
        prof = self._profile
        if prof is None:
            span = self.rel_span()
            if span.unit_pivots():
                prof = [self.gens - span.rank]
            else:
                d = snf_diagonal(span.basis_mat())
                prof = [self.gens - len(d)] + [x for x in d if x > 1]
            object.__setattr__(self, "_profile", prof)
        return list(prof)

    def dimension(self) -> int:
        if not self.coeff.is_field:
            raise ExactLinError("dimension is a field-coefficient notion")
        return self.invariant_factors()[0]

    def is_zero(self) -> bool:
        if self.gens == 0:
            return True
        span = self.rel_span()
        return span.is_full()

    def same_presentation(self, other: "PresentedModule") -> bool:
        return (
            self.coeff == other.coeff
            and self.gens == other.gens
            and self.rels == other.rels
        )

    def profile_eq(self, other: "PresentedModule") -> bool:
        return (
            self.coeff == other.coeff
            and self.invariant_factors() == other.invariant_factors()
        )

    def __repr__(self):
        return (
            f"PresentedModule({self.coeff.code}, gens={self.gens}, "
            f"rels={self.rels.nrows})"
        )

    def to_json(self) -> dict:
        """The JSON form, for ``cli.emit``: the relations are the ``Mat``
        itself, which the writer prints as dense rows of scalar strings."""
        return {"coeff": self.coeff.code, "gens": self.gens, "rels": self.rels}

    @classmethod
    def from_json(cls, data: dict, coeff: Coeff | None = None) -> "PresentedModule":
        """Parse ``{"gens": g, "rels": [..]}``; malformed data raises
        ValueError naming the field."""
        c = coeff if coeff is not None else Coeff.parse(data["coeff"])
        gens = data["gens"]
        if type(gens) is not int or gens < 0:
            raise ValueError(f"gens must be a non-negative integer, got {gens!r}")
        try:
            rels = Mat.from_json(c, data.get("rels", []), (None, gens))
        except ValueError as exc:
            raise ValueError(f"rels: {exc}") from None
        return cls(c, gens, rels)


class ModuleMap:
    """A map of presented modules given by its action on generators."""

    __slots__ = ("src", "dst", "mat")

    def __init__(self, src: PresentedModule, dst: PresentedModule, mat: Mat):
        if mat.shape != (src.gens, dst.gens):
            raise ExactLinError(
                f"map matrix is {mat.shape}, expected {(src.gens, dst.gens)}"
            )
        if mat.coeff != src.coeff or src.coeff != dst.coeff:
            raise ExactLinError("coefficient mismatch")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleMap is immutable")

    @classmethod
    def identity(cls, m: PresentedModule) -> "ModuleMap":
        return cls(m, m, Mat.identity(m.coeff, m.gens))

    @classmethod
    def zero_map(cls, src: PresentedModule, dst: PresentedModule) -> "ModuleMap":
        return cls(src, dst, Mat.zero(src.coeff, src.gens, dst.gens))

    def is_well_defined(self) -> bool:
        span = self.dst.rel_span()
        return all(
            span.contains(row)
            for row in (self.src.rels @ self.mat).sparse_rows()
        )

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other."""
        if other.src is not self.dst and not other.src.same_presentation(self.dst):
            raise ExactLinError("maps not composable")
        return ModuleMap(self.src, other.dst, self.mat @ other.mat)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.src, self.dst, self.mat + other.mat)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.src, self.dst, self.mat - other.mat)

    def is_zero_map(self) -> bool:
        """Zero as a map into the presented quotient."""
        if self.mat.is_zero():
            return True
        span = self.dst.rel_span()
        if span.rank == 0:
            return False
        return all(span.contains(row) for row in self.mat.sparse_rows())

    def equals(self, other: "ModuleMap") -> bool:
        """Equality as maps into the presented quotient."""
        if self.mat.shape != other.mat.shape:
            return False
        return self.mat == other.mat or (self - other).is_zero_map()

    def __repr__(self):
        return f"ModuleMap({self.src!r} -> {self.dst!r})"


def preimage_generators(mat: Mat, rels: Mat) -> Mat:
    """Generators of {v : v @ mat lies in the row span of rels}.

    This is the projection to the first block of the left kernel of
    [mat; rels], which generates the preimage lattice (not necessarily
    independently -- presentations need not be minimal).
    """
    lk = left_kernel(mat.stack(rels))
    n = mat.nrows
    rows = tuple([tuple([e for e in row if e[0] < n])
                  for row in lk.sparse_rows()])
    return Mat.from_sparse(mat.coeff, len(rows), n, rows)


def kernel(f: ModuleMap) -> tuple[PresentedModule, ModuleMap]:
    """Kernel of f with its inclusion into f.src.

    >>> from .coeff import Z
    >>> two = PresentedModule.free(Z, 1)
    >>> f = ModuleMap(two, two, Mat.from_rows(Z, [[2]]))
    >>> k, incl = kernel(f)
    >>> k.is_zero()
    True
    """
    gens_mat = preimage_generators(f.mat, f.dst.rels)
    k_rels = preimage_generators(gens_mat, f.src.rels)
    k = PresentedModule(f.src.coeff, gens_mat.nrows, k_rels)
    return k, ModuleMap(k, f.src, gens_mat)


def _quotient(m: PresentedModule, rows: tuple, eager: bool) -> PresentedModule:
    """m modulo the sparse relation rows appended after its own.  Its span
    is a fork of m's grown by rows when m's span is built by then, or
    always when eager is set."""
    q = PresentedModule(m.coeff, m.gens, Mat.from_sparse(
        m.coeff, m.rels.nrows + len(rows), m.gens,
        m.rels.sparse_rows() + rows))
    object.__setattr__(q, "_grown", (m, eager))
    return q


def cokernel(f: ModuleMap) -> tuple[PresentedModule, ModuleMap]:
    """Cokernel of f: dst presented with the image rows added as relations.
    Its span grows from dst's when dst's is built first, as
    ``is_isomorphism``'s invariants build it; otherwise the cokernel
    builds its own and never asks for dst's."""
    c = _quotient(f.dst, f.mat.sparse_rows(), False)
    return c, ModuleMap(f.dst, c, Mat.identity(f.dst.coeff, f.dst.gens))


def image_in(dst: PresentedModule, rows: Mat) -> tuple[PresentedModule, ModuleMap]:
    """The submodule of dst generated by the given element rows.

    Redundant generators (zero in the quotient, or already generated by the
    earlier rows) are pruned, so the presentation stays small.
    """
    span = dst.rel_span().fork()
    kept = []
    for row in rows.sparse_rows():
        if span.add(row):
            kept.append(row)
    gen_mat = Mat.from_sparse(dst.coeff, len(kept), dst.gens, tuple(kept))
    rels = preimage_generators(gen_mat, dst.rels)
    sub = PresentedModule(dst.coeff, gen_mat.nrows, rels)
    return sub, ModuleMap(sub, dst, gen_mat)


def coinvariants(m: PresentedModule, actions) -> tuple[PresentedModule, ModuleMap]:
    """Quotient of m by the spans (g - id) v over the given endomorphism
    matrices g: m's relations followed by the rows of each g - id in turn.
    Its span always grows from m's, so a chain of coinvariants, each by
    one more action, builds each span once, block by block.

    >>> from .coeff import Q
    >>> reg = PresentedModule.free(Q, 2)
    >>> swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
    >>> q, _ = coinvariants(reg, [swap])
    >>> q.dimension()
    1
    >>> q.rels.rows
    ((-1, 1), (1, -1))
    """
    coeff = m.coeff
    rows = []
    for g in actions:
        if g.shape != (m.gens, m.gens):
            raise ExactLinError("action matrix is not an endomorphism")
        # g - id: only the diagonal entry of each row moves
        for i, row in enumerate(g.sparse_rows()):
            acc = dict(row)
            acc[i] = acc.get(i, 0) - 1
            rows.append(finish_row(coeff, acc))
    q = _quotient(m, tuple(rows), True)
    return q, ModuleMap(m, q, Mat.identity(m.coeff, m.gens))


def factor_through(f: ModuleMap, through: ModuleMap) -> ModuleMap:
    """A map g with g.then(through) == f: the factorization through a
    monomorphism (then unique) or a lift through an epimorphism.

    Raises if some generator image does not factor.
    """
    if f.dst is not through.dst and not f.dst.same_presentation(through.dst):
        raise ExactLinError("factor_through: targets differ")
    # the map's rows first, so that a solution's leading coefficients are
    # the factorization and the relation coefficients come after
    basis = RowBasis(f.mat.coeff, through.dst.gens, track=True)
    basis.add_mat(through.mat)
    basis.add_mat(through.dst.rels)
    n = through.src.gens
    rows = []
    for row in f.mat.sparse_rows():
        sol = basis.solve(dict(row))
        if sol is None:
            raise ExactLinError("map does not factor through the given map")
        rows.append(tuple(sorted([e for e in sol.items() if e[0] < n])))
    mat = Mat.from_sparse(f.mat.coeff, f.src.gens, n, tuple(rows))
    return ModuleMap(f.src, through.src, mat)


def freeify_module(m: PresentedModule):
    """Over a field: (free, to_free, from_free), a free module isomorphic
    to m with the isomorphism both ways.  The free basis is the generators
    off the pivots of the relation span; to_free reduces each generator
    against the relations.
    """
    coeff = m.coeff
    span = m.rel_span()
    pivots = set(span.pivots)
    free_cols = [j for j in range(m.gens) if j not in pivots]
    free = PresentedModule.free(coeff, len(free_cols))
    col = {j: t for t, j in enumerate(free_cols)}
    rows = []
    for g in range(m.gens):
        red = span.reduce({g: 1})
        rows.append(tuple(sorted([(col[j], x) for j, x in red.items()
                                  if j in col])))
    to_free = ModuleMap(m, free, Mat.from_sparse(
        coeff, m.gens, len(free_cols), tuple(rows)))
    back = Mat.from_sparse(coeff, len(free_cols), m.gens,
                           tuple([((j, 1),) for j in free_cols]))
    return free, to_free, ModuleMap(free, m, back)


def is_isomorphism(f: ModuleMap) -> bool:
    """Whether the well-defined map f is an isomorphism: its source and
    target have the same invariants and f is onto.  Over every ring this
    suffices, since a surjective endomorphism of a finitely generated
    module over a commutative ring is injective (Vasconcelos, 1969).

    >>> from .coeff import Z
    >>> z = PresentedModule.free(Z, 1)
    >>> z2 = PresentedModule.from_rel_rows(Z, 1, [[2]])
    >>> is_isomorphism(ModuleMap(z, z2, Mat.from_rows(Z, [[1]])))  # onto
    False
    >>> m = PresentedModule.from_rel_rows(Z, 2, [[4, 0]])  # Z/4 + Z
    >>> is_isomorphism(ModuleMap(m, m, Mat.from_rows(Z, [[1, 0], [2, 1]])))
    True
    """
    return f.src.profile_eq(f.dst) and cokernel(f)[0].is_zero()


def invert_iso(f: ModuleMap) -> ModuleMap:
    """Inverse of an isomorphism of presented modules: the lift of the
    identity of f.dst through f.  The lift exists iff f is onto, so with
    equal invariants it decides, as ``is_isomorphism`` does, whether f is
    an isomorphism."""
    if f.src.profile_eq(f.dst):
        try:
            return factor_through(ModuleMap.identity(f.dst), f)
        except ExactLinError:
            pass
    raise ExactLinError("map is not an isomorphism, cannot invert")


def check_exact(seq: list[ModuleMap]) -> bool:
    """Exactness of a composable sequence at every interior joint.

    At the joint (f, g) this demands image(f) = kernel(g) as submodules of
    the middle term: the composite is zero and every kernel generator lies
    in the relation span of ``cokernel(f)``, the middle relations followed
    by the image rows, which forks the middle term's span when the
    previous joint built it.

    >>> from .coeff import Z
    >>> z1 = PresentedModule.free(Z, 1)
    >>> z2mod = PresentedModule.from_rel_rows(Z, 1, [[2]])
    >>> zero = PresentedModule.zero(Z)
    >>> seq = [ModuleMap.zero_map(zero, z1),
    ...        ModuleMap(z1, z1, Mat.from_rows(Z, [[2]])),
    ...        ModuleMap(z1, z2mod, Mat.from_rows(Z, [[1]])),
    ...        ModuleMap.zero_map(z2mod, zero)]
    >>> check_exact(seq)
    True
    """
    for f, g in zip(seq, seq[1:]):
        if f.dst is not g.src and not f.dst.same_presentation(g.src):
            raise ExactLinError("sequence is not composable")
        if not f.then(g).is_zero_map():
            return False
        span = cokernel(f)[0].rel_span()
        ker_gens = preimage_generators(g.mat, g.dst.rels)
        for row in ker_gens.sparse_rows():
            if not span.contains(row):
                return False
    return True


def direct_sum_modules(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    if a.coeff != b.coeff:
        raise ExactLinError("coefficient mismatch")
    return PresentedModule(a.coeff, a.gens + b.gens, a.rels.block_diag(b.rels))
