"""Worked-example functors with machine-checkable expected facts.

Each entry builds a truncated functor (FI or FI#) and carries oracles:
degree values, dimension patterns, isomorphism targets.  ``run_oracles``
evaluates every fact and reports pass/fail with the certified windows.

Free functors come from one builder, ``linearize``, applied to set-valued
basis functors (injections from a fixed set, unordered pairs, partial
injections), so all structure matrices are permutation-like and exact over
any coefficient ring.  The atomic functors and the ``zgeq`` subfunctors of
the constants come from one rank-one indicator builder, ``indicator``.
Every matrix given on bases (structure maps, the norm map, the extension
maps and the shift-kernel witness) is written by ``exactlin.basis_matrix``.

One registry, ``ENTRIES``, names every entry, the FI# ones included:
``build`` makes any of them at a requested N and ring, and ``build_sharp``
also insists on an FI#-module.  An entry written to a file (``corpus
emit``) carries its own N and ring from then on.
"""
from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial

from .exactlin import Coeff, Mat, ModuleMap, PresentedModule, basis_matrix
from .fimod import (
    NatMap, NOT_CERTIFIED, NEG_INF, TruncFIModule,
    FunctorError, diff, dim_profile, direct_sum, generation_degree,
    is_stably_null, kappa, kernel_nat, cokernel_nat, shift, strong_degree,
    verify_six_term, weak_degree,
)
from . import fimod
from .fisharp import (
    FISharpModule, alpha, dold_kan_decompose, eta_restrict, moebius_idem,
)


# -- free functors on set-valued bases -------------------------------------

def _injection_basis(d: int, n: int) -> list[tuple[int, ...]]:
    """Injections of {1..d} into {1..n} as value tuples."""
    return list(permutations(range(1, n + 1), d))


def _pair_basis(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def _partial_basis(d: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Partial injections {1..d} -> {1..n}: (sorted domain, value tuple)."""
    out = []
    for k in range(d + 1):
        for dom in combinations(range(1, d + 1), k):
            for vals in permutations(range(1, n + 1), k):
                out.append((dom, vals))
    return out


def _transposition(i: int):
    def phi(x: int) -> int:
        if x == i:
            return i + 1
        if x == i + 1:
            return i
        return x
    return phi


def linearize(coeff: Coeff, bases, act, drop=None) -> TruncFIModule:
    """The free functor on a set-valued functor on injections.

    bases[n] lists the basis of level n; each basis element of level n is
    also one of level n+1 (the inclusion); act(phi, b) is b moved by the
    point map phi.  When drop is given, drop(b, n) is b at level n+1 with
    the point n+1 forgotten, and the result is an FI#-module.  Every
    structure matrix sends basis elements to basis elements, so it is built
    directly as a 0/1 matrix.
    """
    levels = [PresentedModule.free(coeff, len(bs)) for bs in bases]
    N = len(bases) - 1
    one = coeff.one()
    incl = [ModuleMap(levels[n], levels[n + 1], basis_matrix(
                coeff, bases[n], bases[n + 1], lambda b: ((b, one),)))
            for n in range(N)]
    sym = [[basis_matrix(coeff, bases[n], bases[n],
                         lambda b, phi=_transposition(i): ((act(phi, b), one),))
            for i in range(1, n)] for n in range(N + 1)]
    if drop is None:
        return TruncFIModule(coeff, levels, incl, sym)
    proj = [ModuleMap(levels[n + 1], levels[n], basis_matrix(
                coeff, bases[n + 1], bases[n],
                lambda b, n=n: ((drop(b, n), one),)))
            for n in range(N)]
    return FISharpModule(coeff, levels, incl, sym, proj)


def _injections(coeff: Coeff, d: int, N: int) -> TruncFIModule:
    """P_d: the free functor on injections from a d-element set."""
    return linearize(coeff, [_injection_basis(d, n) for n in range(N + 1)],
                     lambda phi, u: tuple(phi(x) for x in u))


def _pairs(coeff: Coeff, N: int) -> TruncFIModule:
    """The free functor on unordered pairs (injections from 2 modulo swap)."""
    return linearize(coeff, [_pair_basis(n) for n in range(N + 1)],
                     lambda phi, p: tuple(sorted((phi(p[0]), phi(p[1])))))


def _drop_point(b, n):
    """A partial injection (domain, values) at level n+1 with the value
    n+1 forgotten."""
    dom, vals = b
    keep = [(x, v) for x, v in zip(dom, vals) if v != n + 1]
    return (tuple(x for x, _ in keep), tuple(v for _, v in keep))


def indicator(coeff: Coeff, support, N: int) -> TruncFIModule:
    """One copy of the coefficients at each level in support, zero
    elsewhere: identity inclusions between supported levels, zero maps
    otherwise, trivial transpositions."""
    levels = [PresentedModule.free(coeff, 1 if n in support else 0)
              for n in range(N + 1)]
    incl = []
    for n in range(N):
        if levels[n].gens and levels[n + 1].gens:
            mat = Mat.identity(coeff, 1)
        else:
            mat = Mat.zero(coeff, levels[n].gens, levels[n + 1].gens)
        incl.append(ModuleMap(levels[n], levels[n + 1], mat))
    sym = [[Mat.identity(coeff, levels[n].gens)] * max(n - 1, 0)
           for n in range(N + 1)]
    return TruncFIModule(coeff, levels, incl, sym)


def summing_map(F: TruncFIModule) -> NatMap:
    """The map from a linearized functor to the constants sending every
    basis element to 1."""
    C = _injections(F.coeff, 0, F.N)
    one = F.coeff.one()
    maps = [ModuleMap(m, C.levels[n],
                      Mat.from_sparse(F.coeff, m.gens, 1, (((0, one),),) * m.gens))
            for n, m in enumerate(F.levels)]
    return NatMap(F, C, maps)


def augmentation_map(coeff: Coeff, N: int) -> NatMap:
    """The summing map from the free rank functor to the constants."""
    return summing_map(_injections(coeff, 1, N))


def build_augmentation_kernel(coeff: Coeff, N: int) -> TruncFIModule:
    K, _ = kernel_nat(augmentation_map(coeff, N))
    return K


def augmentation_sequence(coeff: Coeff, N: int) -> tuple[NatMap, NatMap]:
    """The short exact sequence kernel >-> P_1 ->> (constants on nonempty
    sets), as two natural maps."""
    aug = augmentation_map(coeff, N)
    K, incl = kernel_nat(aug)
    Zgeq1 = indicator(coeff, range(1, N + 1), N)
    maps = [ModuleMap(aug.src.levels[n], Zgeq1.levels[n], aug.maps[n].mat
                      if n >= 1 else Mat.zero(coeff, 0, 0))
            for n in range(N + 1)]
    proj = NatMap(aug.src, Zgeq1, maps)
    return incl, proj


def norm_map(coeff: Coeff, N: int) -> NatMap:
    """Unordered pairs into ordered pairs: {a,b} -> (a,b) + (b,a)."""
    A = _pairs(coeff, N)
    P2 = _injections(coeff, 2, N)
    one = coeff.one()
    maps = [ModuleMap(A.levels[n], P2.levels[n], basis_matrix(
                coeff, _pair_basis(n), _injection_basis(2, n),
                lambda p: ((p, one), (p[::-1], one))))
            for n in range(N + 1)]
    return NatMap(A, P2, maps)


def build_ex_upm_F(coeff: Coeff, N: int) -> TruncFIModule:
    """Pushout of the norm inclusion (pairs into ordered pairs) and the
    augmentation to the constants: the amalgamated sum functor."""
    nu = norm_map(coeff, N)
    aug = summing_map(nu.src)
    P2, C = nu.dst, aug.dst
    target = direct_sum(P2, C)
    maps = []
    for n in range(N + 1):
        maps.append(ModuleMap(
            nu.src.levels[n], target.levels[n],
            nu.maps[n].mat.hjoin(aug.maps[n].mat.scale(-1))))
    glue = NatMap(nu.src, target, maps)
    F, _ = cokernel_nat(glue)
    return F


def ex_upm_sequence(coeff: Coeff, N: int) -> tuple[NatMap, NatMap]:
    """Constants >-> pushout ->> pairs: the defining extension.  The
    projection sends (a,b) + (b,a) - c to 2·{a,b}: a map over F2 only."""
    if coeff.code != "F2":
        raise FunctorError("ex_upm_sequence is an extension over F2 only, "
                           f"not over {coeff.code}")
    F = build_ex_upm_F(coeff, N)
    C = _injections(coeff, 0, N)
    A = _pairs(coeff, N)
    one = coeff.one()
    incl_maps = []
    proj_maps = []
    for n in range(N + 1):
        # the generators of F(n): the ordered pairs, then the constant
        gens = _injection_basis(2, n) + [None]
        incl_maps.append(ModuleMap(C.levels[n], F.levels[n], basis_matrix(
            coeff, _injection_basis(0, n), gens, lambda b: ((None, one),))))
        proj_maps.append(ModuleMap(F.levels[n], A.levels[n], basis_matrix(
            coeff, gens, _pair_basis(n),
            lambda u: () if u is None else ((tuple(sorted(u)), one),))))
    return NatMap(C, F, incl_maps), NatMap(F, A, proj_maps)


# -- name parsing and the registry -----------------------------------------

def _parse_call(token: str) -> tuple[str, list[int]]:
    token = token.strip()
    if "(" in token:
        head, rest = token.split("(", 1)
        if not rest.endswith(")"):
            raise FunctorError(f"malformed corpus name {token!r}")
        args = [int(x) for x in rest[:-1].split(",") if x.strip()]
        return head.strip(), args
    return token, []


def _atomics_upto(coeff: Coeff, N: int, k: int) -> TruncFIModule:
    F = indicator(coeff, {0}, N)
    for i in range(1, k + 1):
        F = direct_sum(F, indicator(coeff, {i}, N))
    return F


def _sum_zgeq(coeff: Coeff, N: int) -> TruncFIModule:
    F = indicator(coeff, range(N + 1), N)
    for i in range(1, N + 1):
        F = direct_sum(F, indicator(coeff, range(i, N + 1), N))
    return F


def _free_sharp(coeff: Coeff, N: int, d: int) -> FISharpModule:
    return linearize(coeff, [_partial_basis(d, n) for n in range(N + 1)],
                     lambda phi, b: (b[0], tuple(phi(v) for v in b[1])),
                     _drop_point)


# entry name -> (number of arguments, builder(coeff, N, *arguments))
ENTRIES = {
    "const": (0, lambda coeff, N: _injections(coeff, 0, N)),
    "atomic": (1, lambda coeff, N, k: indicator(coeff, {k}, N)),
    "zgeq": (1, lambda coeff, N, k: indicator(coeff, range(k, N + 1), N)),
    "P": (1, lambda coeff, N, d: _injections(coeff, d, N)),
    "augmentation_kernel": (0, build_augmentation_kernel),
    "ex_upm_A": (0, _pairs),
    "ex_upm_F": (0, build_ex_upm_F),
    "atomics_upto": (1, _atomics_upto),
    "sum_zgeq": (0, _sum_zgeq),
    "free_sharp": (1, _free_sharp),
}


def _build_entry(token: str, coeff, N: int):
    """The entry that token names, built on its arguments."""
    if isinstance(coeff, str):
        coeff = Coeff.parse(coeff)
    head, args = _parse_call(token)
    if head not in ENTRIES:
        raise FunctorError(f"unknown corpus entry {head!r}")
    arity, builder = ENTRIES[head]
    if len(args) != arity:
        raise FunctorError(f"corpus entry {head!r} takes {arity} "
                           f"argument(s), got {len(args)}")
    return builder(coeff, N, *args)


def build(name: str, coeff, N: int) -> TruncFIModule:
    """Build a corpus functor by name; '+' forms direct sums, which are
    FI-modules.  A single FI# entry is built as an FI#-module.

    >>> dim_profile(build("P(1)", "Q", 4)).dims
    [0, 1, 2, 3, 4]
    """
    out = None
    for part in name.split("+"):
        F = _build_entry(part, coeff, N)
        out = F if out is None else direct_sum(out, F)
    return out


def build_sharp(name: str, coeff, N: int) -> FISharpModule:
    """Build a corpus FI#-module by name; raises FunctorError when the
    entry is not one.

    >>> build_sharp("free_sharp(1)", "F2", 3).levels[3].dimension()
    4
    """
    F = build(name, coeff, N)
    if not isinstance(F, FISharpModule):
        raise FunctorError(f"corpus entry {name!r} is not an FI#-module")
    return F


# -- oracles ----------------------------------------------------------------

class OracleReport:
    def __init__(self, name: str, results):
        self.name = name
        self.results = results  # list of (label, ok, detail)

    @property
    def ok(self) -> bool:
        return all(r[1] for r in self.results)

    def lines(self):
        for label, ok, detail in self.results:
            yield f"{'PASS' if ok else 'FAIL'}  {self.name}: {label}  [{detail}]"


def run_oracles(name: str) -> OracleReport:
    """Evaluate the stated facts for a corpus entry at its own N and ring."""
    spec = ORACLES.get(name)
    if spec is None:
        raise FunctorError(f"no oracles registered for {name!r}; "
                           f"known: {sorted(ORACLES)}")
    module = build(spec.get("expr", name), spec["coeff"], spec["N"])
    results = []
    for label, fact in spec["facts"]:
        try:
            ok, detail = fact(module)
        except Exception as exc:  # an oracle crash is a failure, not an abort
            ok, detail = False, f"error: {exc}"
        results.append((label, ok, detail))
    return OracleReport(name, results)


def _expect_strong(expected):
    def fact(F):
        rep = strong_degree(F)
        return rep.value == expected, str(rep)
    return fact


def _expect_weak(expected, margin):
    def fact(F):
        rep = weak_degree(F, margin)
        return rep.value == expected, str(rep)
    return fact


def _expect_generation(expected):
    def fact(F):
        rep = generation_degree(F)
        return rep.value == expected, str(rep)
    return fact


def _expect_stably_null(expected, margin=1):
    def fact(F):
        got = is_stably_null(F, margin)
        return got == expected, f"stably null = {got} at margin {margin}"
    return fact


def _expect_diff_profile(target_name):
    def fact(F):
        d = diff(F)
        target = build(target_name, F.coeff, d.N)
        ok = d.profile_eq(target)
        return ok, f"diff profiles {[m.invariant_factors() for m in d.levels]}"
    return fact


def _expect_dims(dim_fn):
    def fact(F):
        dims = dim_profile(F).dims
        want = [dim_fn(n) for n in range(F.N + 1)]
        return dims == want, f"dims {dims} vs {want}"
    return fact


def _expect_six_term(F):
    return verify_six_term(F), "six-term exactness"


def shift_kernel_witness(F: TruncFIModule) -> NatMap:
    """The classical isomorphism from the rank functor onto the shifted
    augmentation kernel: e_x maps to e_x - e_(added last point).

    F must be the stored augmentation kernel (same construction route, so
    the kernel generator presentations line up).
    """
    from .exactlin import factor_through
    S = shift(F, 1)
    aug = augmentation_map(F.coeff, F.N)
    K, incl = kernel_nat(aug)
    if not K.structurally_equal(F):
        raise FunctorError("witness needs the stored augmentation kernel")
    P1 = fimod.truncate(_injections(F.coeff, 1, F.N), S.N)
    one, minus_one = F.coeff.one(), F.coeff.normalize(-1)
    maps = []
    for n in range(S.N + 1):
        h = ModuleMap(P1.levels[n], aug.src.levels[n + 1], basis_matrix(
            F.coeff, _injection_basis(1, n), _injection_basis(1, n + 1),
            lambda x, last=(n + 1,): ((x, one), (last, minus_one))))
        maps.append(factor_through(h, incl.maps[n + 1]))
    return NatMap(P1, S, maps)


def _shift_is_P1(F):
    w = shift_kernel_witness(F)
    ok = w.is_natural() and w.is_levelwise_iso()
    return ok, f"witness natural iso on [0,{w.src.N}]"


def _alpha_dims(dim_fn, margin=2):
    def fact(F):
        res = alpha(F, margin)
        dims = [m.dimension() for m in res.module.levels]
        want = [dim_fn(n) for n in range(res.module.N + 1)]
        return dims == want, f"alpha dims {dims} vs {want} on [0,{res.module.N}]"
    return fact


def _unit_alpha_kills_constants(F):
    res = alpha(F, 2)
    unit = res.unit
    # the constant subfunctor sits on the last generator of each level
    coeff = F.coeff
    nonzero_kernel = False
    for n in range(res.module.N + 1):
        g = F.levels[n].gens
        emb = ModuleMap(PresentedModule.free(coeff, 1), F.levels[n],
                        Mat.from_sparse(coeff, 1, g, (((g - 1, 1),),)))
        if not emb.then(unit.maps[n]).is_zero_map():
            return False, f"constant class survives at level {n}"
        from .exactlin import kernel as _kernel
        k, _ = _kernel(unit.maps[n])
        if not k.is_zero():
            nonzero_kernel = True
    return nonzero_kernel, "unit kills the constant subfunctor; kernel nonzero"


def _sharp_idempotents_complete(F):
    for n in range(min(F.N, 3) + 1):
        lvl = F.levels[n]
        idems = {}
        subsets = []
        for k in range(n + 1):
            subsets.extend(combinations(range(1, n + 1), k))
        total = Mat.zero(F.coeff, lvl.gens, lvl.gens)
        for S in subsets:
            e = moebius_idem(F, n, S)
            idems[S] = e
            total = total + e.mat
        ident = ModuleMap.identity(lvl)
        if not ModuleMap(lvl, lvl, total).equals(ident):
            return False, f"sum of idempotents is not the identity at level {n}"
        for S in subsets:
            if not idems[S].then(idems[S]).equals(idems[S]):
                return False, f"e_{S} not idempotent at level {n}"
        for S in subsets:
            for T in subsets:
                if S != T and not idems[S].then(idems[T]).is_zero_map():
                    return False, f"e_{S} e_{T} nonzero at level {n}"
    return True, "complete orthogonal idempotent family up to level 3"


def _sharp_binomial_identity(F):
    reps = dold_kan_decompose(F)
    cr_dims = [r.module.dimension() for r in reps.reps]
    for n in range(F.N + 1):
        want = sum(comb(n, k) * cr_dims[k] for k in range(n + 1))
        got = F.levels[n].dimension()
        if got != want:
            return False, f"level {n}: dim {got} vs binomial sum {want}"
    return True, f"cross-effect dims {cr_dims}"


def _sharp_eta_strong(expected):
    def fact(F):
        rep = strong_degree(eta_restrict(F))
        return rep.value == expected, str(rep)
    return fact


ORACLES = {
    "const": {
        "coeff": "Z", "N": 10,
        "facts": [
            ("strong degree 0", _expect_strong(0)),
            ("weak degree 0", _expect_weak(0, 1)),
            ("not stably null", _expect_stably_null(False)),
            ("generation degree 0", _expect_generation(0)),
        ],
    },
    "atomic(2)": {
        "coeff": "Z", "N": 10,
        "facts": [
            ("stably null", _expect_stably_null(True)),
            ("strong degree 2", _expect_strong(2)),
            ("weak degree -inf", _expect_weak(NEG_INF, 1)),
        ],
    },
    "zgeq(3)": {
        "coeff": "Z", "N": 10,
        "facts": [
            ("strong degree 3", _expect_strong(3)),
            ("weak degree 0", _expect_weak(0, 1)),
            ("difference is the atomic functor", _expect_diff_profile("atomic(2)")),
            ("generation degree 3", _expect_generation(3)),
            ("not stably null", _expect_stably_null(False)),
            ("dims 0,0,0,1,...", _expect_dims(lambda n: 1 if n >= 3 else 0)),
        ],
    },
    "P(1)": {
        "coeff": "Z", "N": 10,
        "facts": [
            ("strong degree 1", _expect_strong(1)),
            ("generation degree 1", _expect_generation(1)),
            ("difference is constant", _expect_diff_profile("const")),
            ("kappa vanishes", lambda F: (kappa(F).is_zero_functor(), "kappa = 0")),
            ("dims n", _expect_dims(lambda n: n)),
        ],
    },
    "P(2)": {
        "coeff": "Z", "N": 8,
        "facts": [
            ("strong degree 2", _expect_strong(2)),
            ("generation degree 2", _expect_generation(2)),
            ("six-term exact", _expect_six_term),
            ("dims n(n-1)", _expect_dims(lambda n: n * (n - 1))),
        ],
    },
    "augmentation_kernel": {
        "coeff": "Z", "N": 10,
        "facts": [
            ("strong degree 2", _expect_strong(2)),
            ("weak degree 1", _expect_weak(1, 2)),
            ("difference is zgeq(1)", _expect_diff_profile("zgeq(1)")),
            ("shift is the rank functor", _shift_is_P1),
            ("six-term exact", _expect_six_term),
        ],
    },
    "atomics_upto(6)": {
        "coeff": "Z", "N": 10,
        "facts": [
            ("stably null", _expect_stably_null(True)),
            ("weak degree -inf", _expect_weak(NEG_INF, 1)),
        ],
    },
    "sum_zgeq": {
        "coeff": "Z", "N": 6,
        "facts": [
            ("strong degree not certified",
             lambda F: (strong_degree(F).value == NOT_CERTIFIED,
                        str(strong_degree(F)))),
            ("weak degree 0", _expect_weak(0, 1)),
        ],
    },
    "ex_upm_A": {
        "coeff": "F2", "N": 8,
        "facts": [
            ("strong degree 2", _expect_strong(2)),
            ("alpha dims C(n,2)+n+1",
             _alpha_dims(lambda n: comb(n, 2) + n + 1)),
        ],
    },
    "ex_upm_F": {
        "coeff": "F2", "N": 8,
        "facts": [
            ("strong degree 2", _expect_strong(2)),
            ("alpha dims C(n,2)+n+1",
             _alpha_dims(lambda n: comb(n, 2) + n + 1)),
            ("unit of alpha kills the constants", _unit_alpha_kills_constants),
        ],
    },
    "P(2)@F2-alpha": {
        "coeff": "F2", "N": 8, "expr": "P(2)",
        "facts": [
            ("alpha dims n(n-1)+2n+1",
             _alpha_dims(lambda n: n * (n - 1) + 2 * n + 1)),
        ],
    },
    "P(1)@F2-alpha": {
        "coeff": "F2", "N": 8, "expr": "P(1)",
        "facts": [
            ("alpha dims n+1", _alpha_dims(lambda n: n + 1)),
        ],
    },
    "free_sharp(1)": {
        "coeff": "F2", "N": 5,
        "facts": [
            ("structure verifies", lambda F: (not F.verify(), "invariants")),
            ("idempotents complete and orthogonal", _sharp_idempotents_complete),
            ("binomial dimension identity", _sharp_binomial_identity),
            ("restriction has strong degree 1", _sharp_eta_strong(1)),
            ("dims n+1", _expect_dims(lambda n: n + 1)),
        ],
    },
    "free_sharp(2)": {
        "coeff": "F2", "N": 4,
        "facts": [
            ("structure verifies", lambda F: (not F.verify(), "invariants")),
            ("idempotents complete and orthogonal", _sharp_idempotents_complete),
            ("binomial dimension identity", _sharp_binomial_identity),
            ("restriction has strong degree 2", _sharp_eta_strong(2)),
            ("dims sum C(2,k)C(n,k)k!",
             _expect_dims(lambda n: sum(comb(2, k) * comb(n, k) * factorial(k)
                                        for k in (0, 1, 2)))),
        ],
    },
}


def list_entries() -> list[str]:
    return sorted(ORACLES)
