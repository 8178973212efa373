"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with timings.
"""
import random
import time
from itertools import combinations
from math import comb, factorial

from fcalc.cattilde import (
    SIGMA, THETA, theta_tilde_count, tilde_compose, tilde_hom,
)
from fcalc.corpus import build, build_sharp, shift_kernel_witness
from fcalc.exactlin import Coeff, Mat, ModuleMap, PresentedModule, det, kernel, snf
from fcalc.fimod import (
    NEG_INF, diff, dim_profile, generation_degree, kappa, postcompose,
    strong_degree, verify_six_term, weak_degree,
)
from fcalc.fisharp import (
    SymRepList, alpha, cross_effect, dold_kan_decompose, dold_kan_reconstruct,
    dold_kan_witness, moebius_idem, sharp_natmap_ok,
)
from oracles import compose_partial, random_symrep

Z, Q, F2 = Coeff.Z(), Coeff.Q(), Coeff.GF(2)


def report(num, text, elapsed):
    print(f"\ncriterion {num:>2}: PASS  {text}  ({elapsed:.2f}s)")


def test_criterion_01_strong_degrees():
    t0 = time.time()
    for n in range(7):
        rep = strong_degree(build(f"zgeq({n})", "Z", 12))
        assert rep.value == n, (n, rep)
    rep = strong_degree(build("augmentation_kernel", "Z", 10))
    assert rep.value == 2, rep
    for d in (1, 2, 3):
        rep = strong_degree(build(f"P({d})", "Z", 8))
        assert rep.value == d, (d, rep)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, limit 10s"
    report(1, "strong degrees: zgeq(0..6)@N=12, augmentation kernel = 2, "
              "P(d) = d for d <= 3 @N=8", elapsed)


def test_criterion_02_weak_degrees():
    t0 = time.time()
    rep = weak_degree(build("augmentation_kernel", "Z", 10), 2)
    assert rep.value == 1, rep
    rep = weak_degree(build("atomics_upto(6)", "Z", 10), 1)
    assert rep.value == NEG_INF, rep
    for n in range(7):
        rep = weak_degree(build(f"zgeq({n})", "Z", 12), 1)
        assert rep.value == 0, (n, rep)
    report(2, "weak degrees: kernel margin 2 -> 1, atomic sum -> -inf, "
              "zgeq(n) margin 1 -> 0", time.time() - t0)


def test_criterion_03_difference_translation_identities():
    t0 = time.time()
    for n in range(1, 7):
        d = diff(build(f"zgeq({n})", "Z", 12))
        assert d.profile_eq(build(f"atomic({n - 1})", "Z", 11)), n
    d = diff(build("P(1)", "Z", 10))
    assert d.profile_eq(build("const", "Z", 9))
    K = build("augmentation_kernel", "Z", 10)
    w = shift_kernel_witness(K)
    assert w.src.N == 9
    assert w.is_natural()
    assert w.is_levelwise_iso()
    report(3, "diff(zgeq(n)) = atomic(n-1), diff(P1) = const, "
              "shift(kernel) = P1 by witness on levels <= 9", time.time() - t0)


def test_criterion_04_six_term_exactness():
    t0 = time.time()
    assert verify_six_term(build("zgeq(2)", "Z", 10))
    assert verify_six_term(build("augmentation_kernel", "Z", 10))
    assert verify_six_term(build("P(2)", "F2", 8))
    report(4, "six-term kernel-cokernel sequence exact on zgeq(2), "
              "augmentation kernel, P2 over F2", time.time() - t0)


SHARP_CORPUS = [("free_sharp(0)", "F2", 4), ("free_sharp(1)", "F2", 4),
                ("free_sharp(2)", "F2", 4), ("free_sharp(1)", "Q", 4)]


def test_criterion_05_idempotent_calculus():
    t0 = time.time()
    for name, coeff, N in SHARP_CORPUS:
        F = build_sharp(name, coeff, N)
        cr = [cross_effect(F, k).module.dimension() for k in range(F.N + 1)]
        for n in range(min(F.N, 4) + 1):
            lvl = F.levels[n]
            subsets = [S for k in range(n + 1)
                       for S in combinations(range(1, n + 1), k)]
            es = {S: moebius_idem(F, n, S) for S in subsets}
            total = Mat.zero(F.coeff, lvl.gens, lvl.gens)
            for S in subsets:
                total = total + es[S].mat
                assert es[S].then(es[S]).equals(es[S]), (name, n, S)
            assert ModuleMap(lvl, lvl, total).equals(
                ModuleMap.identity(lvl)), (name, n)
            for S in subsets:
                for T in subsets:
                    if S != T:
                        assert es[S].then(es[T]).is_zero_map(), (name, n, S, T)
            assert lvl.dimension() == sum(
                comb(n, k) * cr[k] for k in range(n + 1)), (name, n)
    report(5, f"complete orthogonal idempotents and binomial dimension "
              f"identity on {len(SHARP_CORPUS)} FI#-modules, levels <= 4",
           time.time() - t0)


def test_criterion_06_dold_kan_round_trips():
    t0 = time.time()
    rng = random.Random(20260808)
    for trial in range(50):
        coeff = Q if trial % 2 else F2
        N = rng.randint(1, 5)
        reps = SymRepList(coeff, [random_symrep(rng, coeff, k)
                                  for k in range(N + 1)])
        R = dold_kan_reconstruct(reps)
        back = dold_kan_decompose(R)
        assert reps.equivalent(back), trial
        w = dold_kan_witness(R, back)
        assert w.is_natural(), trial
        assert w.is_levelwise_iso(), trial
        R2 = dold_kan_reconstruct(back, R.N)
        assert sharp_natmap_ok(R2, R, w), trial
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.1f}s, limit 30s"
    report(6, "decompose/reconstruct round trips on 50 random representation "
              "lists over F2 and Q, N <= 5", elapsed)


def test_criterion_07_nullification_instances():
    t0 = time.time()
    for a in range(5):
        for b in range(5):
            assert len(tilde_hom(THETA, a, b)) == theta_tilde_count(a, b), (a, b)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for f in tilde_hom(THETA, a, b):
                    for g in tilde_hom(THETA, b, c):
                        assert tilde_compose(g, f).as_partial() == \
                            compose_partial(a, b, c, f.as_partial(),
                                            g.as_partial())
    for n in range(5):
        for m in range(5):
            want = factorial(n) // factorial(n - m) if n >= m else 0
            assert len(tilde_hom(SIGMA, n, m)) == want, (n, m)
    for a in range(5):
        assert len(tilde_hom(THETA, a, 0)) == 1
        assert len(tilde_hom(SIGMA, a, 0)) == 1
    report(7, "theta-tilde counts (a,b <= 4), composition table = partial "
              "injections (<= 3), sigma-tilde counts, 0 final", time.time() - t0)


def test_criterion_08_alpha_computations():
    t0 = time.time()
    A = build("ex_upm_A", "F2", 8)
    res = alpha(A, 2)
    assert res.module.N >= 4
    for n in range(res.module.N + 1):
        assert res.module.levels[n].dimension() == comb(n, 2) + n + 1, n
    P2 = build("P(2)", "F2", 8)
    res2 = alpha(P2, 2)
    assert res2.module.N >= 4
    for n in range(res2.module.N + 1):
        assert res2.module.levels[n].dimension() == n * (n - 1) + 2 * n + 1, n
    F = build("ex_upm_F", "F2", 8)
    res3 = alpha(F, 2)
    saw_kernel = False
    for n in range(res3.module.N + 1):
        g = F.levels[n].gens
        row = [F.coeff.zero()] * g
        row[g - 1] = F.coeff.one()
        emb = ModuleMap(PresentedModule.free(F.coeff, 1), F.levels[n],
                        Mat(F.coeff, 1, g, (tuple(row),)))
        assert emb.then(res3.unit.maps[n]).is_zero_map(), n
        k, _ = kernel(res3.unit.maps[n])
        saw_kernel = saw_kernel or not k.is_zero()
    assert saw_kernel
    report(8, f"alpha dims on certified window [0,{res.module.N}]: "
              "C(n,2)+n+1 for A, n(n-1)+2n+1 for P2; unit kernel contains "
              "the constants", time.time() - t0)


FIELD_ENTRIES = [("const", "Q", 8, 0, 0), ("P(1)", "Q", 8, 1, 0),
                 ("P(2)", "Q", 8, 2, 0),
                 ("augmentation_kernel", "Q", 8, 1, 1),
                 ("ex_upm_A", "F2", 8, 2, 0), ("ex_upm_F", "F2", 8, 2, 0)]


def test_criterion_09_dimension_recursion():
    t0 = time.time()
    for name, coeff, N, want_poly, want_from in FIELD_ENTRIES:
        F = build(name, coeff, N)
        k = kappa(F)
        support = max((n for n in range(k.N + 1) if not k.levels[n].is_zero()),
                      default=-1)
        dims = dim_profile(F).dims
        ddims = dim_profile(diff(F)).dims
        for n in range(support + 1, F.N):
            assert dims[n + 1] == dims[n] + ddims[n], (name, n)
        prof = dim_profile(F)
        assert prof.poly_degree == want_poly, (name, prof.poly_degree)
        assert prof.poly_from == want_from, (name, prof.poly_from)
    report(9, "dimension recursion past the kappa support and "
              "finite-difference vanishing at the stated rank on "
              f"{len(FIELD_ENTRIES)} field entries", time.time() - t0)


def test_criterion_10_composition_bound():
    t0 = time.time()
    P1 = build("P(1)", "Q", 8)
    ext = strong_degree(postcompose(P1, "L2"))
    assert ext.value == 2 and ext.value <= 2 * 1, ext
    ten = strong_degree(postcompose(P1, "T2"))
    assert ten.value == 2 and ten.value <= 2 * 1, ten
    report(10, "strong degree of the exterior and tensor squares of P1 "
               "is 2 <= 2*1, over Q at N=8", time.time() - t0)


def test_criterion_11_property_suites():
    t0 = time.time()
    rng = random.Random(115)
    for _ in range(500):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = Mat.from_rows(Z, [[rng.randint(-9, 9) for _ in range(nc)]
                              for _ in range(nr)])
        u, d, v = snf(m)
        assert (u @ m @ v) == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = [x for x in d.diagonal() if x]
        assert all(x > 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
    fi_corpus = [("const", "Z", 8), ("atomic(2)", "Z", 8), ("zgeq(3)", "Z", 8),
                 ("P(1)", "Z", 8), ("P(2)", "Z", 8),
                 ("augmentation_kernel", "Z", 8), ("atomics_upto(4)", "Z", 8),
                 ("sum_zgeq", "Z", 6), ("ex_upm_A", "F2", 8),
                 ("ex_upm_F", "F2", 8)]
    for name, coeff, N in fi_corpus:
        assert build(name, coeff, N).verify() == [], name
    for name, coeff, N in SHARP_CORPUS:
        assert build_sharp(name, coeff, N).verify() == [], name
    both = 0
    for name, coeff, N in fi_corpus:
        F = build(name, coeff, N)
        s = strong_degree(F)
        if not s.certified or s.value == NEG_INF:
            continue
        g = generation_degree(F)
        assert g.value == s.value, (name, s, g)
        both += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 11 took {elapsed:.1f}s, limit 60s"
    report(11, f"SNF contract on 500 random matrices, structural invariants "
               f"on {len(fi_corpus) + len(SHARP_CORPUS)} corpus modules, "
               f"generation = strong degree on {both} entries", elapsed)
