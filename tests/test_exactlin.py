"""Tests for exact linear algebra: SNF, presented modules, exactness."""
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fcalc.exactlin import (
    Coeff, ExactLinError, Mat, ModuleMap, PresentedModule, RowBasis,
    basis_matrix, check_exact, coinvariants, cokernel, det, invert_iso,
    is_isomorphism, kernel, left_kernel, preimage_generators, snf,
    snf_diagonal,
)
from fcalc.corpus import build
from fcalc.fisharp import alpha
from oracles import (
    DenseRef, as_text, mod_p, plain, snapshot, submatrix, uct_dimension,
)

Z = Coeff.Z()
Q = Coeff.Q()
F2 = Coeff.GF(2)
F3 = Coeff.GF(3)
F5 = Coeff.GF(5)


def minors_gcd(m: Mat, k: int) -> int:
    """gcd of all k x k minors; 0 if there are none or all vanish."""
    g = 0
    for rows in itertools.combinations(range(m.nrows), k):
        for cols in itertools.combinations(range(m.ncols), k):
            g = math.gcd(g, det(submatrix(m, rows, cols)))
    return g


def invariant_factors_by_minors(m: Mat) -> list[int]:
    """Independent SNF oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    out = []
    prev = 1
    for k in range(1, min(m.nrows, m.ncols) + 1):
        g = minors_gcd(m, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def rand_mat(rng, coeff, nrows, ncols, lo=-9, hi=9):
    if nrows == 0:
        return Mat.zero(coeff, 0, ncols)
    return Mat.from_rows(
        coeff,
        [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)],
    )


def degenerate_mat(rng, max_rows, max_cols, hi) -> Mat:
    """A random integer matrix of at least 3 x 3, at most max_rows x
    max_cols, entries up to +-hi, some of whose rows are zero or
    combinations of earlier rows and some of whose columns are zero; the
    first and last row and column are never cleared, so the zero ones lie
    between nonzero ones."""
    nr, nc = rng.randint(3, max_rows), rng.randint(3, max_cols)
    rows = [[rng.randint(-hi, hi) for _ in range(nc)] for _ in range(nr)]
    for i in range(2, nr):
        x = rng.random()
        if x < 0.3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            p, q = rng.sample(range(i), 2)
            rows[i] = [a * u + b * v for u, v in zip(rows[p], rows[q])]
        elif x < 0.5 and i < nr - 1:
            rows[i] = [0] * nc
    for j in range(1, nc - 1):
        if rng.random() < 0.2:
            for row in rows:
                row[j] = 0
    return Mat.from_rows(Z, rows)


def unimodular(rng, n) -> Mat:
    """A random n x n integer matrix of determinant +-1: row additions,
    then a shuffle of the rows."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return Mat.from_rows(Z, rows) if n else Mat.zero(Z, 0, 0)


# residual blocks and their invariant factors
RESIDUALS = [
    ([[2, 4], [6, 8]], [2, 4]),
    ([[2, 0], [0, 3]], [1, 6]),
    ([[4, 0], [0, 6]], [2, 12]),
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
    ([[3, 0], [0, 3], [0, 0]], [3, 3]),
    ([[2, 2, 4]], [2]),
    ([[0, 0], [0, 0]], []),
]


def hidden_units(rng, k, residual) -> Mat:
    """diag(I_k, residual), mixed by random unimodular matrices on both
    sides, so that the units no longer show as pivots of 1."""
    nr, nc = len(residual), len(residual[0])
    rows = ([[int(i == j) for j in range(k + nc)] for i in range(k)]
            + [[0] * k + row for row in residual])
    return (unimodular(rng, k + nr) @ Mat.from_rows(Z, rows)
            @ unimodular(rng, k + nc))


class TestSmith:
    def test_spec_example(self):
        m = Mat.from_rows(Z, [[2, 4], [6, 8]])
        # derived: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
        assert minors_gcd(m, 1) == 2
        assert minors_gcd(m, 2) == 8
        _, d, _ = snf(m)
        assert d.diagonal() == [2, 4]

    def test_identity(self):
        m = Mat.identity(Z, 3)
        u, d, v = snf(m)
        assert d == Mat.identity(Z, 3)

    def test_zero(self):
        m = Mat.zero(Z, 2, 3)
        _, d, _ = snf(m)
        assert d == Mat.zero(Z, 2, 3)

    def test_empty(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            m = Mat.zero(Z, *shape)
            u, d, v = snf(m)
            assert (u @ m @ v) == d

    def test_contract_random(self):
        rng = random.Random(20240817)
        for _ in range(120):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            m = rand_mat(rng, Z, nr, nc)
            u, d, v = snf(m)
            assert (u @ m @ v) == d
            assert abs(det(u)) == 1
            assert abs(det(v)) == 1
            diag = d.diagonal()
            for i in range(nr):
                for j in range(nc):
                    if i != j:
                        assert d.rows[i][j] == 0
            nonzero = [x for x in diag if x]
            assert all(x > 0 for x in nonzero)
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            # zero diagonal entries come after the nonzero ones
            seen_zero = False
            for x in diag:
                if x == 0:
                    seen_zero = True
                elif seen_zero:
                    pytest.fail("nonzero invariant factor after a zero")

    def test_against_minors_oracle(self):
        # the oracle costs a determinant per minor, so its inputs stay at
        # most 5 x 6: the minors of r x c number C(r + c, r) - 1
        rng = random.Random(99)
        cases = []
        for _ in range(60):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            cases.append(rand_mat(rng, Z, nr, nc, -6, 6))
        cases += [degenerate_mat(rng, 5, 6, 1000) for _ in range(25)]
        cases += [hidden_units(rng, k, residual) for k in (1, 2, 3)
                  for residual, _ in RESIDUALS]
        for m in cases:
            _, d, _ = snf(m)
            expected = invariant_factors_by_minors(m)
            got = [x for x in d.diagonal() if x]
            assert got == expected
            assert snf_diagonal(m) == expected


    def test_diagonal_matches_full_form(self):
        # snf and snf_diagonal share one elimination; the diagonal-only run
        # must give the nonzero |diag| of the full form, whose transforms
        # must still satisfy U @ m @ V == D
        rng = random.Random(3141)
        cases = [Mat.zero(Z, 3, 2), Mat.zero(Z, 0, 4), Mat.zero(Z, 2, 0)]
        for _ in range(150):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            m = rand_mat(rng, Z, nr, nc, -20, 20)
            if nr > 2 and rng.random() < 0.5:
                # rank-deficient: the last row is a combination of two others
                rows = [list(r) for r in m.rows]
                rows[-1] = [3 * a - 2 * b for a, b in zip(rows[0], rows[1])]
                m = Mat.from_rows(Z, rows)
            cases.append(m)
        cases += [degenerate_mat(rng, 10, 12, 1000) for _ in range(40)]
        known = [(hidden_units(rng, k, residual), [1] * k + factors)
                 for k in (1, 4, 8) for residual, factors in RESIDUALS]
        for m in cases + [m for m, _ in known]:
            u, d, v = snf(m)
            assert (u @ m @ v) == d
            assert snf_diagonal(m) == [abs(x) for x in d.diagonal() if x]
        for m, factors in known:
            assert snf_diagonal(m) == factors

    def test_reads_no_dense_row(self, monkeypatch):
        # over Z the Smith form and the profiles work on sparse rows only:
        # Mat.rows raises while they run, on random presentations and on
        # the levels of alpha(P(2)) over Z
        rng = random.Random(1618)
        mats = [degenerate_mat(rng, 8, 9, 50) for _ in range(20)]
        mats += [hidden_units(rng, 3, residual) for residual, _ in RESIDUALS]
        levels = alpha(build("P(2)", "Z", 6)).module.levels
        mats += [lvl.rels for lvl in levels]
        fresh = [PresentedModule(Z, m.ncols, m) for m in mats]

        def dense(m):
            raise AssertionError("a dense row was read")
        monkeypatch.setattr(Mat, "rows", property(dense))
        for m, module in zip(mats, fresh):
            u, d, v = snf(m)
            diag = snf_diagonal(m)
            profile = module.invariant_factors()
            assert diag == [x for x in d.diagonal() if x]
            assert profile == [m.ncols - len(diag)] + [x for x in diag
                                                      if x > 1]


class TestUniversalCoefficients:
    """For M = Z^g / R, dim over F_p of F_p^g / (R mod p) is the free rank
    of M plus the number of its invariant factors divisible by p: the Z
    profile against an F_p rank, for p = 2 and 3.  The corpus levels are
    checked in test_fimod.py."""

    def test_random_presentations(self):
        rng = random.Random(4404)
        divisible = {2: 0, 3: 0}
        for case in range(150):
            if case % 2:
                m = degenerate_mat(rng, 6, 7, 12)
            else:
                r = rng.randint(1, 3)
                ds = [rng.choice((0, 1, 2, 3, 4, 6, 9, 12)) for _ in range(r)]
                residual = [[d if j == k else 0 for k in range(r)]
                            for j, d in enumerate(ds)]
                m = hidden_units(rng, rng.randint(0, 3), residual)
            M = PresentedModule(Z, m.ncols, m)
            for p in (2, 3):
                assert mod_p(M, p).dimension() == uct_dimension(M, p)
                divisible[p] += uct_dimension(M, p) - M.invariant_factors()[0]
        assert min(divisible.values()) >= 30, divisible


class TestRowBasis:
    def test_lattice_membership(self):
        b = RowBasis(Z, 2)
        b.add([2, 4])
        b.add([6, 8])
        assert b.contains([2, 4])
        assert b.contains([8, 12])
        assert not b.contains([1, 2])
        assert not b.contains([0, 1])
        assert b.contains([0, 8])  # 3*(2,4) - (6,8) = (0,4); 2*(0,4)

    def test_canonical_snapshot(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(5)]
            b1 = RowBasis(Z, 4)
            b2 = RowBasis(Z, 4)
            for r in rows:
                b1.add(r)
            for r in reversed(rows):
                b2.add(r)
            assert snapshot(b1) == snapshot(b2)

    def test_solve_tracks_inputs(self):
        rng = random.Random(13)
        outside = 0
        for coeff in (Z, Q, F2, F3, F5):
            for _ in range(30):
                nr, nc = rng.randint(1, 5), rng.randint(1, 5)
                m = rand_mat(rng, coeff, nr, nc, -4, 4)
                x = [rng.randint(-3, 3) for _ in range(nr)]
                vec = Mat.from_rows(coeff, [x]) @ m
                b = RowBasis(coeff, nc, track=True)
                for row in m.rows:
                    b.add(row)
                assert b.solve(vec.rows[0]) is not None
                for v in (vec, rand_mat(rng, coeff, 1, nc, -4, 4)):
                    sol = b.solve(v.rows[0])
                    assert b.contains(v.rows[0]) == (sol is not None)
                    if sol is None:
                        outside += 1
                    else:
                        assert Mat.from_rows(coeff, [sol]) @ m == v
        assert outside > 0

    def test_outputs_match_recorded_digest(self):
        # Every output of the echelon engine on seeded random matrices, as
        # text, hashed and compared with a recorded digest.  The Hermite
        # basis over Z is not fully reduced, and left_kernel exposes it, so
        # the rows themselves are part of the contract.  The scalars are
        # hashed by str, which an integral Fraction and its int share.
        rng = random.Random(20261018)
        h = hashlib.sha256()
        for coeff in (Z, Q, F2, F3, F5):
            for _ in range(120):
                nr, nc = rng.randint(0, 7), rng.randint(1, 6)
                m = rand_mat(rng, coeff, nr, nc, -6, 6)
                b = RowBasis(coeff, nc, track=True)
                grew = [b.add(row) for row in m.rows]
                inside = rand_mat(rng, coeff, 1, nr, -3, 3) @ m
                probes = inside.rows + rand_mat(rng, coeff, 2, nc, -6, 6).rows
                h.update(repr(as_text((
                    grew, b.rows, b.pivots, b.combos, b.is_full(),
                    [b.reduce(v) for v in probes], [b.solve(v) for v in probes],
                    snapshot(b), left_kernel(m).rows,
                ))).encode())
        assert h.hexdigest() == ("bde0913824bdef3b59dcdaa717336ab2"
                                 "64154563a7fb03119651af1d692ef143")

    def test_left_kernel_contract(self):
        rng = random.Random(4242)
        for coeff in (Z, Q, F2):
            for _ in range(40):
                nr, nc = rng.randint(1, 5), rng.randint(1, 4)
                m = rand_mat(rng, coeff, nr, nc, -4, 4)
                lk = left_kernel(m)
                assert (lk @ m).is_zero()

    def test_left_kernel_complete_over_z(self):
        # every small integer solution of x @ m = 0 lies in the basis span
        rng = random.Random(555)
        for _ in range(25):
            nr, nc = rng.randint(1, 3), rng.randint(1, 3)
            m = rand_mat(rng, Z, nr, nc, -3, 3)
            lk = left_kernel(m)
            span = RowBasis(Z, nr)
            span.add_mat(lk)
            for x in itertools.product(range(-3, 4), repeat=nr):
                prod = Mat.from_rows(Z, [list(x)]) @ m
                if prod.is_zero():
                    assert span.contains(list(x))


class TestKernelCokernel:
    def test_kernel_injective(self):
        m = PresentedModule.free(Z, 1)
        f = ModuleMap(m, m, Mat.from_rows(Z, [[2]]))
        k, incl = kernel(f)
        assert k.is_zero()

    def test_kernel_zero_map(self):
        src = PresentedModule.free(Z, 2)
        dst = PresentedModule.free(Z, 1)
        f = ModuleMap.zero_map(src, dst)
        k, incl = kernel(f)
        assert k.invariant_factors() == [2]

    def test_kernel_projection(self):
        # projection Z^2 -> Z on the first coordinate
        src = PresentedModule.free(Z, 2)
        dst = PresentedModule.free(Z, 1)
        f = ModuleMap(src, dst, Mat.from_rows(Z, [[1], [0]]))
        k, incl = kernel(f)
        assert k.invariant_factors() == [1]
        # brute-force oracle: the kernel lattice is exactly {(0, n)}
        span = RowBasis(Z, 2)
        span.add_mat(incl.mat)
        for v in itertools.product(range(-3, 4), repeat=2):
            in_kernel = v[0] == 0
            assert span.contains(list(v)) == in_kernel

    def test_cokernel_times_two(self):
        m = PresentedModule.free(Z, 1)
        f = ModuleMap(m, m, Mat.from_rows(Z, [[2]]))
        c, proj = cokernel(f)
        assert c.invariant_factors() == [0, 2]

    def test_cokernel_identity(self):
        m = PresentedModule.free(Z, 3)
        c, _ = cokernel(ModuleMap.identity(m))
        assert c.is_zero()

    def test_cokernel_inclusion(self):
        src = PresentedModule.free(Z, 1)
        dst = PresentedModule.free(Z, 2)
        f = ModuleMap(src, dst, Mat.from_rows(Z, [[1, 0]]))
        c, _ = cokernel(f)
        assert c.invariant_factors() == [1]

    def test_kernel_then_map_is_zero(self):
        rng = random.Random(31337)
        for coeff in (Z, Q, F2):
            for _ in range(40):
                gs, gd = rng.randint(0, 4), rng.randint(0, 4)
                src = PresentedModule.free(coeff, gs)
                n_rels = rng.randint(0, 2)
                dst = PresentedModule(coeff, gd, rand_mat(rng, coeff, n_rels, gd, -3, 3))
                mat = rand_mat(rng, coeff, gs, gd, -4, 4)
                f = ModuleMap(src, dst, mat)
                k, incl = kernel(f)
                assert incl.then(f).is_zero_map()

    def test_rank_nullity_over_fields(self):
        rng = random.Random(808)
        for coeff in (Q, F2, F5):
            for _ in range(40):
                gs, gd = rng.randint(0, 5), rng.randint(0, 5)
                src = PresentedModule.free(coeff, gs)
                dst = PresentedModule.free(coeff, gd)
                f = ModuleMap(src, dst, rand_mat(rng, coeff, gs, gd, -4, 4))
                k, _ = kernel(f)
                c, _ = cokernel(f)
                rank = gd - c.dimension()
                assert k.dimension() + rank == gs

    def test_kernel_universal_property(self):
        # any map killed by f factors through the kernel inclusion
        from fcalc.exactlin import factor_through
        rng = random.Random(777)
        for coeff in (Z, Q, F2):
            for _ in range(15):
                gs, gd = rng.randint(1, 4), rng.randint(1, 4)
                src = PresentedModule.free(coeff, gs)
                dst = PresentedModule.free(coeff, gd)
                f = ModuleMap(src, dst, rand_mat(rng, coeff, gs, gd, -3, 3))
                k, incl = kernel(f)
                probe = PresentedModule.free(coeff, rng.randint(1, 3))
                g = ModuleMap(probe, src,
                              rand_mat(rng, coeff, probe.gens, k.gens, -2, 2)
                              @ incl.mat)
                assert g.then(f).is_zero_map()
                lifted = factor_through(g, incl)
                assert lifted.then(incl).equals(g)

    def test_kernel_of_zero_is_src_profile(self):
        rng = random.Random(17)
        for _ in range(20):
            g = rng.randint(0, 4)
            rels = [[rng.randint(-3, 3) for _ in range(g)]
                    for _ in range(rng.randint(0, 3))]
            src = PresentedModule.from_rel_rows(Z, g, rels)
            dst = PresentedModule.free(Z, rng.randint(0, 3))
            k, _ = kernel(ModuleMap.zero_map(src, dst))
            assert k.invariant_factors() == src.invariant_factors()


class TestInvariantFactors:
    def test_free_quotient_skips_the_smith_form(self, monkeypatch):
        import fcalc.exactlin.presented as presented

        calls = []

        def counted(m):
            calls.append(m)
            return snf_diagonal(m)

        monkeypatch.setattr(presented, "snf_diagonal", counted)
        # every pivot 1: Z^3 modulo a direct summand of rank 2
        free = PresentedModule.from_rel_rows(Z, 3, [[1, 2, 3], [0, 1, 5],
                                                    [1, 3, 8]])
        assert free.invariant_factors() == [1] and calls == []
        # Z/2 + Z: a pivot 2 still goes through the Smith form
        torsion = PresentedModule.from_rel_rows(Z, 2, [[2, 0]])
        assert torsion.invariant_factors() == [1, 2] and len(calls) == 1
        # a pivot above 1 whose quotient is free all the same
        hidden = PresentedModule.from_rel_rows(Z, 2, [[2, 3]])
        assert hidden.invariant_factors() == [1] and len(calls) == 2

    def test_direct_sum_presentation(self):
        m = PresentedModule.from_rel_rows(Z, 2, [[2, 0]])
        assert m.invariant_factors() == [1, 2]

    def test_field_dimension(self):
        m = PresentedModule.from_rel_rows(F2, 3, [[1, 1, 0]])
        assert m.invariant_factors() == [2]

    def test_from_snf_example(self):
        m = PresentedModule.from_rel_rows(Z, 2, [[2, 4], [6, 8]])
        assert m.invariant_factors() == [0, 2, 4]

    def test_unimodular_invariance(self):
        rng = random.Random(2718)
        for _ in range(25):
            g = rng.randint(1, 4)
            r = rng.randint(0, 4)
            rels = rand_mat(rng, Z, r, g, -5, 5)
            m = PresentedModule(Z, g, rels)
            # random unimodular changes of basis: products of elementary ops
            u = Mat.identity(Z, r)
            v = Mat.identity(Z, g)
            for _ in range(6):
                if r > 1:
                    i, j = rng.sample(range(r), 2)
                    rows = [list(row) for row in u.rows]
                    c = rng.randint(-2, 2)
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
                    u = Mat.from_rows(Z, rows)
                if g > 1:
                    i, j = rng.sample(range(g), 2)
                    rows = [list(row) for row in v.rows]
                    c = rng.randint(-2, 2)
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
                    v = Mat.from_rows(Z, rows)
            m2 = PresentedModule(Z, g, u @ rels @ v.transpose())
            assert m.invariant_factors() == m2.invariant_factors()


class TestExactness:
    def test_short_exact_sequence(self):
        z1 = PresentedModule.free(Z, 1)
        zmod2 = PresentedModule.from_rel_rows(Z, 1, [[2]])
        zero = PresentedModule.zero(Z)
        seq = [
            ModuleMap.zero_map(zero, z1),
            ModuleMap(z1, z1, Mat.from_rows(Z, [[2]])),
            ModuleMap(z1, zmod2, Mat.from_rows(Z, [[1]])),
            ModuleMap.zero_map(zmod2, zero),
        ]
        assert check_exact(seq)

    def test_zero_map_not_exact(self):
        z1 = PresentedModule.free(Z, 1)
        zero = PresentedModule.zero(Z)
        seq = [
            ModuleMap.zero_map(zero, z1),
            ModuleMap(z1, z1, Mat.from_rows(Z, [[0]])),
            ModuleMap.zero_map(z1, zero),
        ]
        assert not check_exact(seq)

    def test_kernel_generator_outside_the_image_detected(self):
        # Z --2--> Z --0--> Z: the composite is zero, but the kernel Z is
        # not the image 2Z
        z1 = PresentedModule.free(Z, 1)
        seq = [ModuleMap(z1, z1, Mat.from_rows(Z, [[2]])),
               ModuleMap.zero_map(z1, z1)]
        assert not check_exact(seq)

    def test_exact_only_modulo_the_middle_relations(self):
        # Z --2--> Z/3 --> 0: the kernel generator 1 is 2 * 2 - 3, in the
        # image only once the relation 3 of the middle term is counted
        z1 = PresentedModule.free(Z, 1)
        zmod3 = PresentedModule.from_rel_rows(Z, 1, [[3]])
        zero = PresentedModule.zero(Z)
        seq = [ModuleMap(z1, zmod3, Mat.from_rows(Z, [[2]])),
               ModuleMap.zero_map(zmod3, zero)]
        assert check_exact(seq)

    def test_non_surjective_tail_detected(self):
        z1 = PresentedModule.free(Z, 1)
        zero = PresentedModule.zero(Z)
        seq = [
            ModuleMap(z1, z1, Mat.from_rows(Z, [[2]])),
            ModuleMap.zero_map(z1, zero),
        ]
        assert not check_exact(seq)


class TestCoinvariants:
    def test_regular_rep_of_swap(self):
        reg = PresentedModule.free(Q, 2)
        swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
        q, _ = coinvariants(reg, [swap])
        assert q.dimension() == 1

    def test_trivial_action(self):
        m = PresentedModule.free(Z, 2)
        q, _ = coinvariants(m, [Mat.identity(Z, 2)])
        assert q.invariant_factors() == [2]

    def test_sign_rep(self):
        sgn = PresentedModule.free(Q, 1)
        q, _ = coinvariants(sgn, [Mat.from_rows(Q, [[-1]])])
        assert q.dimension() == 0


def random_map(rng, coeff) -> ModuleMap:
    """A well-defined map of small presented modules.  Two in five
    are isomorphisms by construction: a unimodular matrix U from R to R U.
    The rest have a random matrix into a random target, and a source that
    keeps a random part of the relations the matrix allows, so they may
    fail to be injective, surjective or both."""
    g = rng.randint(1, 3)
    if rng.random() < 0.4:
        u = [[int(i == j) for j in range(g)] for i in range(g)]
        for _ in range(4):
            i, j = rng.sample(range(g), 2) if g > 1 else (0, 0)
            if i == j:
                u[i] = [-x for x in u[i]]
            else:
                u[i] = [a + rng.randint(-2, 2) * b for a, b in zip(u[i], u[j])]
        u = Mat.from_rows(coeff, u)
        rels = rand_mat(rng, coeff, rng.randint(0, 2), g, -4, 4)
        return ModuleMap(PresentedModule(coeff, g, rels),
                         PresentedModule(coeff, g, rels @ u), u)
    h = rng.randint(1, 3)
    dst = PresentedModule(coeff, h, rand_mat(rng, coeff, rng.randint(0, h - 1), h, -4, 4))
    mat = rand_mat(rng, coeff, g, h, -3, 3)
    allowed = preimage_generators(mat, dst.rels).rows
    kept = [row for row in allowed if rng.random() < 0.6]
    src = PresentedModule(coeff, g, Mat(coeff, len(kept), g, tuple(kept)))
    return ModuleMap(src, dst, mat)


class TestIso:
    def test_invert_iso_agrees_with_is_isomorphism(self):
        # is_isomorphism (same invariants, onto) against the kernel plus
        # cokernel reference, and invert_iso against both: it raises exactly
        # on the non-isomorphisms and otherwise returns a two-sided inverse
        rng = random.Random(20261018)
        for coeff in (Z, Q, F2, F3):
            verdicts = []
            for _ in range(80):
                f = random_map(rng, coeff)
                assert f.is_well_defined()
                iso = is_isomorphism(f)
                assert iso == (kernel(f)[0].is_zero()
                               and cokernel(f)[0].is_zero())
                verdicts.append(iso)
                try:
                    g = invert_iso(f)
                except ExactLinError:
                    assert not iso
                    continue
                assert iso
                assert g.then(f).equals(ModuleMap.identity(f.dst))
                assert f.then(g).equals(ModuleMap.identity(f.src))
            assert 20 <= verdicts.count(False) <= 60, coeff

    def test_invert_iso(self):
        rng = random.Random(5)
        m = PresentedModule.from_rel_rows(Z, 2, [[4, 0]])
        # an automorphism of Z/4 + Z: multiply by a unit pattern
        f = ModuleMap(m, m, Mat.from_rows(Z, [[1, 0], [2, 1]]))
        assert is_isomorphism(f)
        g = invert_iso(f)
        assert g.then(f).equals(ModuleMap.identity(m))
        assert f.then(g).equals(ModuleMap.identity(m))

    def test_not_iso(self):
        m = PresentedModule.free(Z, 1)
        f = ModuleMap(m, m, Mat.from_rows(Z, [[2]]))
        assert not is_isomorphism(f)
        # equal invariants, but not onto: the identity does not lift
        with pytest.raises(ExactLinError,
                           match="map is not an isomorphism, cannot invert"):
            invert_iso(f)


class TestSerialization:
    def test_round_trip(self):
        m = PresentedModule.from_rel_rows(Z, 2, [[2, 4], [6, 8]])
        data = plain(m.to_json())
        assert data["rels"] == [["2", "4"], ["6", "8"]]
        m2 = PresentedModule.from_json(data)
        assert m.same_presentation(m2)

    def test_big_integers_survive(self):
        big = 10**40 + 1
        m = PresentedModule.from_rel_rows(Z, 1, [[big]])
        m2 = PresentedModule.from_json(plain(m.to_json()))
        assert m2.rels.rows[0][0] == big

    def test_rational_round_trip(self):
        from fractions import Fraction
        m = PresentedModule(Q, 2, Mat.from_rows(Q, [[Fraction(1, 2), 3]]))
        m2 = PresentedModule.from_json(plain(m.to_json()))
        assert m.same_presentation(m2)

    @pytest.mark.parametrize("coeff, data, message", [
        (Z, [["0", "0", "x"]], "invalid literal for int() with base 10: 'x'"),
        # row-major order: the first bad entry is the one reported
        (Z, [["0", "y"], ["x", "0"]], "'y'"),
        (F2, [["0", "0"], ["0", "1/2"]], "fractional scalar '1/2' over F2"),
        (Q, [["0", "1/0"]], "zero denominator in '1/0'"),
        (Z, [["0", False]], "cannot parse scalar False"),
        (Z, [["0", None]], "cannot parse scalar None"),
        (Z, [["0", 1.5]], "cannot parse scalar 1.5"),
        (Z, [["0", ""]], "invalid literal for int() with base 10: ''"),
    ])
    def test_from_json_checks_every_entry(self, coeff, data, message):
        with pytest.raises(ValueError) as exc:
            Mat.from_json(coeff, data, (None, len(data[0])))
        assert message in str(exc.value)

    @pytest.mark.parametrize("coeff, entries", [
        (Z, ["0", "00", "-0", 0, " 0", "+0"]),
        (Q, ["0", "0/5", "-0/3", 0]),
        (F3, ["0", "3", "-6", 0, 9]),
        (F2, ["0", "2", "-2", 0]),
    ])
    def test_from_json_drops_zeros(self, coeff, entries):
        m = Mat.from_json(coeff, [entries, entries[::-1]], (2, len(entries)))
        assert m == Mat.zero(coeff, 2, len(entries))
        assert m.sparse_rows() == ((), ())

    def test_from_json_keeps_nonzeros(self):
        m = Mat.from_json(Q, [["0", "2/4", 3, "-0"], ["00", "0", "0", "07"]],
                          (2, 4))
        assert m.sparse_rows() == (((1, Fraction(1, 2)), (2, 3)), ((3, 7),))
        assert m == Mat.from_rows(Q, [[0, Fraction(1, 2), 3, 0],
                                      [0, 0, 0, 7]])


class TestSparseRows:
    def test_computed_once_and_shared(self):
        m = Mat.from_rows(Q, [[0, Fraction(1, 2), 0], [3, 0, -1], [0, 0, 0]])
        first = m.sparse_rows()
        assert m.sparse_rows() is first
        assert first == (((1, Fraction(1, 2)),), ((0, 3), (2, -1)), ())
        assert all(type(row) is tuple for row in first)
        # a matrix built again from the same dense rows
        same = Mat(Q, m.nrows, m.ncols, m.rows)
        assert same.sparse_rows() == first
        assert same.sparse_rows() is not first

    def test_still_immutable(self):
        m = Mat.from_rows(Z, [[1, 0], [0, 2]])
        m.sparse_rows()
        for name in ("_sparse", "rows"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
        # equality and hash read the sparse rows only
        fresh = Mat.from_rows(Z, [[1, 0], [0, 2]])
        assert m == fresh and hash(m) == hash(fresh)


# Property tests.  The corpus is integral, so these generate the inputs
# that reach the non-integral Fraction paths over Q.  Examples are drawn
# deterministically and nothing is stored between runs.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
RINGS = {"Z": Z, "Q": Q, "F2": F2, "F3": F3, "F5": F5}


def canonical(coeff, x) -> bool:
    """Mat's contract for one entry."""
    if coeff.kind == Coeff.RATIONALS:
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)
    return type(x) is int and (coeff.p is None or 0 <= x < coeff.p)


def scalars(coeff):
    ints = st.integers(-9, 9)
    if coeff.kind == Coeff.RATIONALS:
        return st.one_of(ints, st.builds(Fraction, ints, st.integers(2, 7)))
    return ints


def matrices(data, coeff, nrows, ncols) -> Mat:
    rows = data.draw(st.lists(st.lists(scalars(coeff), min_size=ncols,
                                       max_size=ncols),
                              min_size=nrows, max_size=nrows))
    return Mat.from_rows(coeff, rows) if nrows else Mat.zero(coeff, 0, ncols)


class TestProperties:
    @PROPERTY
    @given(st.sampled_from(["Z", "Q", "F2", "F3"]), st.data())
    def test_matmul_matches_triple_loop(self, code, data):
        coeff = RINGS[code]
        n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
        a, b = matrices(data, coeff, n, k), matrices(data, coeff, k, m)
        prod = a @ b
        assert prod.shape == (n, m)
        for i in range(n):
            for j in range(m):
                ref = sum((a.rows[i][t] * b.rows[t][j] for t in range(k)),
                          Fraction(0))
                x = prod.rows[i][j]
                assert canonical(coeff, x), (x, code)
                if coeff.p is None:
                    assert x == ref
                else:
                    assert x == int(ref) % coeff.p

    @PROPERTY
    @given(st.sampled_from(["Z", "Q", "F2", "F3", "F5"]), st.data())
    def test_solve_iff_contains(self, code, data):
        coeff = RINGS[code]
        r, w = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
        vecs = matrices(data, coeff, r, w)
        b = RowBasis(coeff, w, track=True)
        b.add_mat(vecs)
        if data.draw(st.booleans()):  # a combination of the inputs
            v = (matrices(data, coeff, 1, r) @ vecs).rows[0]
        else:
            v = matrices(data, coeff, 1, w).rows[0]
        sol = b.solve(v)
        assert (sol is None) == (not b.contains(v))
        if sol is not None:
            assert all(canonical(coeff, x) for x in sol)
            assert (Mat.from_rows(coeff, [sol]) @ vecs).rows[0] == tuple(v)

    @PROPERTY
    @given(st.integers(-60, 60), st.integers(1, 12))
    def test_rational_scalars_are_int_when_integral(self, num, den):
        x = Fraction(num, den)
        for y in (Q.normalize(x), Q.parse_scalar(f"{num}/{den}")):
            assert y == x
            assert (type(y) is int) == (x.denominator == 1)
        if x:
            inv = Q.invert(x)
            assert inv == 1 / x
            assert (type(inv) is int) == ((1 / x).denominator == 1)

    def test_parse_scalar_reduces_to_int(self):
        x = Q.parse_scalar("4/2")
        assert x == 2 and type(x) is int


def random_entry(rng, coeff):
    """A raw entry: a nonzero int in [-9, 9], which over F2 and F3 may be
    zero in the ring (2, -3, ...); over Q sometimes divided by 2 to 7, and
    now and then Fraction(0, d), a zero that is not an int."""
    x = rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1,
                    1, 2, 3, 4, 5, 6, 7, 8, 9))
    if coeff.kind == Coeff.RATIONALS:
        u = rng.random()
        if u < 0.1:
            return Fraction(0, rng.randint(2, 7))
        if u < 0.4:
            return Fraction(x, rng.randint(2, 7))
    return x


def random_rows(rng, coeff, nrows, ncols) -> list:
    """Raw rows, each matrix at its own density, so that rows of every
    density occur while most matrices have nonzero entries."""
    density = rng.choice((0.3, 0.6, 1.0))
    return [[random_entry(rng, coeff) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def random_dim(rng, hi) -> int:
    """0 one time in twenty, else 1 to hi."""
    return 0 if rng.random() < 0.05 else rng.randint(1, hi)


def check_mat(m: Mat, coeff, shape, want):
    """m has the given shape, the dense rows want, sparse rows that keep
    the storage invariant, and equals (with the same hash) the matrix built
    from want as dense rows."""
    assert m.shape == shape
    assert m.rows == want
    sparse = m.sparse_rows()
    assert type(sparse) is tuple and len(sparse) == shape[0]
    for row in sparse:
        assert type(row) is tuple
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < shape[1] for j in cols)
        assert all(x != 0 and canonical(coeff, x) for _, x in row), row
    same = Mat(coeff, shape[0], shape[1], want)
    assert same == m and hash(same) == hash(m)
    assert same.sparse_rows() == sparse


class TestMatStorage:
    """Every constructor and operation of ``Mat`` against the dense
    reference ``oracles.DenseRef``, over Z, Q, F2 and F3."""

    RING = st.sampled_from(["Z", "Q", "F2", "F3"])
    # matrices come from a seeded random: hypothesis's own draws, those
    # of st.randoms(use_true_random=False) included, shrink toward 0 and
    # would leave most products with a zero operand
    RNG = st.randoms(use_true_random=True)

    @PROPERTY
    @given(RING, RNG)
    def test_constructors(self, code, rng):
        coeff = RINGS[code]
        ref = DenseRef(coeff)
        n, k = rng.randint(1, 4), random_dim(rng, 4)
        raw = random_rows(rng, coeff, n, k)
        want = ref.rows(raw)
        check_mat(Mat.from_rows(coeff, raw), coeff, (n, k), want)
        text = [[coeff.scalar_str(x) for x in row] for row in want]
        check_mat(Mat.from_json(coeff, text, (n, k)), coeff, (n, k), want)
        check_mat(Mat.from_json(coeff, [], (None, k)), coeff, (0, k), ())
        check_mat(Mat.identity(coeff, k), coeff, (k, k), ref.identity(k))
        check_mat(Mat.zero(coeff, n, k), coeff, (n, k), ref.zero(n, k))
        # basis elements are labels; images list their pairs in any order
        src = [f"s{i}" for i in range(n)]
        dst = [f"d{j}" for j in range(k)]
        rng.shuffle(dst)
        images = {}
        for s, row in zip(src, want):
            images[s] = [(dst[j], x) for j, x in enumerate(row) if x]
            rng.shuffle(images[s])
        check_mat(basis_matrix(coeff, src, dst, images.__getitem__),
                  coeff, (n, k), ref.basis_matrix(src, dst, images.__getitem__))

    @PROPERTY
    @given(RING, RNG)
    def test_arithmetic(self, code, rng):
        coeff = RINGS[code]
        ref = DenseRef(coeff)
        n, k, m = (random_dim(rng, 4) for _ in range(3))
        ra, rb, rc = (ref.rows(random_rows(rng, coeff, r, c))
                      for r, c in ((n, k), (k, m), (n, k)))
        a, b, c = (Mat(coeff, r, cols, rows) for r, cols, rows in
                   ((n, k, ra), (k, m, rb), (n, k, rc)))
        check_mat(a @ b, coeff, (n, m), ref.matmul(ra, rb, m))
        check_mat(a + c, coeff, (n, k), ref.add(ra, rc))
        check_mat(a - c, coeff, (n, k), ref.add(ra, rc, -1))
        check_mat(a - a, coeff, (n, k), ref.zero(n, k))

    @PROPERTY
    @given(RING, RNG)
    def test_shape_operations(self, code, rng):
        coeff = RINGS[code]
        ref = DenseRef(coeff)
        n, k, n2, k2 = (random_dim(rng, 3) for _ in range(4))
        ra, rb, rc = (ref.rows(random_rows(rng, coeff, r, c))
                      for r, c in ((n, k), (n2, k), (n, k2)))
        a, b, c = (Mat(coeff, r, cols, rows) for r, cols, rows in
                   ((n, k, ra), (n2, k, rb), (n, k2, rc)))
        check_mat(a.stack(b), coeff, (n + n2, k), ra + rb)
        check_mat(a.block_diag(c), coeff, (2 * n, k + k2),
                  ref.block_diag(ra, k, rc, k2))
        check_mat(a.kron(b), coeff, (n * n2, k * k), ref.kron(ra, rb))
        check_mat(a.transpose(), coeff, (k, n), ref.transpose(ra, k))
        # the minors oracle of the determinant tests
        rows = [rng.randrange(n) for _ in range(rng.randint(0, 3))] if n else []
        cols = [rng.randrange(k) for _ in range(rng.randint(0, 3))] if k else []
        check_mat(submatrix(a, rows, cols), coeff, (len(rows), len(cols)),
                  ref.submatrix(ra, rows, cols))

    def test_stack_mismatch_raises(self):
        # a mismatch raises whatever the height of the lower block
        a = Mat.identity(Z, 2)
        for other in (Mat.zero(Z, 0, 3), Mat.zero(Q, 0, 2),
                      Mat.identity(Z, 3), Mat.identity(F2, 2)):
            with pytest.raises(ValueError, match="stack mismatch"):
                a.stack(other)
        assert a.stack(Mat.zero(Z, 0, 2)) == a


class TestRowBasisSparse:
    """Edge cases of the sparse echelon engine, fed dense and sparse."""

    def test_width_zero(self):
        for coeff in (Z, Q, F2):
            b = RowBasis(coeff, 0, track=True)
            assert b.add([]) is False and b.add({}) is False
            assert b.rank == 0 and b.is_full() and b.contains([])
            assert b.solve([]) == [0, 0] and b.solve({}) == {}
            assert b.basis_mat().shape == (0, 0)
            assert left_kernel(Mat.zero(coeff, 3, 0)) == Mat.identity(coeff, 3)

    def test_zero_vector_pads_nothing(self):
        for coeff in (Z, Q, F3):
            b = RowBasis(coeff, 3, track=True)
            assert b.add([1, 0, 0])
            assert b.add([0, 0, 0]) is False and b.add({}) is False
            assert b._combos == [{0: 1}]
            assert b.combos == [[1, 0, 0]]
            assert b.add({1: 1})
            assert b._combos == [{0: 1}, {3: 1}]
            assert b.solve([2, 1, 0]) == [2, 0, 0, 1]
            assert b.solve({0: 2, 1: 1}) == {0: 2, 3: 1}

    def test_only_the_last_column(self):
        for coeff, x, piv in ((Z, -4, 4), (Q, Fraction(2, 3), 1), (F3, 2, 1)):
            for vec in ([0, 0, 0, x], {3: x}):
                b = RowBasis(coeff, 4)
                assert b.add(vec)
                assert b.pivots == [3] and b.rows == [[0, 0, 0, piv]]
                assert b.basis_mat().sparse_rows() == (((3, piv),),)
                assert b.contains(vec) and b.reduce({3: x}) == {}
                assert b.reduce([0, 0, 1, x]) == [0, 0, 1, 0]
                assert not b.contains({0: 1})

    def test_gcd_merge_with_tracking(self):
        # 2 v1 - v2 = (1, 2) and 3 v1 - 2 v2 = (0, 3): the merge of (3, 0)
        # into the pivot row (2, 1), then the reduction above the new pivot
        for second in ([3, 0], {0: 3}):
            b = RowBasis(Z, 2, track=True)
            assert b.add([2, 1]) and b.add(second)
            assert b.rows == [[1, 2], [0, 3]] and b.pivots == [0, 1]
            assert b.combos == [[2, -1], [3, -2]]
            assert b.solve([1, -1]) == [-1, 1]
            assert b.solve([0, 1]) is None
            assert snapshot(b) == ((1, 2), (0, 3))
            assert left_kernel(Mat.from_rows(Z, [[2, 1], [3, 0]])).nrows == 0

    def test_solve_zero_vector(self):
        for coeff in (Z, Q, F2, F3, F5):
            b = RowBasis(coeff, 3, track=True)
            b.add([1, 1, 0])
            b.add([0, 0, 0])
            b.add([0, 1, 1])
            assert b.solve([0, 0, 0]) == [0, 0, 0]
            assert b.solve({}) == {}
            assert b.reduce([0, 0, 0]) == [0, 0, 0] and b.reduce({}) == {}


def column_index(b: RowBasis) -> dict:
    """The column index of b recomputed from its rows."""
    index = {}
    for row, j in zip(b._rows, b.pivots):
        for k in row:
            index.setdefault(k, set()).add(j)
    return index


def basis_state(b: RowBasis) -> tuple:
    """Everything a RowBasis holds, as values."""
    return (b.rows, b.combos, list(b.pivots),
            {k: set(s) for k, s in b._cols.items() if s})


def forced_merge(rng, coeff, w) -> list:
    """Two rows that lead in column 0 with 2 and 3: over Z the second
    merges into the first by gcd."""
    return [[2] + random_rows(rng, coeff, 1, w - 1)[0],
            [3] + random_rows(rng, coeff, 1, w - 1)[0]]


class TestRowBasisIndex:
    """The column index names exactly the basis rows nonzero in each
    column, and a fork is an independent copy."""

    RING = st.sampled_from(["Z", "Q", "F2", "F3"])
    RNG = st.randoms(use_true_random=True)

    @PROPERTY
    @given(RING, RNG, st.booleans())
    def test_index_matches_rows(self, code, rng, track):
        coeff = RINGS[code]
        w = rng.randint(1, 6)
        b = RowBasis(coeff, w, track=track)
        rows = forced_merge(rng, coeff, w) + random_rows(
            rng, coeff, rng.randint(0, 8), w)
        for row in Mat.from_rows(coeff, rows).sparse_rows():
            b.add(row)
            assert {k: s for k, s in b._cols.items() if s} \
                == column_index(b)

    @PROPERTY
    @given(RING, RNG, st.booleans())
    def test_fork_then_add(self, code, rng, track):
        coeff = RINGS[code]
        w = rng.randint(1, 6)
        first = Mat.from_rows(coeff, forced_merge(rng, coeff, w)
                              + random_rows(rng, coeff, rng.randint(0, 5), w))
        then = Mat.from_rows(coeff, forced_merge(rng, coeff, w)
                             + random_rows(rng, coeff, rng.randint(0, 5), w))
        parent = RowBasis(coeff, w, track=track)
        parent.add_mat(first)
        before = basis_state(parent)
        fork = parent.fork()
        fork.add_mat(then)
        assert basis_state(parent) == before
        fresh = RowBasis(coeff, w, track=track)
        fresh.add_mat(first.stack(then))
        assert basis_state(fork) == basis_state(fresh)
        assert {k: s for k, s in fork._cols.items() if s} \
            == column_index(fork)
        # and the other way round: adding to the parent leaves the fork
        after = basis_state(fork)
        parent.add_mat(then)
        assert basis_state(fork) == after

    def test_gcd_merges_are_drawn(self, monkeypatch):
        # the Z examples above include gcd merges of basis rows
        import fcalc.exactlin.smith as smith

        merges = []

        def counted(*args):
            merges.append(1)
            return _gcd_merge(*args)

        _gcd_merge = smith._gcd_merge
        monkeypatch.setattr(smith, "_gcd_merge", counted)
        rng = random.Random(26)
        b = RowBasis(Z, 3)
        b.add_mat(Mat.from_rows(Z, forced_merge(rng, Z, 3)))
        assert merges and column_index(b) == {
            k: s for k, s in b._cols.items() if s}


class TestImageRows:
    INDEX = {"x": 0, "y": 1, "z": 2}

    @pytest.mark.parametrize("images", [
        # one pair each: the C-speed layout
        [(("y", 1),), (("z", 2),), (("x", 1),)],
        # one pair each, a zero value among them
        [(("y", 0),), (("x", 1),), (("z", 1),)],
        # combinations, an empty image and a zero value
        [(("z", 1), ("x", 2)), (), (("y", 0), ("x", 1))],
        [[("y", 1)], [("x", 1), ("z", 1)], [("z", 2)]],
    ])
    def test_same_rows_as_basis_matrix(self, images):
        from fcalc.exactlin.matrix import image_rows

        index = self.INDEX
        want = tuple(tuple(sorted((index[c], x) for c, x in image if x))
                     for image in images)
        image = dict(zip("abc", images)).__getitem__
        assert image_rows(index, images) == want
        assert basis_matrix(Z, "abc", "xyz", image).sparse_rows() == want
