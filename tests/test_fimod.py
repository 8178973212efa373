"""Tests for the FI-module calculus: translation, difference, degrees."""
import contextlib
import functools
import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fcalc import fimod
from fcalc.corpus import (
    augmentation_map, augmentation_sequence, build, build_sharp,
    ex_upm_sequence, norm_map, shift_kernel_witness,
)
from fcalc.exactlin import Coeff, Mat, ModuleMap, PresentedModule, det
from fcalc.fimod import (
    NEG_INF, NOT_CERTIFIED, DegreeReport, FunctorError, NatMap,
    TruncFIModule, WindowError,
    cokernel_nat, diff, dim_profile, direct_sum, exactness_transfer,
    generation_degree, freeify, is_stably_null, kappa, perm_action, perm_word,
    postcompose, shift, stable_kernel, strong_degree, tensor, truncate,
    unit_map, verify_six_term, weak_degree,
)
from fcalc.fimod import _power_mat
from fcalc.fisharp import SymRep, alpha, cross_effect
from oracles import (
    mat_json, mod_p, plain, submatrix, uct_dimension, word_product,
)

Z, Q, F2 = Coeff.Z(), Coeff.Q(), Coeff.GF(2)

CORPUS_NAMES = [
    ("const", "Z", 6), ("atomic(2)", "Z", 6), ("zgeq(2)", "Z", 6),
    ("P(1)", "Z", 6), ("P(2)", "Z", 6), ("augmentation_kernel", "Z", 6),
    ("ex_upm_A", "F2", 6), ("ex_upm_F", "F2", 6),
    ("atomic(0)+atomic(3)", "Z", 6), ("P(1)", "Q", 6),
]


@pytest.fixture(scope="module")
def corpus():
    return {(n, c): build(n, c, N) for n, c, N in CORPUS_NAMES}


def not_an_involution():
    """P(1) with a 3-cycle for s_1 at level 3."""
    F = build("P(1)", "Z", 3)
    sym = [list(s) for s in F.sym]
    sym[3][0] = Mat.from_rows(Z, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    return TruncFIModule(Z, F.levels, F.incl, sym)


def ill_defined_s1():
    """P(1) with level 2 presented as Z^2 / (e_1): the swap sends the
    relation to e_2, and the inclusion sends it to the free e_1."""
    F = build("P(1)", "Z", 3)
    levels = list(F.levels)
    levels[2] = PresentedModule.from_rel_rows(Z, 2, [[1, 0]])
    incl = [ModuleMap(levels[n], levels[n + 1], f.mat)
            for n, f in enumerate(F.incl)]
    return TruncFIModule(Z, levels, incl, F.sym)


def non_commuting_s1_s3():
    """P(1) with s_3 at level 4 replaced by s_2: s_1 and s_3 no longer
    commute."""
    F = build("P(1)", "Z", 4)
    sym = [list(s) for s in F.sym]
    sym[4][2] = sym[4][1]
    return TruncFIModule(Z, F.levels, F.incl, sym)


class TestStructure:
    def test_all_corpus_verify(self, corpus):
        for key, F in corpus.items():
            assert F.verify() == [], key

    def test_braid_violation_detected(self):
        bad = not_an_involution().verify()
        assert any("involution" in msg and "level 3" in msg for msg in bad)

    def test_corrupted_inclusion_detected(self):
        F = build("P(1)", "Z", 3)
        incl = list(F.incl)
        rows = [list(r) for r in incl[2].mat.rows]
        rows[0] = [0, 0, 1]  # send the first point to the added point
        incl[2] = ModuleMap(F.levels[2], F.levels[3], Mat.from_rows(Z, rows))
        G = TruncFIModule(Z, F.levels, incl, F.sym)
        assert G.verify() != []

    def test_maps_that_break_the_relations_detected(self):
        bad = ill_defined_s1().verify()
        assert "level 2: s_1 does not respect the relations" in bad
        assert "inclusion at level 2 does not respect the relations" in bad

    def test_distant_transpositions_that_do_not_commute_detected(self):
        bad = non_commuting_s1_s3().verify()
        assert ("level 4: distant transpositions s_1, s_3 do not commute"
                in bad)

    @pytest.mark.parametrize("corrupted", [
        not_an_involution, ill_defined_s1, non_commuting_s1_s3])
    def test_one_coxeter_check_for_functors_and_representations(
            self, corrupted):
        # verify's per-level lines are the representation check of each
        # level's transpositions, prefixed with the level
        F = corrupted()
        levels = [msg for msg in F.verify()
                  if re.match(r"level \d+: ", msg)]
        assert levels
        assert levels == [f"level {n}: {msg}" for n in range(F.N + 1)
                          for msg in SymRep(n, F.levels[n], F.sym[n]).verify()]

    def test_perm_word(self):
        rng = random.Random(3)
        for n in range(1, 6):
            for _ in range(10):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                word = perm_word(tuple(perm))
                # rebuild: sigma = s_{w0+1} o ... o s_{wk+1}, rightmost
                # applied first, so wrap the composite from the right end
                out = list(range(1, n + 1))
                for i in reversed(word):
                    a, b = i + 1, i + 2
                    out = [b if v == a else a if v == b else v for v in out]
                assert out == perm

    def test_perm_matrix_on_free_functor(self):
        F = build("P(1)", "Z", 4)
        rng = random.Random(5)
        for _ in range(10):
            perm = list(range(1, 5))
            rng.shuffle(perm)
            mat = F.perm_matrix(4, tuple(perm))
            # P(1) basis element x is the injection 1 -> x; sigma acts by
            # post-composition, so e_x goes to e_{sigma(x)}
            for x in range(1, 5):
                row = mat.rows[x - 1]
                assert row[perm[x - 1] - 1] == 1
                assert sum(map(abs, row)) == 1


@st.composite
def actions(draw):
    """A ring, a generator count, one arbitrary (not necessarily monomial)
    matrix per adjacent transposition, and a permutation."""
    coeff = Coeff.parse(draw(st.sampled_from(["Z", "Q", "F2", "F3", "F5"])))
    gens, points = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.integers(-3, 3)
    if coeff.kind == Coeff.RATIONALS:
        entry = st.one_of(entry, st.builds(Fraction, entry, st.integers(2, 5)))
    row = st.lists(entry, min_size=gens, max_size=gens)
    sym = [Mat.from_rows(coeff, draw(st.lists(row, min_size=gens,
                                              max_size=gens)))
           for _ in range(max(points - 1, 0))]
    perm = tuple(draw(st.permutations(range(1, points + 1))))
    return coeff, gens, sym, perm


class TestPermAction:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(actions())
    def test_matches_dense_word_product(self, action):
        # repr tells an int from an integral Fraction: the entries must be
        # the dense product's, canonical form included
        coeff, gens, sym, perm = action
        got = perm_action(coeff, gens, sym, perm)
        assert got.shape == (gens, gens)
        assert repr(got.rows) == repr(word_product(coeff, gens, sym, perm).rows)

    def test_no_generators_and_identity_permutation(self):
        for coeff in (Z, Q, F2):
            swap = Mat.from_rows(coeff, [[0, 1], [1, 0]])
            assert perm_action(coeff, 0, [Mat.zero(coeff, 0, 0)] * 2,
                               (3, 1, 2)) == Mat.identity(coeff, 0)
            assert perm_action(coeff, 2, [swap] * 3, (1, 2, 3, 4)) == \
                Mat.identity(coeff, 2)


class TestShift:
    def test_shift_zero_is_identity(self, corpus):
        F = corpus[("P(1)", "Z")]
        assert shift(F, 0) is F

    def test_shift_additivity_exact(self, corpus):
        for key in [("P(1)", "Z"), ("zgeq(2)", "Z"), ("augmentation_kernel", "Z")]:
            F = corpus[key]
            assert shift(shift(F, 1), 1).structurally_equal(shift(F, 2)), key
            assert shift(shift(F, 2), 1).structurally_equal(shift(F, 3)), key

    def test_shift_of_constant(self, corpus):
        F = corpus[("const", "Z")]
        for x in (1, 3):
            S = shift(F, x)
            assert S.verify() == []
            assert dim_profile(S).dims == [1] * (F.N - x + 1)

    def test_shift_window_error(self, corpus):
        with pytest.raises(WindowError):
            shift(corpus[("const", "Z")], 7)

    def test_shift_results_verify(self, corpus):
        for key in [("P(2)", "Z"), ("ex_upm_F", "F2"), ("augmentation_kernel", "Z")]:
            assert shift(corpus[key], 1).verify() == [], key

    def test_shift_kernel_is_rank_functor(self):
        # the stated isomorphism onto the shifted augmentation kernel
        K = build("augmentation_kernel", "Z", 8)
        w = shift_kernel_witness(K)
        assert w.is_natural()
        assert w.is_levelwise_iso()


class TestNatMap:
    def test_identity_on_a_quotient_is_not_a_map(self):
        # the identity matrices from Z/2 = coker(2·id) to the constant Z
        # commute with the structure maps but are not well defined
        C = build("const", "Z", 4)
        Q2, _ = cokernel_nat(NatMap(C, C, [ModuleMap(
            m, m, Mat.from_rows(Z, [[2]])) for m in C.levels]))
        w = NatMap(Q2, C, [ModuleMap(a, b, Mat.identity(Z, 1))
                           for a, b in zip(Q2.levels, C.levels)])
        assert not w.is_natural()
        assert not w.is_levelwise_iso()

    def test_inclusion_square_fails(self):
        # 2 at level 1 and 1 elsewhere: well defined, but the square of the
        # inclusion from level 1 does not commute
        F = build("P(1)", "Z", 3)
        maps = [ModuleMap.identity(m) for m in F.levels]
        maps[1] = ModuleMap(F.levels[1], F.levels[1], Mat.from_rows(Z, [[2]]))
        assert not NatMap(F, F, maps).is_natural()

    def test_transposition_square_fails(self):
        # e_1, e_2 -> e_1 at level 2 commutes with the inclusions of P(1)
        # on [0, 2] but not with the swap s_1
        F = build("P(1)", "Z", 2)
        maps = [ModuleMap.identity(m) for m in F.levels]
        maps[2] = ModuleMap(F.levels[2], F.levels[2],
                            Mat.from_rows(Z, [[1, 0], [1, 0]]))
        w = NatMap(F, F, maps)
        assert all(f.is_well_defined() for f in w.maps)
        assert all(w.maps[n].then(F.incl[n]).equals(F.incl[n].then(w.maps[n + 1]))
                   for n in range(F.N))
        assert not w.is_natural()


class TestUnitMap:
    def test_unit_is_natural(self, corpus):
        for key in [("P(1)", "Z"), ("P(2)", "Z"), ("zgeq(2)", "Z"),
                    ("augmentation_kernel", "Z"), ("ex_upm_F", "F2")]:
            for x in (1, 2):
                u = unit_map(corpus[key], x)
                assert u.is_natural(), (key, x)

    def test_unit_level_zero_source(self):
        F = build("zgeq(1)", "Z", 5)
        u = unit_map(F, 1)
        assert u.maps[0].src.is_zero()

    def test_unit_into_zero_target(self):
        F = build("atomic(2)", "Z", 5)
        u = unit_map(F, 1)
        assert u.maps[2].dst.is_zero()
        assert u.maps[2].src.invariant_factors() == [1]

    def test_unit_of_rank_functor_is_basis_inclusion(self):
        # the basis of injections from one point embeds identically
        F = build("P(1)", "Z", 5)
        u = unit_map(F, 1)
        for n in range(5):
            mat = u.maps[n].mat
            assert mat.shape == (n, n + 1)
            for i in range(n):
                assert mat.rows[i][i] == 1
                assert sum(map(abs, mat.rows[i])) == 1


class TestDiffKappa:
    def test_diff_zgeq_is_atomic(self):
        for n in range(1, 5):
            F = build(f"zgeq({n})", "Z", 8)
            d = diff(F)
            target = build(f"atomic({n - 1})", "Z", 7)
            assert d.profile_eq(target), n

    def test_diff_of_atomic(self):
        F = build("atomic(3)", "Z", 8)
        assert diff(F).profile_eq(build("atomic(2)", "Z", 7))

    def test_diff_P1_is_constant(self):
        d = diff(build("P(1)", "Z", 8))
        assert d.profile_eq(build("const", "Z", 7))

    def test_diff_augmentation_kernel_is_zgeq1(self):
        d = diff(build("augmentation_kernel", "Z", 8))
        assert d.profile_eq(build("zgeq(1)", "Z", 7))

    def test_diff_results_verify(self, corpus):
        for key in [("P(2)", "Z"), ("augmentation_kernel", "Z"), ("ex_upm_F", "F2")]:
            assert diff(corpus[key]).verify() == [], key

    def test_kappa_P1_vanishes(self, corpus):
        assert kappa(corpus[("P(1)", "Z")]).is_zero_functor()

    def test_kappa_atomic_is_atomic(self):
        F = build("atomic(2)", "Z", 6)
        k = kappa(F)
        assert k.profile_eq(truncate(build("atomic(2)", "Z", 6), 5))

    def test_kappa_zgeq_vanishes(self):
        assert kappa(build("zgeq(3)", "Z", 6)).is_zero_functor()

    def test_kappa_idempotent(self, corpus):
        for key in [("atomic(0)+atomic(3)", "Z"), ("zgeq(2)", "Z"),
                    ("augmentation_kernel", "Z")]:
            F = corpus[key]
            k1 = kappa(F)
            k2 = kappa(k1)
            assert k2.profile_eq(truncate(k1, k1.N - 1)), key

    def test_diff_shift_commute_with_witness(self, corpus):
        # the transposition of the two relevant points descends to an
        # isomorphism shift(diff F) -> diff(shift F), naturally
        for key in [("P(1)", "Z"), ("zgeq(2)", "Z"), ("augmentation_kernel", "Z"),
                    ("ex_upm_F", "F2")]:
            F = corpus[key]
            left = shift(diff(F), 1)
            right = diff(shift(F, 1))
            assert left.N == right.N
            maps = []
            for n in range(left.N + 1):
                swap = F.sym[n + 2][n]
                maps.append(ModuleMap(left.levels[n], right.levels[n], swap))
            w = NatMap(left, right, maps)
            assert all(f.is_well_defined() for f in w.maps), key
            assert w.is_natural(), key
            assert w.is_levelwise_iso(), key

    def test_kappa_shift_commute_profiles(self, corpus):
        for key in [("atomic(0)+atomic(3)", "Z"), ("zgeq(2)", "Z")]:
            F = corpus[key]
            left = shift(kappa(F), 1)
            right = kappa(shift(F, 1))
            assert left.profile_eq(right), key


class TestStableNullity:
    def test_atomics_are_stably_null(self):
        F = build("atomics_upto(4)", "Z", 8)
        assert is_stably_null(F, 1)

    def test_constant_is_not(self, corpus):
        assert not is_stably_null(corpus[("const", "Z")], 1)

    def test_zgeq2_is_not(self, corpus):
        assert not is_stably_null(corpus[("zgeq(2)", "Z")], 1)

    def test_stable_kernel_of_atomics(self):
        F = build("atomic(0)+atomic(3)", "Z", 6)
        sk = stable_kernel(F, 1)
        assert sk.profile_eq(truncate(F, 5))

    def test_stable_kernel_of_constant(self, corpus):
        assert stable_kernel(corpus[("const", "Z")], 2).is_zero_functor()

    def test_stable_kernel_of_augmentation_kernel(self):
        F = build("augmentation_kernel", "Z", 6)
        assert stable_kernel(F, 1).is_zero_functor()

    def test_window_errors(self, corpus):
        with pytest.raises(WindowError):
            is_stably_null(corpus[("const", "Z")], 8)


class TestDegrees:
    def test_strong_degrees(self):
        assert strong_degree(build("const", "Z", 6)).value == 0
        assert strong_degree(build("zgeq(4)", "Z", 10)).value == 4
        assert strong_degree(build("P(2)", "Z", 7)).value == 2
        assert strong_degree(build("augmentation_kernel", "Z", 7)).value == 2

    def test_strong_degree_zero_functor(self):
        assert strong_degree(diff(build("const", "Z", 6))).value == NEG_INF

    def test_strong_degree_window_exhaustion(self):
        assert strong_degree(build("zgeq(4)", "Z", 4)).value == NOT_CERTIFIED

    def test_weak_degrees(self):
        assert weak_degree(build("augmentation_kernel", "Z", 10), 2).value == 1
        assert weak_degree(build("atomics_upto(6)", "Z", 10), 1).value == NEG_INF
        for n in range(4):
            assert weak_degree(build(f"zgeq({n})", "Z", 8), 1).value == 0, n

    def test_weak_le_strong(self, corpus):
        for key, F in corpus.items():
            s = strong_degree(F)
            w = weak_degree(F, 1)
            if s.certified and w.certified:
                sv = -10**9 if s.value == NEG_INF else s.value
                wv = -10**9 if w.value == NEG_INF else w.value
                assert wv <= sv, key

    def test_generation_equals_strong(self, corpus):
        for key, F in corpus.items():
            s = strong_degree(F)
            if not s.certified or s.value == NEG_INF:
                continue
            g = generation_degree(F)
            assert g.value == s.value, key

    @pytest.mark.parametrize("ring", ["Z", "Q", "F2"])
    def test_generation_of_differences(self, ring):
        # the levels of a difference carry relations, the images of the
        # level below: only modulo them is delta P(d) generated in degree
        # d - 1
        for name, degrees in (("P(1)", [1, 0, 0]), ("P(2)", [2, 1, 0]),
                              ("ex_upm_A", [2, 1, 0])):
            F = build(name, ring, 6)
            got = [generation_degree(G).value for G in (F, diff(F), diff(diff(F)))]
            assert got == degrees, name

    def test_strong_zero_iff_surjections_from_zero(self, corpus):
        for key, F in corpus.items():
            s = strong_degree(F)
            if not s.certified or s.value == NEG_INF:
                continue
            from fcalc.exactlin import cokernel
            all_epi = all(
                cokernel(F.unit_to(0, n))[0].is_zero() for n in range(F.N + 1))
            assert (s.value == 0) == all_epi, key

    def test_degree_report_str(self):
        rep = strong_degree(build("zgeq(4)", "Z", 10))
        assert str(rep) == "degree = 4, window [0,5]"


NC = (NOT_CERTIFIED, None)

# entry -> (strong degree, weak degree at margins 1..N+1), each as
# (value, window); recorded outputs, so any change to one is a change of
# behaviour
DEGREE_PINS = {
    ("const", "Z", 4): ((0, (0, 3)), [
        (0, (0, 2)), (0, (0, 1)), (0, (0, 0)), NC, NC]),
    ("atomic(2)", "Z", 4): ((2, (0, 1)), [
        (NEG_INF, (0, 3)), (NEG_INF, (0, 2)), (NEG_INF, (0, 1)),
        (NEG_INF, (0, 0)), NC]),
    ("zgeq(2)", "Z", 5): ((2, (0, 2)), [
        (0, (0, 3)), (0, (0, 2)), (0, (0, 1)), (NEG_INF, (0, 1)),
        (NEG_INF, (0, 0)), NC]),
    ("P(1)", "Q", 4): ((1, (0, 2)), [
        (1, (0, 1)), (1, (0, 0)), NC, (NEG_INF, (0, 0)), NC]),
    ("augmentation_kernel", "Z", 5): ((2, (0, 2)), [
        (1, (0, 2)), (1, (0, 1)), (1, (0, 0)), (NEG_INF, (0, 1)),
        (NEG_INF, (0, 0)), NC]),
    ("sum_zgeq", "Z", 4): (NC, [
        (0, (0, 2)), (0, (0, 1)), (0, (0, 0)), NC, NC]),
    ("ex_upm_A", "F3", 4): ((2, (0, 1)), [
        (2, (0, 0)), NC, (NEG_INF, (0, 1)), (NEG_INF, (0, 0)), NC]),
    ("zgeq(4)", "F2", 4): (NC, [
        (NEG_INF, (0, 3)), (NEG_INF, (0, 2)), (NEG_INF, (0, 1)),
        (NEG_INF, (0, 0)), NC]),
    # the weak window counts levels of the (d+1)-st difference, and its
    # value can rise with N at the same window and margin: at margin 2
    # ex_upm_F reads 0, not certified and 2 at N = 3, 4, 5, and zgeq(2)
    # reads -inf and 0 on [0,1] at N = 3, 4
    ("ex_upm_F", "F2", 3): ((2, (0, 0)), [
        NC, (0, (0, 0)), NC, NC]),
    ("ex_upm_F", "F2", 4): ((2, (0, 1)), [
        (2, (0, 0)), NC, (0, (0, 0)), NC, NC]),
    ("ex_upm_F", "F2", 5): ((2, (0, 2)), [
        (2, (0, 1)), (2, (0, 0)), NC, (0, (0, 0)), NC, NC]),
    ("zgeq(2)", "Q", 3): ((2, (0, 0)), [
        (0, (0, 1)), (NEG_INF, (0, 1)), (NEG_INF, (0, 0)), NC]),
    ("zgeq(2)", "Q", 4): ((2, (0, 1)), [
        (0, (0, 2)), (0, (0, 1)), (NEG_INF, (0, 1)), (NEG_INF, (0, 0)),
        NC]),
}


class TestDegreePins:
    @pytest.mark.parametrize("key", list(DEGREE_PINS), ids=str)
    def test_every_margin(self, key):
        F = build(*key)
        strong, weak = DEGREE_PINS[key]
        assert strong_degree(F) == DegreeReport(*strong)
        assert len(weak) == F.N + 1
        for margin, pin in enumerate(weak, start=1):
            assert weak_degree(F, margin) == DegreeReport(*pin, margin), margin

    def test_margin_below_one(self):
        with pytest.raises(FunctorError):
            weak_degree(build("const", "Z", 3), 0)


def _rank(value):
    """The order of degree values: -inf below every number."""
    return -1 if value == NEG_INF else value


class TestAcrossN:
    """The verdicts on one corpus entry at truncations M < N.  A certified
    strong degree does not depend on N, and alpha's certified profiles
    agree on the levels both reach.  A certified weak degree d may rise
    with N but never falls, and its certificate at M is a fact about
    levels that F_N shares: the levels of its window die in the (d+1)-st
    difference by that difference's top level at M, and so by its top
    level at N; and for a number d, some level within the margin of the
    d-th difference does not die by that difference's top level at M."""

    ENTRIES = [("const", "Z"), ("zgeq(2)", "Q"), ("zgeq(3)", "F2"),
               ("P(1)", "F3"), ("P(2)", "Z"), ("augmentation_kernel", "Q"),
               ("ex_upm_A", "F3"), ("ex_upm_F", "F2"), ("sum_zgeq", "Z"),
               ("atomics_upto(2)", "F2"), ("atomic(0)+atomic(3)", "Q")]
    TRUNCATIONS = range(2, 8)
    MARGINS = (1, 2, 3)

    @pytest.mark.parametrize("name, code", ENTRIES)
    def test_verdicts_agree(self, name, code):
        functors = {}
        for N in self.TRUNCATIONS:
            with contextlib.suppress(FunctorError):  # an argument above N
                functors[N] = build(name, code, N)
        # differences[N][k] is the k-th difference of F at truncation N
        differences = {}
        for N, F in functors.items():
            chain = [F]
            while chain[-1].N >= 1:
                chain.append(diff(chain[-1]))
            differences[N] = chain
        strong = {N: strong_degree(F) for N, F in functors.items()}
        weak = {(N, m): weak_degree(F, m)
                for N, F in functors.items() for m in self.MARGINS}
        profiles = {}
        for N, F in functors.items():
            for m in self.MARGINS:
                with contextlib.suppress(WindowError):  # nothing certified
                    profiles[N, m] = [lvl.invariant_factors()
                                      for lvl in alpha(F, m).module.levels]
        for M, N in combinations(sorted(functors), 2):
            if strong[M].certified and strong[N].certified:
                assert strong[M].value == strong[N].value, (M, N)
            for m in self.MARGINS:
                if (M, m) in profiles and (N, m) in profiles:
                    low, high = profiles[M, m], profiles[N, m]
                    shared = min(len(low), len(high))
                    assert low[:shared] == high[:shared], (M, N, m)
                rep = weak[M, m]
                if not rep.certified:
                    continue
                d = _rank(rep.value)
                if weak[N, m].certified:
                    assert _rank(weak[N, m].value) >= d, (M, N, m)
                # the (d+1)-st difference at M has top level M - d - 1
                top = M - d - 1
                G = differences[N][d + 1]
                for by in (top, G.N):
                    assert all(G.unit_to(n, by).is_zero_map()
                               for n in range(rep.window[1] + 1)), (M, N, m)
                if d >= 0:
                    G = differences[N][d]
                    assert not all(G.unit_to(n, top + 1).is_zero_map()
                                   for n in range(top + 2 - m)), (M, N, m)


class TestDimProfile:
    def test_P1_over_Q(self):
        prof = dim_profile(build("P(1)", "Q", 7))
        assert prof.dims == list(range(8))
        assert prof.diffs[2] == [0] * 6
        assert prof.poly_degree == 1 and prof.poly_from == 0

    def test_augmentation_kernel_over_Q(self):
        K = build("augmentation_kernel", "Q", 7)
        prof = dim_profile(K)
        assert prof.dims == [0, 0, 1, 2, 3, 4, 5, 6]
        assert prof.poly_degree == 1 and prof.poly_from == 1

    def test_constant(self):
        prof = dim_profile(build("const", "Q", 5))
        assert prof.dims == [1] * 6
        assert prof.diffs[1] == [0] * 5
        assert prof.poly_degree == 0

    def test_dv_recursion_past_kappa_support(self, corpus):
        for key in [("P(1)", "Q"), ("ex_upm_A", "F2"), ("ex_upm_F", "F2")]:
            F = corpus[key]
            k = kappa(F)
            support = max(
                (n for n in range(k.N + 1) if not k.levels[n].is_zero()),
                default=-1)
            dims = dim_profile(F).dims
            ddims = dim_profile(diff(F)).dims
            for n in range(support + 1, F.N):
                assert dims[n + 1] == dims[n] + ddims[n], (key, n)


class TestSums:
    def test_direct_sum_additivity(self):
        F = build("atomic(0)+atomic(3)", "Z", 6)
        assert dim_profile(F).dims == [1, 0, 0, 1, 0, 0, 0]
        assert F.verify() == []

    def test_sum_with_zero(self):
        F = build("P(1)", "Z", 5)
        Zero = diff(build("const", "Z", 6))
        S = direct_sum(F, Zero)
        assert S.profile_eq(F)

    def test_tensor_multiplicativity(self):
        F = build("P(1)", "Q", 5)
        T = tensor(F, F)
        assert dim_profile(T).dims == [n * n for n in range(6)]
        assert T.verify() == []

    def test_tensor_needs_field(self):
        F = build("P(1)", "Z", 4)
        with pytest.raises(Exception):
            tensor(F, F)


# -- closure properties -------------------------------------------------

CLOSURE_ENTRIES = ("const", "atomic(2)", "zgeq(2)", "zgeq(3)", "P(1)", "P(2)",
                   "augmentation_kernel", "sum_zgeq", "ex_upm_A", "ex_upm_F",
                   "atomics_upto(6)")
_ENTRY = st.tuples(st.sampled_from(CLOSURE_ENTRIES),
                   st.sampled_from(("id", "diff", "kappa")))


@functools.cache
def _closure_functor(name, op, ring, N):
    """The corpus entry, or its diff or kappa, over ring on [0, N]."""
    if op == "id":
        return build(name, ring, N)
    return {"diff": diff, "kappa": kappa}[op](build(name, ring, N + 1))


def _order(rep):
    return float("-inf") if rep.value == NEG_INF else rep.value


def _closure_violations(ring, F, G, margin, products):
    """The closure properties that F, G and F + G break and, with
    products (fields only), F x G and F x 1 for the tensor unit 1, the
    constant functor: on certified degrees only, deg(F + G) = max(deg F,
    deg G) for strong and weak degree, deg(F x G) <= deg F + deg G,
    deg 1 = 0 and deg(F x 1) = deg F, and weak <= strong on each functor.
    direct_sum and the degrees are looked up in fimod at the call."""
    functors = {"F": F, "G": G, "F+G": fimod.direct_sum(F, G)}
    if products:
        functors["1"] = unit = _closure_functor("const", "id", ring, F.N)
        functors["FxG"] = tensor(F, G)
        functors["Fx1"] = tensor(F, unit)
    bad = []
    strong = {}
    for kind in ("strong", "weak"):
        deg = {name: fimod.strong_degree(X) if kind == "strong"
               else fimod.weak_degree(X, margin)
               for name, X in functors.items()}
        value = {name: _order(rep) for name, rep in deg.items()
                 if rep.certified}
        if "F" in value and "G" in value and value.get("F+G") != max(
                value["F"], value["G"]):
            bad.append(f"{kind}: deg(F + G) = {deg['F+G'].value}, "
                       f"deg F = {deg['F'].value}, deg G = {deg['G'].value}")
        if {"F", "G", "FxG"} <= value.keys() \
                and value["FxG"] > value["F"] + value["G"]:
            bad.append(f"{kind}: deg(F x G) = {deg['FxG'].value}, "
                       f"deg F = {deg['F'].value}, deg G = {deg['G'].value}")
        if value.get("1", 0) != 0:
            bad.append(f"{kind}: deg 1 = {deg['1'].value}")
        if {"F", "Fx1"} <= value.keys() and value["Fx1"] != value["F"]:
            bad.append(f"{kind}: deg(F x 1) = {deg['Fx1'].value}, "
                       f"deg F = {deg['F'].value}")
        bad += [f"{name}: weak degree {v} above strong {strong[name]}"
                for name, v in value.items()
                if name in strong and v > strong[name]]
        strong = value
    return bad


class TestClosureProperties:
    """The paper's strong and weak polynomial functors are closed under
    direct sums and tensor products: the degree of a sum is the larger
    degree, that of a tensor product at most the sum of the degrees, and
    a strong degree bounds the weak one.  These relate answers to each
    other, so they need no recorded answer.  Equality for tensor products
    is false (P(1) x atomic(2) has strong degree 2), so only the bound is
    checked; the tensor unit's degree 0 anchors it."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(["Z", "Q", "F2", "F3"]), st.integers(3, 6),
           _ENTRY, _ENTRY, st.integers(1, 2))
    def test_sums(self, ring, N, f, g, margin):
        F, G = (_closure_functor(*x, ring, N) for x in (f, g))
        assert _closure_violations(ring, F, G, margin, False) == []

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(["Q", "F2", "F3"]), st.integers(3, 5),
           _ENTRY, _ENTRY, st.integers(1, 2))
    def test_tensor_products(self, ring, N, f, g, margin):
        F, G = (_closure_functor(*x, ring, N) for x in (f, g))
        assert _closure_violations(ring, F, G, margin, True) == []

    def test_sum_that_drops_a_top_level_fails(self, monkeypatch):
        # G's top level replaced by 0: the weak degree of F + G drops to
        # F's, since every unit into the top level is then zero
        def drop_top(G):
            zero = PresentedModule(G.coeff, 0, Mat.zero(G.coeff, 0, 0))
            last = ModuleMap(G.levels[-2], zero,
                             Mat.zero(G.coeff, G.levels[-2].gens, 0))
            return TruncFIModule(
                G.coeff, (*G.levels[:-1], zero), (*G.incl[:-1], last),
                (*G.sym[:-1], [Mat.zero(G.coeff, 0, 0)] * (G.N - 1)))
        F, G = (_closure_functor(name, "id", "Q", 5)
                for name in ("const", "P(1)"))
        monkeypatch.setattr(fimod, "direct_sum",
                            lambda F, G, real=direct_sum: real(F, drop_top(G)))
        assert _closure_violations("Q", F, G, 1, False) == [
            "weak: deg(F + G) = 0, deg F = 0, deg G = 1"]

    @pytest.mark.parametrize("off, caught", [
        (1, "strong: deg 1 = 1"),
        (-1, "strong: deg(F x G) = 1, deg F = 0, deg G = 0")])
    def test_degree_off_by_one_fails(self, monkeypatch, off, caught):
        # P(1) x P(1) meets the bound, so one less breaks it; one more
        # breaks the unit's degree 0
        def shifted(F, null_window, margin=None, real=fimod._degree):
            rep = real(F, null_window, margin)
            if rep.value in (NEG_INF, NOT_CERTIFIED):
                return rep
            return DegreeReport(rep.value + off, rep.window, rep.margin)
        monkeypatch.setattr(fimod, "_degree", shifted)
        F = _closure_functor("P(1)", "id", "Q", 5)
        assert caught in _closure_violations("Q", F, F, 1, True)


class TestPostcompose:
    def test_exterior_square_of_P1(self):
        E = postcompose(build("P(1)", "Q", 7), "L2")
        assert dim_profile(E).dims == [n * (n - 1) // 2 for n in range(8)]
        assert E.verify() == []
        assert strong_degree(E).value == 2

    def test_tensor_square_of_P1(self):
        T = postcompose(build("P(1)", "Q", 7), "T2")
        assert dim_profile(T).dims == [n * n for n in range(8)]
        assert strong_degree(T).value == 2

    def test_symmetric_square_of_P1(self):
        S = postcompose(build("P(1)", "Q", 6), "S2")
        assert dim_profile(S).dims == [n * (n + 1) // 2 for n in range(7)]
        assert S.verify() == []

    def test_tensor_square_of_constant(self):
        C = postcompose(build("const", "Q", 5), "T2")
        assert dim_profile(C).dims == [1] * 6

    def test_degree_bound(self):
        # composite degree is at most (power) * (degree)
        for token, k in (("T2", 2), ("L2", 2), ("S2", 2)):
            E = postcompose(build("P(1)", "Q", 7), token)
            s = strong_degree(E)
            assert s.certified and s.value <= k * 1

    def test_rejects_integer_coefficients(self):
        with pytest.raises(Exception):
            postcompose(build("P(1)", "Z", 5), "L2")

    def test_freeified_input(self):
        # a presented (non-free) functor goes through the free normalization
        F = build("ex_upm_F", "F2", 5)
        T = postcompose(F, "T2")
        dims = dim_profile(F).dims
        assert dim_profile(T).dims == [d * d for d in dims]


    @pytest.mark.parametrize("coeff", ["Q", "F2", "F3"])
    def test_freeify_witness(self, coeff):
        P2 = build("P(2)", coeff, 5)
        for F in (P2, diff(P2), build("ex_upm_F", coeff, 5)):
            G, w = freeify(F)
            assert all(m.rels.nrows == 0 for m in G.levels)
            assert w.is_natural() and w.is_levelwise_iso()

    @pytest.mark.parametrize("coeff", ["Q", "F2", "F3"])
    def test_exterior_square_of_presented_input(self, coeff):
        # diff(P(2)) has dimension 2n and carries relations, so this goes
        # through freeify
        D = diff(build("P(2)", coeff, 5))
        assert any(m.rels.nrows for m in D.levels)
        assert dim_profile(postcompose(D, "L2")).dims == [0, 1, 6, 15, 28]


class TestPowerMatrices:
    """The one builder of T^k, S^k and L^k against independent references:
    iterated kron, the minors, and functoriality."""

    RINGS = {"Z": Z, "Q": Q, "F2": F2, "F3": Coeff.GF(3)}

    @staticmethod
    def matrix(rng, coeff, nrows, ncols) -> Mat:
        def entry():
            x = rng.randint(-3, 3)
            if coeff.kind == Coeff.RATIONALS and rng.random() < 0.3:
                return Fraction(x, rng.randint(2, 4))
            return x
        if not nrows:
            return Mat.zero(coeff, 0, ncols)
        return Mat.from_rows(coeff, [[entry() for _ in range(ncols)]
                                     for _ in range(nrows)])

    # the matrices come from a seeded random: st.randoms(use_true_random=
    # False) shrinks toward 0 and leaves almost every exterior power zero
    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(["Z", "Q", "F2", "F3"]), st.integers(0, 3),
           st.randoms(use_true_random=True))
    def test_powers(self, code, k, rng):
        coeff = self.RINGS[code]
        # half the draws take sizes from k - 1 up, where the exterior power
        # need not be zero by shape; the rest keep the empty and small
        # shapes from 0 up
        lo = rng.choice((0, max(k - 1, 0)))
        n, m, r = (rng.randint(lo, 3) for _ in range(3))
        a, b = self.matrix(rng, coeff, n, m), self.matrix(rng, coeff, m, r)
        tensor = Mat.identity(coeff, 1)
        for _ in range(k):
            tensor = tensor.kron(a)
        assert _power_mat(a, "T", k) == tensor
        ext = _power_mat(a, "L", k)
        rows, cols = (list(combinations(range(x), k)) for x in (n, m))
        assert ext.shape == (len(rows), len(cols))
        assert ext.rows == tuple(tuple(det(submatrix(a, I, J)) for J in cols)
                                 for I in rows)
        for kind in "TSL":  # for L this is Cauchy-Binet
            assert _power_mat(a @ b, kind, k) == \
                _power_mat(a, kind, k) @ _power_mat(b, kind, k)


class TestUniversalCoefficients:
    """The universal-coefficient identity (``oracles.uct_dimension``) on
    every level of diff, kappa and alpha of the Z corpus: the Z profile
    against the F_p rank of the relations mod p, for p = 2 and 3.  No such
    level has a factor > 1, so the torsion case is left to the random
    presentations of test_exactlin.py."""

    def test_corpus_levels(self):
        levels = 0
        for name in ("const", "atomic(2)", "zgeq(3)", "P(1)", "P(2)",
                     "augmentation_kernel", "atomics_upto(6)", "sum_zgeq"):
            F = build(name, "Z", 6)
            outputs = [diff(F), kappa(F)]
            if name in ("atomics_upto(6)", "sum_zgeq"):
                with pytest.raises(WindowError):  # no level stabilizes
                    alpha(F)
            else:
                outputs.append(alpha(F).module)
            for G in outputs:
                for M in G.levels:
                    levels += 1
                    for p in (2, 3):
                        assert mod_p(M, p).dimension() == \
                            uct_dimension(M, p), (name, p)
        assert levels > 100


class TestSixTerm:
    def test_six_term_on_corpus(self):
        for name, coeff, N in [("zgeq(2)", "Z", 6), ("const", "Z", 5),
                               ("augmentation_kernel", "Z", 6),
                               ("P(2)", "F2", 6)]:
            assert verify_six_term(build(name, coeff, N)), name

    @pytest.mark.parametrize("coeff", ["Q", "F3"])
    def test_six_term_over_fields(self, coeff):
        # the atomic entries have non-injective units, so every map of
        # the sequence is exercised
        for name in ("zgeq(2)", "P(2)", "augmentation_kernel", "ex_upm_F",
                     "atomic(2)", "atomics_upto(3)"):
            assert verify_six_term(build(name, coeff, 5)), name

    def test_six_term_window_error(self):
        with pytest.raises(WindowError):
            verify_six_term(build("const", "Z", 1))


class TestExactnessTransfer:
    def test_augmentation_sequence(self):
        incl, proj = augmentation_sequence(Z, 6)
        assert incl.is_natural() and proj.is_natural()
        assert exactness_transfer(incl, proj, 1)

    def test_ex_upm_sequence(self):
        incl, proj = ex_upm_sequence(F2, 6)
        assert all(f.is_well_defined() for f in incl.maps + proj.maps)
        assert incl.is_natural() and proj.is_natural()
        assert exactness_transfer(incl, proj, 1)

    @pytest.mark.parametrize("coeff", [Z, Q, F2, Coeff.GF(3)],
                             ids=["Z", "Q", "F2", "F3"])
    def test_norm_and_augmentation_are_natural(self, coeff):
        for f in (norm_map(coeff, 6), augmentation_map(coeff, 6)):
            assert f.is_natural()

    @pytest.mark.parametrize("coeff", [Z, Q, Coeff.GF(3)],
                             ids=["Z", "Q", "F3"])
    def test_ex_upm_sequence_only_over_f2(self, coeff):
        # the projection sends (a,b) + (b,a) - c to 2·{a,b}
        with pytest.raises(FunctorError, match=coeff.code):
            ex_upm_sequence(coeff, 4)

    @pytest.mark.parametrize("coeff", [Q, Coeff.GF(3)], ids=["Q", "F3"])
    def test_over_fields(self, coeff):
        # ex_upm_sequence is an extension in characteristic 2 only
        incl, proj = augmentation_sequence(coeff, 5)
        for x in (1, 2, 3):
            assert exactness_transfer(incl, proj, x), x
        F, C = build("zgeq(2)", coeff, 5), build("const", coeff, 5)
        incl = NatMap(F, C, [ModuleMap(F.levels[n], C.levels[n], Mat.identity(
            coeff, 1) if n >= 2 else Mat.zero(coeff, 0, 1)) for n in range(6)])
        for x in (1, 2):
            assert exactness_transfer(incl, cokernel_nat(incl)[1], x), x

    def test_zgeq_in_constant(self):
        F = build("zgeq(2)", "Z", 6)
        C = build("const", "Z", 6)
        maps = [ModuleMap(F.levels[n], C.levels[n],
                          Mat.identity(Z, 1) if n >= 2 else Mat.zero(Z, 0, 1))
                for n in range(7)]
        incl = NatMap(F, C, maps)
        Q_, proj = cokernel_nat(incl)
        assert exactness_transfer(incl, proj, 1)


class TestSerialization:
    def test_round_trip(self, corpus):
        for key in [("P(2)", "Z"), ("augmentation_kernel", "Z"), ("ex_upm_F", "F2")]:
            F = corpus[key]
            G = TruncFIModule.from_json(plain(F.to_json()))
            assert F.structurally_equal(G), key

    def test_entries_are_strings(self):
        F = build("P(1)", "Z", 3)
        data = plain(F.to_json())
        assert data["incl"][1][0][0] == "1"


def _matrices(F):
    """Every matrix an FI- or FI#-module holds."""
    for lvl in F.levels:
        yield lvl.rels
    for f in F.incl + getattr(F, "proj", ()):
        yield f.mat
    for s in F.sym:
        yield from s


class TestCanonicalEntries:
    """Mat's contract, on which RowBasis relies: entries are int over Z,
    int in range(p) over F_p, and over Q an int or a Fraction whose
    denominator is not 1, for the corpus and for what the calculus derives
    from it."""

    @pytest.mark.parametrize("code", ["Z", "Q", "F2", "F3"])
    def test_corpus_and_derived(self, code):
        coeff = Coeff.parse(code)
        if coeff.kind == Coeff.RATIONALS:
            def canonical(x):
                return type(x) is int or (
                    type(x) is Fraction and x.denominator != 1)
        else:
            def canonical(x):
                return type(x) is int and (coeff.p is None or 0 <= x < coeff.p)
        for name in ("const", "atomic(2)", "zgeq(3)", "atomics_upto(3)",
                     "sum_zgeq", "P(1)", "P(2)", "augmentation_kernel",
                     "ex_upm_A", "ex_upm_F", "free_sharp(2)"):
            F = (build_sharp if name.startswith("free_sharp") else build)(
                name, coeff, 5)
            derived = [F, diff(F), kappa(F), shift(F, 1), stable_kernel(F)]
            with contextlib.suppress(WindowError):  # stably null: no alpha
                derived.append(alpha(F).module)
            mats = [m for G in derived for m in _matrices(G)]
            if coeff.is_field:
                G, witness = freeify(F)
                mats += list(_matrices(G)) + [f.mat for f in witness.maps]
            for m in mats:
                assert all(canonical(x) for row in m.rows for x in row), name


def _structure_pieces(code):
    """The JSON of derived functors whose structure maps are induced one
    matrix at a time: Schur powers, sums, tensor products, freeify with
    its witness, the stable kernel, kappa by two, and the cross-effects
    of an alpha."""
    coeff = Coeff.parse(code)
    if coeff.is_field:
        P1, P2 = build("P(1)", coeff, 4), build("P(2)", coeff, 4)
        D = diff(build("P(2)", coeff, 5))  # carries relations
        for F in (P1, D):
            for token in ("T2", "S2", "L2", "S3", "L3"):
                yield postcompose(F, token).to_json()
        yield tensor(P1, P2).to_json()
        G, witness = freeify(D)
        yield G.to_json()
        yield [mat_json(f.mat) for f in witness.maps]
    A = alpha(build("P(2)", coeff, 7)).module
    for k in range(A.N + 1):
        yield cross_effect(A, k).to_json()
    yield direct_sum(build("P(1)", coeff, 4),
                     build("zgeq(2)", coeff, 4)).to_json()
    for name in ("atomics_upto(4)", "ex_upm_F"):
        F = build(name, coeff, 6)
        yield stable_kernel(F).to_json()
        yield kappa(F, 2).to_json()


class TestStructureDigests:
    """SHA-256 of the JSON of each derived functor in _structure_pieces,
    in order, per ring: the structure maps every construction induces."""

    DIGESTS = {
        "Z": "f44c689da59d5439a5d529e461206d8e874acbe094fc748a0d8873ad2e55c406",
        "Q": "48f937c34cc7f23e3627a43c24635d97f5de0f76cc09a514f403cc98aac44063",
        "F2": "2ce789491d4a03f11695295d8c5e278876f5b911422f6241c4ef5f3a92ebe459",
    }

    @pytest.mark.parametrize("code", ["Z", "Q", "F2"])
    def test_digest(self, code):
        h = hashlib.sha256()
        for piece in _structure_pieces(code):
            h.update(json.dumps(plain(piece)).encode() + b"\n")
        assert h.hexdigest() == self.DIGESTS[code]
