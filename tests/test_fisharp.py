"""Tests for FI#-modules: idempotents, cross-effects, Dold-Kan, alpha."""
import random
from itertools import combinations
from math import comb

import pytest

from fcalc.corpus import build, build_sharp
from fcalc.exactlin import Coeff, Mat, ModuleMap, PresentedModule
from fcalc.fimod import (
    NEG_INF, NatMap, WindowError, diff, dim_profile, shift, strong_degree,
    weak_degree,
)
from fcalc.fisharp import (
    FISharpModule, SymRep, SymRepList, alpha, cross_effect,
    cross_effect_inclusion, dold_kan_decompose, dold_kan_reconstruct,
    dold_kan_witness, epsilon_idem, eta_restrict, moebius_idem,
    sharp_natmap_ok,
)
from oracles import (
    colimit_over_injections, difference_rep, moebius_sum, moebius_words,
    plain, random_symrep, witness_words,
)

Z, Q, F2 = Coeff.Z(), Coeff.Q(), Coeff.GF(2)


@pytest.fixture(scope="module")
def sharps():
    return {
        "free0": build_sharp("free_sharp(0)", "F2", 4),
        "free1": build_sharp("free_sharp(1)", "F2", 4),
        "free2": build_sharp("free_sharp(2)", "F2", 4),
        "free1Q": build_sharp("free_sharp(1)", "Q", 4),
        "free1Z": build_sharp("free_sharp(1)", "Z", 4),
    }


class TestStructure:
    def test_all_verify(self, sharps):
        for key, F in sharps.items():
            assert F.verify() == [], key

    def test_proj_incl_identity(self, sharps):
        F = sharps["free2"]
        for n in range(F.N):
            assert F.incl[n].then(F.proj[n]).equals(
                ModuleMap.identity(F.levels[n]))

    def test_json_round_trip(self, sharps):
        F = sharps["free2"]
        G = FISharpModule.from_json(plain(F.to_json()))
        assert F.structurally_equal(G)
        assert all(a.mat == b.mat for a, b in zip(F.proj, G.proj))

    def test_eta_restrict_drops_proj(self, sharps):
        E = eta_restrict(sharps["free1"])
        assert not hasattr(E, "proj")
        assert E.verify() == []

    def test_projection_that_breaks_the_relations_detected(self):
        # Z -> Z/2 -> Z: the projection sends the relation 2 to a free 2
        levels = [PresentedModule.free(Z, 1),
                  PresentedModule.from_rel_rows(Z, 1, [[2]])]
        one = Mat.identity(Z, 1)
        F = FISharpModule(Z, levels, [ModuleMap(levels[0], levels[1], one)],
                          [[], []], [ModuleMap(levels[1], levels[0], one)])
        assert F.verify() == [
            "projection at level 1 does not respect relations"]

    @staticmethod
    def with_proj(F, n, rows):
        proj = list(F.proj)
        proj[n] = ModuleMap(F.levels[n + 1], F.levels[n],
                            Mat.from_rows(F.coeff, rows))
        return FISharpModule(F.coeff, F.levels, F.incl, F.sym, proj)

    def test_projection_not_left_inverse_detected(self, sharps):
        # free_sharp(1) at level n has the basis (empty, point 1, .., n)
        F = self.with_proj(sharps["free1Z"], 0, [[0], [0]])
        assert F.verify() == ["level 0: proj o incl is not the identity"]

    def test_projection_not_equivariant_detected(self, sharps):
        # the projection from level 3 sends point 3 to point 2 instead of
        # to the empty map; point 3 is fixed by s_1, point 2 is not
        F = self.with_proj(sharps["free1Z"], 2,
                           [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])
        assert F.verify() == [
            "level 3: incl o proj does not commute with s_1",
            "projection at level 3 not equivariant for s_1"]

    def test_sharp_naturality_needs_the_projection_square(self, sharps):
        # point i -> point i + empty, empty -> empty: natural for the
        # inclusions and transpositions, but the projection sends the last
        # point to the empty map, where the two paths give 2 * empty and
        # empty
        F = sharps["free1Z"]
        maps = [ModuleMap(m, m, Mat.from_rows(
            Z, [[1] + [0] * n] + [[1] + [int(i == j) for j in range(n)]
                                  for i in range(n)]))
            for n, m in enumerate(F.levels)]
        nm = NatMap(F, F, maps)
        assert nm.is_natural()
        assert not sharp_natmap_ok(F, F, nm)


class TestEpsilon:
    def test_full_subset_is_identity(self, sharps):
        for key, F in sharps.items():
            for n in range(F.N + 1):
                e = epsilon_idem(F, n, range(1, n + 1))
                assert e.equals(ModuleMap.identity(F.levels[n])), (key, n)

    def test_empty_subset_on_free1(self, sharps):
        # at level 1 the empty idempotent projects onto the nowhere-defined
        # basis vector (index 0 in the partial-injection basis order)
        F = sharps["free1"]
        e = epsilon_idem(F, 1, ())
        assert e.mat == Mat.from_rows(F.coeff, [[1, 0], [1, 0]])

    def test_idempotent(self, sharps):
        rng = random.Random(11)
        for key in ("free1", "free2", "free1Z"):
            F = sharps[key]
            for n in range(F.N + 1):
                for _ in range(3):
                    size = rng.randint(0, n)
                    I = tuple(rng.sample(range(1, n + 1), size))
                    e = epsilon_idem(F, n, I)
                    assert e.then(e).equals(e), (key, n, I)

    def test_intersection_law(self, sharps):
        for key in ("free1", "free2"):
            F = sharps[key]
            for n in range(min(F.N, 4) + 1):
                subsets = [c for k in range(n + 1)
                           for c in combinations(range(1, n + 1), k)]
                eps = {I: epsilon_idem(F, n, I) for I in subsets}
                for I in subsets:
                    for J in subsets:
                        meet = tuple(sorted(set(I) & set(J)))
                        assert eps[I].then(eps[J]).equals(eps[meet]), (key, n, I, J)

    def test_commuting_family(self, sharps):
        F = sharps["free2"]
        n = 3
        subsets = [c for k in range(n + 1)
                   for c in combinations(range(1, n + 1), k)]
        eps = {I: epsilon_idem(F, n, I) for I in subsets}
        for I in subsets:
            for J in subsets:
                assert eps[I].then(eps[J]).equals(eps[J].then(eps[I]))

    def test_bad_subset_rejected(self, sharps):
        with pytest.raises(Exception):
            epsilon_idem(sharps["free1"], 2, (3,))


class TestMoebius:
    def test_level_zero(self, sharps):
        F = sharps["free1"]
        e = moebius_idem(F, 0, ())
        assert e.equals(ModuleMap.identity(F.levels[0]))

    def test_free1_level1_split(self, sharps):
        F = sharps["free1"]
        e0 = moebius_idem(F, 1, ())
        e1 = moebius_idem(F, 1, (1,))
        ident = ModuleMap.identity(F.levels[1])
        assert (e0 + e1).equals(ident)
        from fcalc.exactlin import image_in
        r0, _ = image_in(F.levels[1], e0.mat)
        r1, _ = image_in(F.levels[1], e1.mat)
        assert r0.dimension() == 1 and r1.dimension() == 1

    def test_complete_orthogonal_family(self, sharps):
        for key in ("free1", "free2", "free1Q", "free1Z"):
            F = sharps[key]
            for n in range(min(F.N, 3) + 1):
                subsets = [c for k in range(n + 1)
                           for c in combinations(range(1, n + 1), k)]
                es = {I: moebius_idem(F, n, I) for I in subsets}
                total = Mat.zero(F.coeff, F.levels[n].gens, F.levels[n].gens)
                for I in subsets:
                    total = total + es[I].mat
                    assert es[I].then(es[I]).equals(es[I]), (key, n, I)
                assert ModuleMap(F.levels[n], F.levels[n], total).equals(
                    ModuleMap.identity(F.levels[n])), (key, n)
                for I in subsets:
                    for J in subsets:
                        if I != J:
                            assert es[I].then(es[J]).is_zero_map(), (key, n, I, J)


    def test_product_is_the_moebius_sum_on_free_levels(self):
        # on a level without relations a map is its matrix, so the product
        # form and the alternating sum agree entry for entry
        modules = [build_sharp(f"free_sharp({d})", code, 4)
                   for d in range(3) for code in ("F2", "Q", "Z")]
        rng = random.Random(8)
        for trial in range(6):
            coeff = Q if trial % 2 else F2
            reps = [random_symrep(rng, coeff, k)
                    for k in range(rng.randint(1, 4) + 1)]
            modules.append(dold_kan_reconstruct(SymRepList(coeff, reps)))
        for F in modules:
            for n in range(F.N + 1):
                for k in range(n + 1):
                    for I in combinations(range(1, n + 1), k):
                        assert moebius_idem(F, n, I).mat == \
                            moebius_sum(F, n, I), (F, n, I)

    @pytest.mark.parametrize("code", ["Z", "Q", "F2", "F3"])
    def test_product_is_the_moebius_sum_on_alpha(self, code):
        # alpha(P(2)) has 126-252 relations per level; there the two
        # matrices may differ by relation rows, and they are one map
        F = alpha(build("P(2)", code, 7)).module
        for n in range(F.N + 1):
            lvl = F.levels[n]
            for k in range(n + 1):
                for I in combinations(range(1, n + 1), k):
                    assert moebius_idem(F, n, I).equals(
                        ModuleMap(lvl, lvl, moebius_sum(F, n, I))), (n, I)

    @pytest.mark.parametrize("code", ["Z", "Q", "F2", "F3"])
    def test_full_set_keeps_the_product_of_the_factors(self, code):
        # on levels with relations a matrix is more than its map: the
        # factors conjugated down {1..n} must give the very entries of
        # the factors built from words and multiplied from the left
        coeff = Coeff.parse(code)
        modules = [alpha(build(entry, code, 7)).module
                   for entry in ("P(2)", "ex_upm_F")]
        rng = random.Random(31)
        for _ in range(3):
            reps = [random_symrep(rng, coeff, k)
                    for k in range(rng.randint(1, 4) + 1)]
            modules.append(dold_kan_reconstruct(SymRepList(coeff, reps)))
        for F in modules:
            for n in range(F.N + 1):
                assert moebius_idem(F, n, range(1, n + 1)).mat == \
                    moebius_words(F, n), (F.levels[n].gens, n)


class TestCrossEffect:
    def test_idempotent_computed_once_per_k(self, monkeypatch):
        # decompose and witness share each cross-effect inclusion
        import fcalc.fisharp as fisharp
        calls = []
        inner = fisharp.moebius_idem

        def spy(F, n, subset):
            calls.append((n, tuple(subset)))
            return inner(F, n, subset)

        monkeypatch.setattr(fisharp, "moebius_idem", spy)
        F = build_sharp("free_sharp(2)", "Q", 4)
        dold_kan_witness(F, dold_kan_decompose(F))
        assert sorted(calls) == [(k, tuple(range(1, k + 1)))
                                 for k in range(F.N + 1)]

    def test_cr0_is_level0(self, sharps):
        for key, F in sharps.items():
            cr = cross_effect(F, 0)
            assert cr.module.invariant_factors() == \
                F.levels[0].invariant_factors(), key

    def test_free1_cross_effects(self, sharps):
        F = sharps["free1"]
        dims = [cross_effect(F, k).module.dimension() for k in range(F.N + 1)]
        assert dims == [1, 1, 0, 0, 0]

    def test_free2_cross_effects(self, sharps):
        F = sharps["free2"]
        dims = [cross_effect(F, k).module.dimension() for k in range(F.N + 1)]
        assert dims == [1, 2, 2, 0, 0]

    def test_constant_cross_effects_vanish(self, sharps):
        F = sharps["free0"]
        for k in range(1, F.N + 1):
            assert cross_effect(F, k).module.is_zero()

    def test_matches_cokernel_definition(self, sharps):
        for key in ("free1", "free2", "free0"):
            F = sharps[key]
            for k in range(F.N + 1):
                img = cross_effect(F, k).module.invariant_factors()
                cok = difference_rep(F, k, 0).module.invariant_factors()
                assert img == cok, (key, k)

    def test_binomial_identity(self, sharps):
        for key in ("free0", "free1", "free2", "free1Q"):
            F = sharps[key]
            cr = [cross_effect(F, k).module.dimension() for k in range(F.N + 1)]
            for n in range(F.N + 1):
                assert F.levels[n].dimension() == sum(
                    comb(n, k) * cr[k] for k in range(n + 1)), (key, n)

    def test_recursion_via_difference(self, sharps):
        # cr_{k+1}(F) has the profile of the k-th cross-effect (cokernel
        # form) of the difference of the underlying FI-module
        for key in ("free1", "free2"):
            F = sharps[key]
            D = diff(eta_restrict(F))
            for k in range(F.N - 1):
                left = cross_effect(F, k + 1).module.invariant_factors()
                right = difference_rep(D, k, 0).module.invariant_factors()
                assert left == right, (key, k)

    def test_degree_iff_vanishing(self, sharps):
        # strong degree of the restriction <= d iff cr_{d+1} vanishes
        for key in ("free0", "free1", "free2"):
            F = sharps[key]
            s = strong_degree(eta_restrict(F))
            assert s.certified
            deg = -1 if s.value == NEG_INF else s.value
            for k in range(F.N + 1):
                vanishes = cross_effect(F, k).module.is_zero()
                assert vanishes == (k > deg), (key, k)


def random_symrep(rng, coeff, k, max_blocks=2) -> SymRep:
    """Random direct sum of trivial and natural permutation representations."""
    blocks = [rng.choice(("triv", "nat"))
              for _ in range(rng.randint(0, max_blocks))]
    nat_dim = max(k, 1)
    dim = sum(1 if b == "triv" else nat_dim for b in blocks)
    module = PresentedModule.free(coeff, dim)
    sym = []
    for i in range(1, k):  # s_i swaps the letters i, i+1
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


class TestDoldKan:
    def test_reconstruct_trivial_rep(self):
        triv = SymRep(0, PresentedModule.free(Q, 1), [])
        R = dold_kan_reconstruct(SymRepList(Q, [triv]), 3)
        assert [m.dimension() for m in R.levels] == [1, 1, 1, 1]
        assert R.verify() == []

    def test_reconstruct_rank_pattern(self):
        zero = SymRep(0, PresentedModule.zero(Q), [])
        triv1 = SymRep(1, PresentedModule.free(Q, 1), [])
        R = dold_kan_reconstruct(SymRepList(Q, [zero, triv1]), 4)
        assert [m.dimension() for m in R.levels] == [0, 1, 2, 3, 4]
        assert R.verify() == []
        s = strong_degree(eta_restrict(R))
        assert s.value == 1

    def test_degree_of_reconstructed_atomic_rep(self):
        for k in (1, 2, 3):
            reps = [SymRep(j, PresentedModule.zero(Q), [Mat.zero(Q, 0, 0)] * max(j - 1, 0))
                    for j in range(k)]
            reps.append(SymRep(k, PresentedModule.free(Q, 1),
                               [Mat.identity(Q, 1)] * max(k - 1, 0)))
            R = dold_kan_reconstruct(SymRepList(Q, reps), 5)
            assert [m.dimension() for m in R.levels] == \
                [comb(n, k) for n in range(6)]
            assert strong_degree(eta_restrict(R)).value == k

    def test_decompose_reconstruct_on_corpus(self, sharps):
        for key in ("free1", "free2", "free0"):
            F = sharps[key]
            reps = dold_kan_decompose(F)
            back = dold_kan_decompose(dold_kan_reconstruct(reps, F.N))
            assert reps.equivalent(back), key

    def test_witness_is_sharp_natural_iso(self, sharps):
        for key in ("free1", "free2"):
            F = sharps[key]
            R = dold_kan_reconstruct(dold_kan_decompose(F), F.N)
            w = dold_kan_witness(F)
            assert w.is_natural(), key
            assert w.is_levelwise_iso(), key
            assert sharp_natmap_ok(R, F, w), key

    def test_witness_maps_are_the_word_products(self, sharps):
        rng = random.Random(32)
        modules = [sharps["free2"], alpha(build("ex_upm_F", "F3", 7)).module]
        for coeff in (Z, Q, F2):
            reps = [random_symrep(rng, coeff, k) for k in range(4)]
            modules.append(dold_kan_reconstruct(SymRepList(coeff, reps)))
        for F in modules:
            incl_cr = [cross_effect_inclusion(F, k) for k in range(F.N + 1)]
            assert [f.mat for f in dold_kan_witness(F).maps] == \
                witness_words(F, incl_cr)

    def test_random_round_trips(self):
        rng = random.Random(20250808)
        for trial in range(12):
            coeff = Q if trial % 2 else F2
            N = rng.randint(1, 4)
            reps = [random_symrep(rng, coeff, k) for k in range(N + 1)]
            rl = SymRepList(coeff, reps)
            R = dold_kan_reconstruct(rl)
            assert R.verify() == [], trial
            back = dold_kan_decompose(R)
            assert rl.equivalent(back), trial
            w = dold_kan_witness(R)
            assert w.is_natural() and w.is_levelwise_iso(), trial

    def test_symrep_list_json(self):
        rng = random.Random(7)
        reps = [random_symrep(rng, F2, k) for k in range(3)]
        rl = SymRepList(F2, reps)
        back = SymRepList.from_json(plain(rl.to_json()))
        assert rl.equivalent(back)


class TestCharacters:
    def test_natural_rep_characters(self):
        # the permutation character counts fixed points
        k = 3
        module = PresentedModule.free(Q, k)
        sym = []
        for i in range(1, k):
            rows = [[Q.zero()] * k for _ in range(k)]
            for j in range(k):
                rows[j][j] = Q.one()
            rows[i - 1][i - 1] = Q.zero()
            rows[i][i] = Q.zero()
            rows[i - 1][i] = Q.one()
            rows[i][i - 1] = Q.one()
            sym.append(Mat(Q, k, k, tuple(tuple(r) for r in rows)))
        rep = SymRep(k, module, sym)
        chars = rep.character()
        assert chars[(1, 1, 1)] == 3
        assert chars[(2, 1)] == 1
        assert chars[(3,)] == 0

    def test_distinguishes_trivial_from_natural(self):
        triv2 = SymRep(2, PresentedModule.free(Q, 2),
                       [Mat.identity(Q, 2)])
        swap = SymRep(2, PresentedModule.free(Q, 2),
                      [Mat.from_rows(Q, [[0, 1], [1, 0]])])
        assert not triv2.equivalent(swap)
        assert triv2.module.invariant_factors() == swap.module.invariant_factors()

    def test_inequivalent_by_degree(self):
        # the trivial module Z in degrees 1 and 2, over Z, so no character
        one = PresentedModule.free(Z, 1)
        assert not SymRep(1, one, []).equivalent(
            SymRep(2, one, [Mat.identity(Z, 1)]))

    def test_inequivalent_by_profile(self):
        # trivial Z against trivial Z/2 in degree 2
        torsion = PresentedModule.from_rel_rows(Z, 1, [[2]])
        trivial = SymRep(2, PresentedModule.free(Z, 1), [Mat.identity(Z, 1)])
        assert trivial.equivalent(trivial)
        assert not trivial.equivalent(
            SymRep(2, torsion, [Mat.identity(Z, 1)]))

    def test_characters_reduced_mod_p(self):
        # the regular representation of S_2 over F2 in the bases {e, s}
        # and {e, e + s}: isomorphic, so the traces agree mod 2
        regular = SymRep(2, PresentedModule.free(F2, 2),
                         [Mat.from_rows(F2, [[0, 1], [1, 0]])])
        rebased = SymRep(2, PresentedModule.free(F2, 2),
                         [Mat.from_rows(F2, [[1, 1], [0, 1]])])
        assert regular.character() == rebased.character() == \
            {(2,): 0, (1, 1): 0}
        assert regular.equivalent(rebased)


class TestAlpha:
    @pytest.mark.parametrize("coeff", ["Z", "F2"])
    def test_chained_stages_are_the_coinvariants(self, coeff):
        # stage (n, m) is F(n + m) modulo s_1 .. s_{m-1}: the chain over
        # one level gives the same relations, and the spans it grows by
        # forks equal the spans of the relations built from nothing
        from fcalc.exactlin import RowBasis, coinvariants
        from fcalc.fisharp import _coinvariant_stages

        for name in ("const", "atomic(1)", "zgeq(2)", "P(1)", "P(2)", "P(3)",
                     "augmentation_kernel", "ex_upm_A", "ex_upm_F",
                     "sum_zgeq", "free_sharp(2)"):
            for N in (3, 6):
                F = build(name, coeff, N)
                stages = _coinvariant_stages(F)
                assert len(stages) == (N + 1) * (N + 2) // 2
                for (n, m), stage in stages.items():
                    want = coinvariants(F.levels[n + m],
                                        F.sym[n + m][:max(m - 1, 0)])[0]
                    assert stage.same_presentation(want), (name, N, n, m)
                # ask for the spans top stage first, as alpha does
                for (n, m) in sorted(stages, key=lambda k: -k[1]):
                    span = RowBasis(F.coeff, stages[(n, m)].gens)
                    span.add_mat(stages[(n, m)].rels)
                    got = stages[(n, m)].rel_span()
                    assert (got.pivots, got.basis_mat()) == \
                        (span.pivots, span.basis_mat()), (name, N, n, m)

    def test_alpha_constant(self):
        F = build("const", "Z", 6)
        res = alpha(F, 2)
        assert [m.invariant_factors() for m in res.module.levels] == \
            [[1]] * (res.module.N + 1)
        assert res.module.verify() == []

    def test_alpha_P1_dims(self):
        res = alpha(build("P(1)", "F2", 7), 2)
        assert [m.dimension() for m in res.module.levels] == \
            [n + 1 for n in range(res.module.N + 1)]
        assert res.module.verify() == []

    def test_alpha_pair_orbits(self):
        res = alpha(build("ex_upm_A", "F2", 7), 2)
        dims = [m.dimension() for m in res.module.levels]
        assert dims == [comb(n, 2) + n + 1 for n in range(res.module.N + 1)]

    def test_alpha_unit_natural(self):
        for name in ("const", "P(1)", "zgeq(2)"):
            res = alpha(build(name, "Z", 6), 2)
            assert res.unit.is_natural(), name

    def test_alpha_unit_injective_for_free(self):
        res = alpha(build("P(1)", "Z", 6), 2)
        from fcalc.exactlin import kernel
        for f in res.unit.maps:
            k, _ = kernel(f)
            assert k.is_zero()

    def test_alpha_unit_kernel_on_pushout(self):
        F = build("ex_upm_F", "F2", 7)
        res = alpha(F, 2)
        from fcalc.exactlin import kernel
        kernels = [kernel(f)[0].dimension() for f in res.unit.maps]
        assert all(d >= 1 for d in kernels)
        # and the constant class is exactly what dies at each level
        for n, f in enumerate(res.unit.maps):
            g = F.levels[n].gens
            row = [F.coeff.zero()] * g
            row[g - 1] = F.coeff.one()
            emb = ModuleMap(PresentedModule.free(F.coeff, 1), F.levels[n],
                            Mat(F.coeff, 1, g, (tuple(row),)))
            assert emb.then(f).is_zero_map()

    def test_alpha_against_bruteforce_colimit(self):
        # the chain-of-coinvariants strategy against the full presentation
        # with every injection coequalized, on small windows
        for name, coeff in (("const", "Z"), ("P(1)", "Q"), ("zgeq(2)", "Z"),
                            ("ex_upm_A", "F2")):
            F = build(name, coeff, 5)
            res = alpha(F, 1)
            for n in range(min(res.module.N, 2) + 1):
                brute = colimit_over_injections(shift(F, n))
                assert brute.invariant_factors() == \
                    res.module.levels[n].invariant_factors(), (name, n)

    def test_alpha_stage_monotonicity_flagged(self):
        res = alpha(build("P(1)", "F2", 6), 2)
        assert res.certified[:res.module.N + 1] == [True] * (res.module.N + 1)
        assert res.certified[-1] is False  # top level can never certify

    def test_alpha_stabilizes_within_generation_bound(self):
        # observed bound: stabilization within generation degree + 1 steps
        from fcalc.fimod import generation_degree
        for name, coeff in (("const", "Z"), ("P(1)", "F2"), ("P(2)", "F2"),
                            ("ex_upm_A", "F2"), ("zgeq(2)", "Z")):
            F = build(name, coeff, 7)
            bound = generation_degree(F).value + 1
            res = alpha(F, 2)
            for n in range(res.module.N + 1):
                assert res.first_stable[n] is not None, (name, n)
                assert res.first_stable[n] <= bound, (name, n, res.first_stable)

    @pytest.mark.parametrize("name, coeff", [("P(2)", "Z"), ("zgeq(2)", "Z"),
                                             ("ex_upm_A", "F2")])
    def test_reads_only_the_transitions_it_needs(self, monkeypatch, name,
                                                  coeff):
        # level n tests its transitions from the top stage down to the
        # first one that is not an isomorphism, and none below it (these
        # entries have levels with first_stable >= 2)
        import fcalc.fisharp as fisharp
        calls = []
        true_iso = fisharp.is_isomorphism

        def counted(f):
            calls.append(f)
            return true_iso(f)

        monkeypatch.setattr(fisharp, "is_isomorphism", counted)
        N = 6
        res = alpha(build(name, coeff, N), 2)
        assert len(calls) == sum(N - n - m + (m > 0)
                                 for n, m in enumerate(res.first_stable))

    def test_unit_alpha_shortcut(self):
        u = alpha(build("const", "Z", 5), 2).unit
        for f in u.maps:
            assert f.mat == Mat.identity(Z, 1)


class TestClassification:
    """The paper's classification as a differential oracle: the top piece
    of a polynomial functor, computed by the difference calculus (the weak
    degree, the finite differences of the dimensions) and by the
    idempotent calculus (the cross-effects of alpha(F)), must agree."""

    # the entries whose alpha certifies a window at N = 8, margin 2
    ENTRIES = ("const", "atomic(2)", "zgeq(3)", "P(1)", "P(2)", "P(3)",
               "augmentation_kernel", "ex_upm_A", "ex_upm_F")
    # the corpus entries left out: alpha does not stabilize on them there
    SKIPPED = ("atomics_upto(6)", "sum_zgeq")

    @staticmethod
    def mismatches(entry, ring):
        F = build(entry, ring, 9 if entry == "P(3)" else 8)
        A = alpha(F, 2).module
        # the largest k with a nonzero cross-effect, searched from the top
        # down: the lower ones, on the levels with the most relations, are
        # most of the cost and decide nothing here
        top, dim = NEG_INF, 0
        for k in range(A.N, -1, -1):
            dim = cross_effect(A, k).module.dimension()
            if dim:
                top = k
                break
        out = []
        weak = weak_degree(F, 2)
        if weak.value != top:
            out.append(f"weak degree {weak}, top cross-effect {top} of {A.N}")
        if top != NEG_INF and dim != dim_profile(F).diffs[top][-1]:
            out.append(f"top cross-effect dim {dim} is not the top "
                       f"difference {dim_profile(F).diffs[top]}")
        if top != NEG_INF:
            # the same Sigma_top-module by the second route, at the top
            # level of the window of delta^top F
            n = F.N - top
            want = difference_rep(F, top, n).character()
            got = cross_effect(A, top).character()
            if got != want:
                out.append(f"top cross-effect character {got} is not that "
                           f"of (delta^{top} F)({n}), {want}")
        return out

    @pytest.mark.parametrize("ring", ["Q", "F2", "F3"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_top_cross_effect_is_the_top_difference(self, entry, ring):
        assert self.mismatches(entry, ring) == []

    @pytest.mark.parametrize("entry", SKIPPED)
    def test_skipped_entries_do_not_stabilize(self, entry):
        with pytest.raises(WindowError):
            alpha(build(entry, "Q", 8), 2)

    def test_fails_under_a_wrong_idempotent(self, monkeypatch):
        # epsilon_{1..k} is the identity of level k, so every level would
        # count as a cross-effect
        import fcalc.fisharp as fisharp
        monkeypatch.setattr(fisharp, "moebius_idem", fisharp.epsilon_idem)
        bad = self.mismatches("P(2)", "Q")
        assert any(msg.startswith("top cross-effect character") for msg in bad)

    def test_fails_under_a_sign_twist(self, monkeypatch):
        # the top cross-effect of ex_upm_A over Q is the trivial character
        # of the symmetric group on 2 letters: twisted by the sign it keeps
        # its dimension and turns into that of ex_upm_F
        untwisted = cross_effect

        def twisted(F, k):
            rep = untwisted(F, k)
            zero = Mat.zero(F.coeff, rep.module.gens, rep.module.gens)
            return SymRep(k, rep.module, [zero - s for s in rep.sym])
        monkeypatch.setitem(globals(), "cross_effect", twisted)
        bad = self.mismatches("ex_upm_A", "Q")
        assert bad and all(msg.startswith("top cross-effect character")
                           for msg in bad)
