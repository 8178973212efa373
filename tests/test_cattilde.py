"""Tests for the concrete nullification of theta and sigma."""
from itertools import combinations, permutations
from math import factorial

import pytest

from fcalc import cattilde
from fcalc.cattilde import (
    CatError, SIGMA, THETA, category, theta_tilde_count,
    tilde_compose, tilde_from_partial, tilde_hom, verify_axioms,
)
from oracles import compose_partial


def brute_force_partial_injections(a: int, b: int):
    out = set()
    for k in range(min(a, b) + 1):
        for dom in combinations(range(1, a + 1), k):
            for vals in permutations(range(1, b + 1), k):
                out.add((dom, vals))
    return out


class TestHomSets:
    def test_theta_counts_against_enumeration(self):
        for a in range(5):
            for b in range(5):
                classes = tilde_hom(THETA, a, b)
                brute = brute_force_partial_injections(a, b)
                assert {h.as_partial() for h in classes} == brute, (a, b)
                assert len(classes) == theta_tilde_count(a, b)

    def test_sigma_counts(self):
        for n in range(5):
            for m in range(5):
                want = factorial(n) // factorial(n - m) if n >= m else 0
                assert len(tilde_hom(SIGMA, n, m)) == want, (n, m)

    def test_zero_is_final(self):
        for a in range(5):
            assert len(tilde_hom(THETA, a, 0)) == 1
            assert len(tilde_hom(SIGMA, a, 0)) == 1

    def test_zero_is_initial(self):
        for b in range(4):
            assert len(tilde_hom(THETA, 0, b)) == 1

    def test_sigma_tilde_matches_theta_hom(self):
        # the opposite-category comparison: classes n -> m correspond to
        # injections m -> n
        for n in range(5):
            for m in range(n + 1):
                classes = tilde_hom(SIGMA, n, m)
                injections = set(permutations(range(1, n + 1), m))
                assert {h.normal for h in classes} == injections, (n, m)

    def test_stabilization_index_theta(self):
        # stage a to stage a+1 is already a bijection: classes built with
        # extras capped at a match the full set
        for a in range(4):
            for b in range(4):
                full = {h.normal for h in tilde_hom(THETA, a, b)}
                capped = {h.normal for h in tilde_hom(THETA, a, b, max_extra=a + 2)}
                assert full == capped

    @pytest.mark.parametrize("cat, a, b, max_extra", [
        (THETA, 5, 1, 4),  # the last stage holds only 5 of the 6 classes
        (THETA, 5, 0, 2),  # every stage is empty
        (SIGMA, 7, 0, 3),
    ])
    def test_empty_early_stages_do_not_stop(self, cat, a, b, max_extra):
        # three equal counts of 0 from empty stages certify nothing
        with pytest.raises(CatError):
            tilde_hom(cat, a, b, max_extra=max_extra)

    def test_no_stage_reaching_a_raises(self):
        with pytest.raises(CatError, match="reaches 5"):
            tilde_hom(THETA, 5, 0, max_extra=2)

    def test_sigma_below_target_is_empty(self):
        for a in range(4):
            for b in range(a + 1, 6):
                assert tilde_hom(SIGMA, a, b) == []
                assert tilde_hom(SIGMA, a, b, max_extra=2) == []

    def test_explicit_extras_answer_or_raise(self):
        # a short chain of stages either certifies the full class set or
        # raises; it never returns a part of it
        for cat in (THETA, SIGMA):
            for a in range(5):
                for b in range(4):
                    full = [h.normal for h in tilde_hom(cat, a, b)]
                    for max_extra in range(a + 4):
                        try:
                            got = tilde_hom(cat, a, b, max_extra=max_extra)
                        except CatError:
                            continue
                        assert [h.normal for h in got] == full, \
                            (cat, a, b, max_extra)

    def test_representative_is_least_element(self):
        for cat in (THETA, SIGMA):
            for a in range(4):
                for b in range(4):
                    classes = tilde_hom(cat, a, b)
                    keys = [(h.rep_t, h.rep_map) for h in classes]
                    assert keys == sorted(keys)
                    for h in classes:
                        # no smaller element of a stage has the same class
                        for t in range(h.rep_t + 1):
                            for f in cat.hom(a, b + t):
                                if (t, f) < (h.rep_t, h.rep_map):
                                    assert cattilde._normal_form(
                                        cat, a, b, f) != h.normal

    def test_eta_injective_on_homs(self):
        # distinct injections give distinct classes
        for a in range(4):
            for b in range(4):
                total_maps = set(permutations(range(1, b + 1), a))
                classes = {tilde_from_partial(a, b, tuple(range(1, a + 1)), f).normal
                           for f in total_maps}
                assert len(classes) == len(total_maps)


class TestComposition:
    def test_identity_laws(self):
        for a in range(4):
            ident = tilde_from_partial(a, a, tuple(range(1, a + 1)),
                                       tuple(range(1, a + 1)))
            for b in range(4):
                for f in tilde_hom(THETA, a, b):
                    ident_b = tilde_from_partial(b, b, tuple(range(1, b + 1)),
                                                 tuple(range(1, b + 1)))
                    assert tilde_compose(ident_b, f) == f
                    assert tilde_compose(f, ident) == f

    def test_totally_undefined_absorbs(self):
        bot = tilde_from_partial(2, 2, (), ())
        for f in tilde_hom(THETA, 2, 2):
            assert tilde_compose(bot, f).as_partial() == ((), ())
            assert tilde_compose(f, bot).as_partial() == ((), ())

    def test_table_matches_partial_injections(self):
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for f in tilde_hom(THETA, a, b):
                        for g in tilde_hom(THETA, b, c):
                            lhs = tilde_compose(g, f).as_partial()
                            rhs = compose_partial(a, b, c, f.as_partial(),
                                                  g.as_partial())
                            assert lhs == rhs

    def test_mismatched_endpoints(self):
        f = tilde_from_partial(2, 3, (1,), (2,))
        with pytest.raises(CatError):
            tilde_compose(f, f)


class TestAxioms:
    def test_theta(self):
        report = verify_axioms(THETA, 3)
        assert report.ok
        assert report.checks == 135500

    def test_sigma(self):
        report = verify_axioms(SIGMA, 3)
        assert report.ok
        assert report.checks == 1052

    @pytest.mark.parametrize("cat, a, b, c", [(THETA, 1, 2, 1),
                                              (SIGMA, 2, 2, 1)])
    def test_one_wrong_composite_fails(self, monkeypatch, cat, a, b, c):
        # send one composite g o f to a wrong class: the check must notice
        f, g = tilde_hom(cat, a, b)[-1], tilde_hom(cat, b, c)[-1]
        true_compose = cattilde.tilde_compose
        good = true_compose(g, f)
        wrong = next(h for h in tilde_hom(cat, a, c) if h != good)

        def sabotaged(gg, ff):
            return wrong if (gg, ff) == (g, f) else true_compose(gg, ff)

        monkeypatch.setattr(cattilde, "tilde_compose", sabotaged)
        report = cattilde.verify_axioms(cat, 2)
        assert not report.ok
        assert any(m.startswith("associativity fails")
                   for m in report.failures)

    @pytest.mark.parametrize("cat, bound", [(THETA, 2), (SIGMA, 3)])
    @pytest.mark.parametrize("side", ["inner", "outer"])
    def test_representative_dependent_composite_fails(self, monkeypatch, cat,
                                                      bound, side):
        # answer by the representative: g o x goes to a wrong class when
        # the inner factor x (or the outer one) is not its class's listed
        # representative; the lookup never composes such a factor, so only
        # the well-definedness check can see it
        objs = range(bound + 1)
        homs = {(a, b): tilde_hom(cat, a, b) for a in objs for b in objs}
        listed = {(a, b): {(h.rep_t, h.rep_map) for h in hs}
                  for (a, b), hs in homs.items()}
        true_compose = cattilde.tilde_compose

        def by_representative(g, f):
            good = true_compose(g, f)
            x = f if side == "inner" else g
            if (x.rep_t, x.rep_map) in listed[(x.a, x.b)]:
                return good
            return next((h for h in homs[(f.a, g.b)] if h != good), good)

        monkeypatch.setattr(cattilde, "tilde_compose", by_representative)
        report = cattilde.verify_axioms(cat, bound)
        assert not report.ok
        assert any(m.startswith("well-definedness fails")
                   for m in report.failures)
        assert not any(m.startswith("associativity fails")
                       for m in report.failures)

    def test_representative_beyond_the_stages_is_checked(self, monkeypatch):
        # a theta composite g o f can carry more extras than the a + 2
        # that tilde_hom enumerates; composing with that representative is
        # checked too
        homs = {(a, c): tilde_hom(THETA, a, c)
                for a in range(4) for c in range(4)}
        true_compose = cattilde.tilde_compose

        def wrong_beyond(g, f):
            good = true_compose(g, f)
            if f.rep_t <= f.a + 2:
                return good
            return next((h for h in homs[(f.a, g.b)] if h != good), good)

        monkeypatch.setattr(cattilde, "tilde_compose", wrong_beyond)
        report = cattilde.verify_axioms(THETA, 3)
        assert not report.ok
        assert all(m.startswith("well-definedness fails")
                   for m in report.failures)

    def test_unlisted_composite_is_a_failure(self, monkeypatch):
        # a composite outside the listed classes is reported, not raised
        f, g = tilde_hom(THETA, 1, 2)[-1], tilde_hom(THETA, 2, 1)[-1]
        true_compose = cattilde.tilde_compose

        def unlisted(gg, ff):
            h = true_compose(gg, ff)
            if (gg, ff) == (g, f):
                return cattilde.TildeHom(h.cat, h.a, h.b, h.rep_t, h.rep_map,
                                         "unlisted")
            return h

        monkeypatch.setattr(cattilde, "tilde_compose", unlisted)
        report = cattilde.verify_axioms(THETA, 2)
        assert not report.ok
        assert f"composite {g} o {f} is not a listed class" in report.failures
        assert report.checks == verify_axioms(THETA, 2).checks

    def test_each_composite_once(self, monkeypatch):
        # the right units, one composite per composable pair, and each
        # member of a class (a stage element other than its representative)
        # composed with every listed class after it and before it.  The
        # only stage of sigma's hom-set a -> b is hom(a, a), of a! elements,
        # so a class has a!/n(a, b) elements; composites stay in that stage.
        calls = []
        true_compose = cattilde.tilde_compose

        def counted(g, f):
            calls.append((g, f))
            return true_compose(g, f)

        monkeypatch.setattr(cattilde, "tilde_compose", counted)
        bound = 3
        report = cattilde.verify_axioms(SIGMA, bound)
        n = {(a, b): len(tilde_hom(SIGMA, a, b))
             for a in range(bound + 1) for b in range(bound + 1)}
        objs = range(bound + 1)
        units = sum(n.values())
        pairs = sum(n[(a, b)] * n[(b, c)]
                    for a in objs for b in objs for c in objs)
        members = sum((factorial(a) - n[(a, b)])
                      * sum(n[(b, c)] + n[(c, a)] for c in objs)
                      for a in objs for b in range(a + 1))
        assert report.ok
        assert len(calls) == units + pairs + members

    @pytest.mark.parametrize("cat, bound", [(THETA, 2), (SIGMA, 3)])
    def test_sum_that_keeps_the_extras_in_place_fails(self, monkeypatch, cat,
                                                      bound):
        # a sum that leaves the extras of f between the b and d blocks
        # depends on the representatives summed: the sum check compares two
        # representatives of each class, so it must notice
        def unordered(f, g):
            a, b = f.a + g.a, f.b + g.b
            h = cat.sum(f.rep_map, (f.a, f.b + f.rep_t),
                        g.rep_map, (g.a, g.b + g.rep_t))
            return cattilde.TildeHom(cat, a, b, f.rep_t + g.rep_t, h,
                                     cattilde._normal_form(cat, a, b, h))

        monkeypatch.setattr(cattilde, "_tilde_sum", unordered)
        report = cattilde.verify_axioms(cat, bound)
        assert not report.ok
        assert all(m.startswith("sum not functorial")
                   for m in report.failures)
        assert report.checks == verify_axioms(cat, bound).checks

    def test_category_lookup(self):
        assert category("theta") is THETA
        assert category("sigma") is SIGMA
        with pytest.raises(CatError):
            category("gamma")


class TestSerialization:
    def test_class_json(self):
        h = tilde_from_partial(3, 2, (1, 3), (2, 1))
        assert h.to_json() == {"domain": [1, 3], "values": [2, 1]}
