"""Every corpus entry must pass its registered oracles."""
import pytest

from fcalc.corpus import build, build_sharp, list_entries, run_oracles
from oracles import as_text, plain


@pytest.mark.parametrize("name", list_entries())
def test_oracles(name):
    report = run_oracles(name)
    details = "\n".join(report.lines())
    assert report.ok, details


def test_all_fi_entries_verify():
    for name, coeff, N in [("const", "Z", 5), ("atomic(1)", "Z", 5),
                           ("zgeq(2)", "Q", 5), ("P(2)", "F2", 5),
                           ("augmentation_kernel", "Z", 5),
                           ("ex_upm_A", "F2", 5), ("ex_upm_F", "F2", 5),
                           ("sum_zgeq", "Z", 4), ("atomics_upto(3)", "Z", 5)]:
        assert build(name, coeff, N).verify() == [], name


def test_direct_sum_names():
    F = build("zgeq(1)+atomic(0)", "Z", 5)
    from fcalc.fimod import dim_profile
    assert dim_profile(F).dims == [1, 1, 1, 1, 1, 1]


def test_unknown_name_rejected():
    with pytest.raises(Exception):
        build("mystery(3)", "Z", 5)
    with pytest.raises(Exception):
        build_sharp("mystery", "Z", 5)


def test_one_registry():
    # build makes the FI# entries too; a '+' sum is an FI-module, and
    # build_sharp refuses anything that is not an FI#-module
    from fcalc.fimod import FunctorError
    from fcalc.fisharp import FISharpModule
    F = build("free_sharp(1)", "F2", 3)
    assert isinstance(F, FISharpModule)
    assert plain(F.to_json()) == plain(
        build_sharp("free_sharp(1)", "F2", 3).to_json())
    G = build("free_sharp(1)+P(1)", "F2", 3)
    assert not isinstance(G, FISharpModule)
    assert [m.gens for m in G.levels] == [1, 3, 5, 7]
    for name in ("P(1)", "free_sharp(1)+free_sharp(0)"):
        with pytest.raises(FunctorError, match="not an FI#-module"):
            build_sharp(name, "F2", 3)


def test_run_oracles_unknown():
    with pytest.raises(Exception):
        run_oracles("nonexistent")


def test_wrong_argument_count_rejected():
    from fcalc.fimod import FunctorError
    for name in ("P()", "P(1,2)", "const(7)", "atomics_upto()", "sum_zgeq(1)"):
        with pytest.raises(FunctorError, match="argument"):
            build(name, "Z", 3)
    with pytest.raises(FunctorError, match="argument"):
        build_sharp("free_sharp(1,2)", "F2", 2)


def test_argument_above_N_rejected():
    from fcalc.fimod import FunctorError
    for name in ("atomic(4)", "zgeq(4)", "P(4)", "free_sharp(4)",
                 "const+zgeq(9)"):
        with pytest.raises(FunctorError, match="is zero on \\[0, 3\\]"):
            build(name, "Z", 3)
    for name in ("atomic(3)", "zgeq(3)", "P(3)", "free_sharp(3)",
                 "atomics_upto(9)"):
        assert not build(name, "Z", 3).is_zero_functor()


def test_outputs_match_recorded_digest():
    # The matrices the basis-matrix builder and the calculus above it emit,
    # as text, hashed and compared with a recorded digest: the rows
    # themselves, not only the modules they present, are outputs.  The
    # scalars are hashed by str, which an integral Fraction and its int
    # share.
    import hashlib

    from fcalc.corpus import augmentation_sequence, ex_upm_sequence, norm_map
    from fcalc.exactlin import Coeff, coinvariants
    from fcalc.fimod import WindowError, kappa, stable_kernel
    from fcalc.fisharp import alpha

    def rows(natmaps):
        return [[f.mat.rows for f in u.maps] for u in natmaps]

    h = hashlib.sha256()
    for code in ("Z", "Q", "F2", "F3"):
        coeff = Coeff.parse(code)
        for N in (4, 5):
            h.update(repr(as_text((
                rows([norm_map(coeff, N)]),
                rows(ex_upm_sequence(coeff, N)) if code == "F2" else None,
                rows(augmentation_sequence(coeff, N)),
                plain(build_sharp("free_sharp(1)", coeff, N).to_json()),
                plain(build_sharp("free_sharp(2)", coeff, N - 1).to_json()),
            ))).encode())
            for name in ("P(1)", "P(2)", "ex_upm_A", "ex_upm_F",
                         "augmentation_kernel", "zgeq(2)"):
                F = build(name, coeff, N)
                h.update(repr(as_text(plain((
                    F.to_json(), kappa(F).to_json(),
                    stable_kernel(F).to_json(),
                    coinvariants(F.levels[N], F.sym[N])[0].to_json(),
                )))).encode())
                try:
                    res = alpha(F, 1)
                except WindowError as exc:  # alpha of a stably null functor
                    h.update(str(exc).encode())
                    continue
                h.update(repr(as_text((
                    plain(res.module.to_json()), rows([res.unit]),
                    res.certified,
                ))).encode())
    assert h.hexdigest() == ("cbb2b7316fe8ca3b80db29c6c4b0e198"
                             "9eeb3734ee8a880b210d968afc84adc5")
