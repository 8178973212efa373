"""Command-line dispatch: exit codes, output shapes, round trips."""
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fcalc.cli
from fcalc.cattilde import category, tilde_hom
from fcalc.cli import emit, main
from fcalc.corpus import build
from fcalc.exactlin import Coeff, Mat
from fcalc.fimod import TruncFIModule
from oracles import plain

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_to_exit(capsys, *argv):
    """``run``, where an argparse error's SystemExit gives the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, margin=None):
    """Exit code, stdout and stderr of ``python -m fcalc ARGV`` in a new
    process, with FCALC_MARGIN set to ``margin`` or unset and usage lines
    wrapped at 80 columns."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    env.pop("FCALC_MARGIN", None)
    if margin is not None:
        env["FCALC_MARGIN"] = margin
    proc = subprocess.run([sys.executable, "-m", "fcalc", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestDegree:
    def test_strong_degree_output(self, capsys):
        code, out, _ = run(capsys, "degree", "--strong", "corpus:zgeq(4)", "--N", "10")
        assert code == 0
        assert out.strip() == "strong degree = 4, window [0,5]"

    def test_weak_degree_output(self, capsys):
        code, out, _ = run(capsys, "degree", "--weak", "--margin", "2",
                           "corpus:augmentation_kernel", "--N", "10")
        assert code == 0
        assert "weak degree = 1" in out

    def test_default_is_strong(self, capsys):
        code, out, _ = run(capsys, "degree", "corpus:const", "--N", "5")
        assert code == 0
        assert out.startswith("strong degree = 0")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "degree", "--strong", "--json",
                           "corpus:zgeq(2)", "--N", "8")
        assert code == 0
        data = json.loads(out)
        assert data == {"kind": "strong", "value": 2, "window": [0, 5],
                        "margin": None}

    def test_generation_degree(self, capsys):
        code, out, _ = run(capsys, "degree", "--generation", "corpus:P(2)",
                           "--N", "5")
        assert code == 0
        assert out == "generation degree = 2, window [0,5]\n"

    def test_fi_sharp_input(self, capsys, tmp_path):
        # an FI#-module file is read as its underlying FI-module
        path = tmp_path / "free1.json"
        code, _, _ = run(capsys, "corpus", "emit", "free_sharp(1)", "--N", "4",
                         "--out", str(path))
        assert code == 0 and "proj" in json.loads(path.read_text())
        code, out, _ = run(capsys, "degree", str(path))
        assert code == 0
        assert out == "strong degree = 1, window [0,2]\n"

    def test_margin_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FCALC_MARGIN", "1")
        code, out, _ = run(capsys, "degree", "--weak", "corpus:zgeq(3)",
                           "--N", "8")
        assert code == 0
        assert "margin 1" not in out  # margin is in the report, not printed
        assert "weak degree = 0" in out

    @pytest.mark.parametrize("kind, want", [
        (["--strong"], "strong degree = 1, window [0,2]\n"),
        (["--generation"], "generation degree = 1, window [0,4]\n"),
        ([], "strong degree = 1, window [0,2]\n")],
        ids=["strong", "generation", "default"])
    def test_margin_env_read_by_weak_only(self, capsys, monkeypatch, kind,
                                          want):
        # a malformed default stops only the kind that uses a margin
        monkeypatch.setenv("FCALC_MARGIN", "x")
        source = ("corpus:P(1)", "--N", "4")
        assert run(capsys, "degree", *kind, *source) == (0, want, "")
        code, out, err = run(capsys, "degree", "--weak", *source)
        assert (code, out) == (2, "")
        assert err == ("input error: FCALC_MARGIN must be an integer, "
                       "got 'x'\n")
        code, out, _ = run(capsys, "degree", "--weak", "--margin", "1",
                           *source)
        assert (code, out) == (0, "weak degree = 1, window [0,1]\n")

    @pytest.mark.parametrize("kind", [["--strong"], ["--generation"], []])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_margin_only_with_weak(self, capsys, kind, json_flag):
        # only the weak degree has a margin; the others refuse the flag
        # instead of ignoring it
        code, out, err = run(capsys, "degree", *kind, *json_flag,
                             "--margin", "3", "corpus:P(1)", "--N", "5")
        assert (code, out) == (2, "")
        assert err == "input error: --margin applies to degree --weak only\n"


class TestVerify:
    def test_good_module(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "corpus:P(2)", "--N", "5")
        assert code == 0
        assert "ok" in out

    def test_violating_module_named(self, capsys, tmp_path):
        from fcalc.corpus import build
        from fcalc.exactlin import Mat, Coeff
        F = build("P(1)", "Z", 3)
        data = plain(F.to_json())
        # corrupt a transposition at level 3: no longer an involution
        data["sym"][3][0] = [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 2
        assert "level 3" in out and "s_1" in out

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"coeff": "Z", "N": 1,')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/f.json")
        assert code == 2

    def test_directory_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "degree", str(tmp_path), "--N", "3")
        assert code == 2
        assert out == ""
        assert err.startswith(f"input error: cannot read {tmp_path}")

    @pytest.mark.parametrize("verb, flags, given", [
        (("degree", "--strong"), ("--N", "3", "--coeff", "Q"), "--N, --coeff"),
        (("dims",), ("--coeff", "F2"), "--coeff"),
        (("verify",), ("--N", "5"), "--N"),
        (("diff", "--out", "@out"), ("--N", "4"), "--N"),
    ])
    def test_file_input_takes_no_size_or_ring(self, capsys, tmp_path, verb,
                                              flags, given):
        # a file carries its own N and ring: the flags are refused rather
        # than accepted and ignored
        path = tmp_path / "p1.json"
        out_path = tmp_path / "out.json"
        code, _, _ = run(capsys, "corpus", "emit", "P(1)", "--N", "5",
                         "--coeff", "Z", "--out", str(path))
        assert code == 0
        verb = [str(out_path) if a == "@out" else a for a in verb]
        code, out, err = run(capsys, *verb, str(path), *flags)
        assert code == 2
        assert out == ""
        assert err == (f"input error: {given} apply to corpus: inputs only; "
                       f"{path} carries its own N and ring\n")
        assert not out_path.exists()

    def test_non_functor_fails_cleanly(self, capsys, tmp_path):
        # well shaped, but the inclusion at level 2 is not equivariant, so
        # kappa's factorization has no solution
        from fcalc.corpus import build
        data = plain(build("P(1)", "Z", 4).to_json())
        data["incl"][2] = [["1", "0", "0"], ["0", "0", "0"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "kappa", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestTransforms:
    def test_diff_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, _, _ = run(capsys, "diff", "corpus:P(1)", "--N", "6",
                         "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        F = TruncFIModule.from_json(data)
        assert F.N == 5
        assert [m.gens for m in F.levels] == [1, 2, 3, 4, 5, 6]
        # emitted JSON re-ingests to a structurally equal value
        assert TruncFIModule.from_json(
            plain(F.to_json())).structurally_equal(F)

    def test_shift_pipe(self, capsys, tmp_path):
        mid = tmp_path / "s.json"
        code, _, _ = run(capsys, "shift", "corpus:augmentation_kernel",
                         "--N", "6", "--x", "1", "--out", str(mid))
        assert code == 0
        code, out, _ = run(capsys, "degree", "--strong", str(mid))
        assert code == 0
        assert "strong degree = 1" in out

    def test_kappa_of_atomic(self, capsys, tmp_path):
        out_path = tmp_path / "k.json"
        code, _, _ = run(capsys, "kappa", "corpus:atomic(2)", "--N", "5",
                         "--out", str(out_path))
        assert code == 0
        F = TruncFIModule.from_json(json.loads(out_path.read_text()))
        assert [m.invariant_factors() for m in F.levels] == \
            [[0], [0], [1], [0], [0]]


class TestDims:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "dims", "corpus:P(1)", "--N", "5",
                           "--coeff", "Q")
        assert code == 0
        assert "dim:" in out and "polynomial of degree <= 1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dims", "--json", "corpus:P(1)", "--N", "4",
                           "--coeff", "Q")
        data = json.loads(out)
        assert data["dims"] == [0, 1, 2, 3, 4]


class TestSharpAndTilde:
    def test_dk_round_trip(self, capsys, tmp_path):
        reps_path = tmp_path / "reps.json"
        mod_path = tmp_path / "mod.json"
        code, _, _ = run(capsys, "dk-decompose", "corpus:free_sharp(1)",
                         "--N", "4", "--coeff", "F2", "--out", str(reps_path))
        assert code == 0
        code, _, _ = run(capsys, "dk-reconstruct", str(reps_path),
                         "--out", str(mod_path))
        assert code == 0
        data = json.loads(mod_path.read_text())
        assert "proj" in data
        assert [lvl["gens"] for lvl in data["levels"]] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("sym, relation", [
        ([["2", "0"], ["0", "1"]], "s_1 is not an involution"),
        ([["0", "1"], ["0", "1"]], "s_1 is not an involution"),
    ])
    def test_dk_reconstruct_refuses_a_non_action(self, capsys, tmp_path,
                                                 sym, relation):
        # a degree-2 matrix that is not an involution was reconstructed
        # into a functor that verify rejects and degree answered on
        reps_path = tmp_path / "reps.json"
        back_path = tmp_path / "back.json"
        code, _, _ = run(capsys, "dk-decompose", "corpus:free_sharp(2)",
                         "--N", "4", "--coeff", "Q", "--out", str(reps_path))
        assert code == 0
        data = json.loads(reps_path.read_text())
        data["reps"][2]["sym"][0] = sym
        reps_path.write_text(json.dumps(data))
        code, out, err = run(capsys, "dk-reconstruct", str(reps_path),
                             "--out", str(back_path))
        assert (code, out) == (2, "")
        assert err == (f"input error: invalid representation list in "
                       f"{reps_path}: degree 2: {relation}\n")
        assert not back_path.exists()

    def test_symrep_verify_names_each_relation(self):
        from fcalc.exactlin import Coeff, Mat, PresentedModule
        from fcalc.fisharp import SymRep

        Q = Coeff.Q()
        swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
        one = Mat.identity(Q, 2)
        free = PresentedModule.free(Q, 2)
        assert SymRep(3, free, [swap, one]).verify() == [
            "braid relation fails at s_1, s_2"]
        # both transpositions to the swap: the sign character, an action
        assert SymRep(3, free, [swap, swap]).verify() == []
        p, q = (Mat.from_rows(Q, r) for r in ([[1, 0, 0, 0], [0, 0, 1, 0],
                                               [0, 1, 0, 0], [0, 0, 0, 1]],
                                              [[1, 0, 0, 0], [0, 1, 0, 0],
                                               [0, 0, 0, 1], [0, 0, 1, 0]]))
        # s_1 and s_3 are involutions that do not commute, and s_2 = 1
        # makes each braid relation s_i = s_{i+1}
        four = PresentedModule.free(Q, 4)
        assert SymRep(4, four, [p, Mat.identity(Q, 4), q @ p @ q]).verify() \
            == ["braid relation fails at s_1, s_2",
                "braid relation fails at s_2, s_3",
                "distant transpositions s_1, s_3 do not commute"]
        # a matrix that does not preserve the relation (1, 1)
        lined = PresentedModule.from_rel_rows(Q, 2, [[1, 1]])
        assert SymRep(2, lined, [Mat.from_rows(Q, [[1, 0], [1, 1]])]).verify() \
            == ["s_1 does not respect the relations"]
        assert SymRep(2, lined, [swap]).verify() == []

    def test_dk_reconstruct_takes_no_coeff(self, capsys, tmp_path):
        # the ring is the representation list's own: --coeff is refused
        # rather than accepted and ignored
        reps_path = tmp_path / "reps.json"
        back_path = tmp_path / "back.json"
        code, _, _ = run(capsys, "dk-decompose", "corpus:free_sharp(1)",
                         "--N", "3", "--coeff", "F2", "--out", str(reps_path))
        assert code == 0
        code, out, err = run_to_exit(capsys, "dk-reconstruct", str(reps_path),
                                     "--coeff", "Q", "--out", str(back_path))
        assert code == 2
        assert out == ""
        assert "--coeff" in err
        assert not back_path.exists()

    def test_dk_decompose_needs_fi_sharp_entry(self, capsys):
        code, out, err = run(capsys, "dk-decompose", "corpus:P(1)", "--N", "3")
        assert code == 2
        assert out == ""
        assert err == ("input error: dk-decompose needs an FI#-module "
                       "(with proj data)\n")

    # dk-reconstruct --out on seeded random representation lists, some
    # with relations, at their own length and one level beyond
    RECONSTRUCT_DIGESTS = {
        "Z": "7c6b5f0acbc06adbb7b4913d7e22a977451ad4973d3e2fa6cbdbc4f1861d5926",
        "Q": "51b413c5b41fcefd4628b43e7a158e9c79baddc0754bc37b849549d78d3ae3d2",
        "F2": "e98839ee633fc5fb5150ce3a202a45c8851602b795baee652035c54c79a273e3",
        "F3": "b140bc4b656144e33daaccca806939d0bebf0f397e15bc3dbe012043766ed45b",
    }

    @pytest.mark.parametrize("coeff", ["Z", "Q", "F2", "F3"])
    def test_dk_reconstruct_digest(self, capsys, tmp_path, coeff):
        import random

        from fcalc.exactlin import Coeff, PresentedModule
        from fcalc.fisharp import SymRep, SymRepList
        from oracles import random_symrep

        ring = Coeff.parse(coeff)
        rng = random.Random(f"dk-reconstruct:{coeff}")
        reps_path = tmp_path / "reps.json"
        back_path = tmp_path / "back.json"
        h = hashlib.sha256()
        for _ in range(8):
            reps = []
            for k in range(rng.randint(0, 4) + 1):
                rep = random_symrep(rng, ring, k)
                g = rep.module.gens
                if g and rng.random() < 0.5:
                    # a multiple of the all-ones vector: every block is a
                    # permutation representation, so the action keeps it
                    c = rng.randint(2, 3)
                    rep = SymRep(k, PresentedModule.from_rel_rows(
                        ring, g, [[c] * g]), rep.sym)
                reps.append(rep)
            reps_path.write_text(
                json.dumps(plain(SymRepList(ring, reps).to_json())))
            for extra in ([], ["--N", str(len(reps))]):
                code, out, _ = run(capsys, "dk-reconstruct", str(reps_path),
                                   *extra, "--out", str(back_path))
                assert (code, out) == (0, "")
                h.update(back_path.read_bytes())
        assert h.hexdigest() == self.RECONSTRUCT_DIGESTS[coeff]

    # dk-decompose --out on the free FI#-modules and on alpha(P(2)) at N = 7,
    # whose levels carry 126-252 relations: the bytes, not only the
    # representations they present, are outputs, pinned as SHA-256 digests.
    FREE_SHARP_DIGEST = ("268c4dc05b7950cffe2dc34886e7cbde"
                         "64b3278614ef03fb29cbfe8b124ca5a0")
    ALPHA_P2_DIGESTS = {
        "Z": "f33b0fb8c35449d925043d7bb37f20dd9140de82d951076eb1c3b0e1db59922f",
        "Q": "abf10ec2158eb36af9e74116a30714fb993b3e6fde81d0ce6550bd757101a034",
        "F2": "5c00623f7303df8649dc879ba69db953e50f2a0b13bbcd01c2195c22a9a3b665",
        "F3": "3f586cba1bf417483a50da8ff26fdd605583e54730b3cb1113d2d5071ba2ebf4",
    }

    @staticmethod
    def decompose(capsys, out_path, *source) -> bytes:
        code, out, _ = run(capsys, "dk-decompose", *source,
                           "--out", str(out_path))
        assert (code, out) == (0, "")
        return out_path.read_bytes()

    def test_dk_decompose_free_sharp_digest(self, capsys, tmp_path):
        h = hashlib.sha256()
        for d in range(4):
            # free_sharp(d) with d above N exits 2 (test_argument_above_N)
            for N in range(d, 6):
                for coeff in ("F2", "Q"):
                    h.update(self.decompose(
                        capsys, tmp_path / "reps.json",
                        f"corpus:free_sharp({d})", "--N", str(N),
                        "--coeff", coeff))
        assert h.hexdigest() == self.FREE_SHARP_DIGEST

    @pytest.mark.parametrize("coeff", ["Z", "Q", "F2", "F3"])
    def test_dk_decompose_alpha_digest(self, capsys, tmp_path, coeff):
        module = tmp_path / "alpha.json"
        code, _, _ = run(capsys, "alpha", "corpus:P(2)", "--N", "7",
                         "--coeff", coeff, "--out", str(module))
        assert code == 0
        reps = self.decompose(capsys, tmp_path / "reps.json", str(module))
        assert hashlib.sha256(reps).hexdigest() == self.ALPHA_P2_DIGESTS[coeff]

    # dk-reconstruct --out, at the list's own length and at N = 6, on the
    # decompositions of alpha(P(2)) at N = 7, alpha(ex_upm_F) at N = 6 and
    # free_sharp(2) at N = 4: representations with relations, laid out on
    # the (subset, generator) bases
    DECOMPOSED_SOURCES = (("alpha", "corpus:P(2)", "--N", "7"),
                          ("alpha", "corpus:ex_upm_F", "--N", "6"),
                          ("corpus", "emit", "free_sharp(2)", "--N", "4"))
    RECONSTRUCT_DECOMPOSED_DIGESTS = {
        "Z": "40ef286cce97e8c381278ceb300e0694d43a65c6b5eb69ad16399accd767e765",
        "Q": "b0747959efe0812267c4b0a69e5ebef7e8fdfa357532454e633047695043a0d9",
        "F2": "80fe4ddc6e161b8d1442ca932346c35e0b990ecd7f7069b137e8e9092acf50bf",
        "F3": "85103fb69d84b980160ebe2642a65ac5422017536c45efa24908e90caa2d16d9",
    }

    @pytest.mark.parametrize("coeff", ["Z", "Q", "F2", "F3"])
    def test_dk_reconstruct_decomposed_digest(self, capsys, tmp_path, coeff):
        module = tmp_path / "module.json"
        reps_path = tmp_path / "reps.json"
        back_path = tmp_path / "back.json"
        h = hashlib.sha256()
        for source in self.DECOMPOSED_SOURCES:
            code, _, _ = run(capsys, *source, "--coeff", coeff,
                             "--out", str(module))
            assert code == 0
            self.decompose(capsys, reps_path, str(module))
            for extra in ([], ["--N", "6"]):
                code, out, err = run(capsys, "dk-reconstruct", str(reps_path),
                                     *extra, "--out", str(back_path))
                h.update(f"{code}\n{out}\n{err}\n".encode())
                h.update(back_path.read_bytes())
                back_path.unlink()
        assert h.hexdigest() == self.RECONSTRUCT_DECOMPOSED_DIGESTS[coeff]

    def test_alpha(self, capsys, tmp_path):
        out_path = tmp_path / "a.json"
        code, _, err = run(capsys, "alpha", "corpus:P(1)", "--N", "6",
                           "--coeff", "F2", "--out", str(out_path))
        assert code == 0
        assert "certified on [0, 3]" in err
        from fcalc.fisharp import FISharpModule
        G = FISharpModule.from_json(json.loads(out_path.read_text()))
        assert [m.dimension() for m in G.levels] == [1, 2, 3, 4]

    def test_alpha_profiles(self, capsys):
        # without --json or --out, alpha prints each level's profile
        code, out, err = run(capsys, "alpha", "corpus:P(1)", "--N", "5",
                             "--coeff", "Z")
        assert code == 0
        assert out == "level profiles: [[1], [2], [3]]\n"
        assert err == ("alpha certified on [0, 2] "
                       "(input window [0, 5], margin 2)\n")

    def test_alpha_profiles_of_a_large_z_presentation(self):
        # P(3) over Z at N = 8: the stages carry hundreds of generators,
        # so the profiles go through the Smith form of wide Hermite bases
        assert run_fresh("alpha", "corpus:P(3)", "--N", "8",
                         "--coeff", "Z") == (
            0, "level profiles: [[1], [4], [13], [34]]\n",
            "alpha certified on [0, 3] (input window [0, 8], margin 2)\n")

    def test_tilde_hom_listing(self, capsys):
        code, out, _ = run(capsys, "tilde-hom", "--cat", "theta", "2", "2")
        assert code == 0
        assert out.startswith("7 classes")
        assert "nowhere defined" in out

    def test_tilde_hom_json(self, capsys):
        code, out, _ = run(capsys, "tilde-hom", "--json", "--cat", "theta",
                           "2", "1")
        data = json.loads(out)
        assert len(data["classes"]) == 3

    def test_tilde_axioms(self, capsys):
        code, out, _ = run(capsys, "tilde-axioms", "--cat", "sigma",
                           "--bound", "2")
        assert code == 0
        assert "pass" in out


class TestTildeDigests:
    # exit code and stdout of the nullified hom-sets and axiom checks,
    # pinned as SHA-256 digests of "rc\nstdout" over each group
    DIGESTS = {
        "hom-theta": "d2c64ecdf613b99e594ff3b11a5e0e9b"
                     "d7320caa6ed4804be3f3fa38767d5718",
        "hom-sigma": "9b1a9d3d61e9fb14c8229e418328eff4"
                     "77129e25ff1f9d111a5db39f2c0eea56",
        "hom-large": "9633fb2c357d814dc36deb790b88c329"
                     "3190167f33d4f2458c63b109405e4adb",
        "axioms": "f932a2eba3520b092fbe77dc97c21689"
                  "45d10b466177d5945e9c965ba3a46627",
        "heavy": "7db439400e9d7f877730afe74899887c"
                 "579481b41b0bd06382810384e232a5e1",
        "theta-json-large": "1f693ea8d535190e52fbf31c091fb788"
                            "b0bcf9a51068ba6d2a7ccad129294f40",
    }
    QUERIES = {
        **{f"hom-{cat}": [["tilde-hom", "--cat", cat, *json_flag,
                           str(a), str(b)]
                          for a in range(5) for b in range(5)
                          for json_flag in ([], ["--json"])]
           for cat in ("theta", "sigma")},
        "hom-large": [["tilde-hom", "--cat", "theta", "4", "5"],
                      ["tilde-hom", "--cat", "sigma", "--json", "7", "7"]],
        "axioms": [["tilde-axioms", "--cat", cat, "--bound", str(bound)]
                   for cat, bounds in (("theta", (1, 2)),
                                       ("sigma", (1, 2, 3, 4)))
                   for bound in bounds],
        # the heavy tail of the tilde benchmark workload, and theta's
        # axioms at bound 3
        "heavy": [["tilde-hom", "--cat", "theta", str(a), str(b)]
                  for a, b in ((4, 2), (4, 3), (4, 4), (5, 0), (5, 1))]
                 + [["tilde-hom", "--cat", "sigma", "7", str(b)]
                    for b in range(4)]
                 + [["tilde-axioms", "--cat", "theta", "--bound", "3"]],
        # theta's class JSON, written from the normal forms, at the sizes
        # of the workload's heavy tail
        "theta-json-large": [["tilde-hom", "--cat", "theta", "--json",
                              str(a), str(b)] for a, b in ((4, 5), (5, 1))],
    }

    @pytest.mark.parametrize("group", sorted(QUERIES))
    def test_digest(self, capsys, group):
        h = hashlib.sha256()
        for argv in self.QUERIES[group]:
            code, out, _ = run(capsys, *argv)
            h.update(f"{code}\n{out}".encode())
        assert h.hexdigest() == self.DIGESTS[group]


class TestJsonDigests:
    """The JSON of the FI verbs over each ring: exit code, stdout, stderr
    and the --out file of every query in a group, pinned as one SHA-256
    digest per (group, ring).  The degrees include a weak degree -inf
    (atomic(2)) and a strong degree that is not certified (sum_zgeq)."""

    ENTRIES = ("const", "atomic(2)", "zgeq(3)", "P(1)", "P(2)",
               "augmentation_kernel", "sum_zgeq")
    QUERIES = {
        "degree": [["degree", kind, "--json", f"corpus:{e}", "--N", "5"]
                   for e in ENTRIES
                   for kind in ("--strong", "--weak", "--generation")],
        "dims": [["dims", "--json", f"corpus:{e}", "--N", "5"]
                 for e in ENTRIES],
        "transforms": [[verb, f"corpus:{e}", "--N", "5", "--out", "@out"]
                       for e in ("P(1)", "P(2)", "zgeq(2)",
                                 "augmentation_kernel")
                       for verb in ("diff", "kappa", "shift")],
        "emit": [["corpus", "emit", e, "--N", "5", "--out", "@out"]
                 for e in ENTRIES + ("free_sharp(1)", "free_sharp(2)")],
        # the functors given on bases: a basis element missing from the
        # next level (atomic, atomics_upto), several rank-one summands and
        # the partial injections' projections
        "emit-bases": [["corpus", "emit", e, "--N", str(N), "--out", "@out"]
                       for e in ("atomic(1)", "zgeq(1)", "atomics_upto(3)",
                                 "ex_upm_A", "free_sharp(3)")
                       for N in (5, 7)],
        # P(3) at N = 6: stages whose spans grow through three blocks
        "alpha": [["alpha", "--json", f"corpus:P({d})", "--N", str(N)]
                  for d in (1, 2) for N in (5, 6)]
                 + [["alpha", "--json", "corpus:P(3)", "--N", "6"]],
    }
    DIGESTS = {
        "alpha:Z":
            "4c75f39371c76cab71b57094345d9d981b15189f57c80e26db0e9580f628bc10",
        "alpha:Q":
            "be64c1a0c96e9ef0db0f7b1598c738a40e024d7736f157419549d78c23593429",
        "alpha:F2":
            "7c9e774e603c55341dd08db8c3cbd85316bf4704fe2c28476234af98df69fac1",
        "alpha:F3":
            "7cf928fe884cf2c96a4f69bbd13c1dd97940cecace0aeefc84e303f7fd1e7a7a",
        "degree:Z":
            "6ce66f08005cf8dee8ed404d1bf9b4a37d2c340720912778652f1f32ab82e606",
        "degree:Q":
            "6ce66f08005cf8dee8ed404d1bf9b4a37d2c340720912778652f1f32ab82e606",
        "degree:F2":
            "6ce66f08005cf8dee8ed404d1bf9b4a37d2c340720912778652f1f32ab82e606",
        "degree:F3":
            "6ce66f08005cf8dee8ed404d1bf9b4a37d2c340720912778652f1f32ab82e606",
        "dims:Z":
            "dc5a87fc1a2a75df7f4acbaccd0083028500761c145b91a83d44384ae94cd193",
        "dims:Q":
            "dc5a87fc1a2a75df7f4acbaccd0083028500761c145b91a83d44384ae94cd193",
        "dims:F2":
            "dc5a87fc1a2a75df7f4acbaccd0083028500761c145b91a83d44384ae94cd193",
        "dims:F3":
            "dc5a87fc1a2a75df7f4acbaccd0083028500761c145b91a83d44384ae94cd193",
        "emit-bases:Z":
            "c6f19a878d68c9abbe701fd431ba378b9c5bc25ddae26d2e0b5f77af7e1aad38",
        "emit-bases:Q":
            "58728efdce27f3a65d2b8fc0927a89091899af0195f8f7c532341f67246e4dd8",
        "emit-bases:F2":
            "200317cc8dbacb94e596af8b72fcbf411fe4a2fee1d4c58282c8e85e156b1a3c",
        "emit-bases:F3":
            "765550aa63ba2c20926f3a59d458ea4618328547104983906da33c8a2de6a4e2",
        "emit:Z":
            "d13cd20724aeeb19bd70f4a2da1eefd94b0a70df2e28e35657ec7686610d8028",
        "emit:Q":
            "24bf217d10f385c63c2840d90e2ecc0139bd58e784849f2233f2530bf06d4868",
        "emit:F2":
            "a5e95ec2ac388bdfaefcf5b76631fc8a369b3004c81404d59817e8cbff41ef41",
        "emit:F3":
            "542741e27eea26f040a88359e57fa476ec41d8c14fc70a1df8c3178533378e5d",
        "transforms:Z":
            "dc51e75ddc4be130b0cc63267f0d27e87d816df808df490c1f3eb1a73da59c2e",
        "transforms:Q":
            "a89b2dc9636e7bac7253025fc9e445693484c52c53cf65f029af1e17ff9fdd12",
        "transforms:F2":
            "a31291a4d6203a3e9cc51523e365c3883e364138942907952c647ff8ff1b39e7",
        "transforms:F3":
            "cb1104b22bcdea911e95d344a86a1a6a44ad6fc7a3238e5a21cfae64e0a1db25",
    }

    @pytest.mark.parametrize("coeff", ["Z", "Q", "F2", "F3"])
    @pytest.mark.parametrize("group", sorted(QUERIES))
    def test_digest(self, capsys, tmp_path, group, coeff):
        out_path = tmp_path / "out.json"
        h = hashlib.sha256()
        for argv in self.QUERIES[group]:
            argv = [str(out_path) if a == "@out" else a for a in argv]
            code, out, err = run(capsys, *argv, "--coeff", coeff)
            h.update(f"{code}\n{out}\n{err}\n".encode())
            if out_path.exists():
                h.update(out_path.read_bytes())
                out_path.unlink()
        assert h.hexdigest() == self.DIGESTS[f"{group}:{coeff}"]


class TestCorpusCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "corpus", "list")
        assert code == 0
        assert "augmentation_kernel" in out

    def test_emit_and_reload(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        code, _, _ = run(capsys, "corpus", "emit", "zgeq(2)", "--N", "6",
                         "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "degree", "--strong", str(path))
        assert "strong degree = 2" in out

    def test_check_single(self, capsys):
        code, out, _ = run(capsys, "corpus", "check", "atomic(2)")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "corpus", "emit", "mystery(1)")
        assert code == 2

    @pytest.mark.parametrize("argv, flags", [
        (("check", "atomic(2)", "--out", "@out"), "--out"),
        (("check", "atomic(2)", "--N", "3"), "--N"),
        (("check", "atomic(2)", "--coeff", "Q"), "--coeff"),
        (("check", "atomic(2)", "--out", "@out", "--N", "3", "--coeff", "Q"),
         "--N, --coeff, --out"),
        (("check", "--N", "3"), "--N"),
        (("list", "--out", "@out"), "--out"),
        (("list", "--coeff", "F2"), "--coeff"),
    ])
    def test_flags_only_for_emit(self, capsys, tmp_path, argv, flags):
        # only emit builds at a size and ring and writes a file; list and
        # check refuse the flags instead of ignoring them
        out_path = tmp_path / "out.json"
        argv = [str(out_path) if a == "@out" else a for a in argv]
        code, out, err = run(capsys, "corpus", *argv)
        assert code == 2
        assert out == ""
        assert err == f"input error: corpus {argv[0]} takes no {flags}\n"
        assert not out_path.exists()

    def test_list_takes_no_name(self, capsys):
        code, out, err = run(capsys, "corpus", "list", "atomic(2)")
        assert code == 2
        assert out == ""
        assert err == ("input error: corpus list takes no name, "
                       "got 'atomic(2)'\n")

    @pytest.mark.parametrize("argv", [
        ("corpus", "emit", "P()", "--N", "3"),
        ("degree", "corpus:P()", "--N", "3"),
    ])
    def test_malformed_entry_name(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "cannot build corpus:P()" in err


    @pytest.mark.parametrize("argv", [
        ("degree", "corpus:P(1,2)", "--N", "5"),
        ("degree", "corpus:const(7)", "--N", "5"),
        ("degree", "corpus:atomic(1,5)", "--N", "5"),
        ("degree", "corpus:augmentation_kernel(3)", "--N", "5"),
        ("degree", "corpus:zgeq(2)+P(1,1)", "--N", "5"),
        ("corpus", "emit", "free_sharp(1,2)", "--N", "2"),
        ("corpus", "emit", "free_sharp", "--N", "2"),
    ])
    def test_wrong_argument_count(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "argument(s), got" in err

    @pytest.mark.parametrize("head, arg, argv", [
        ("zgeq", -2, ("degree", "--strong", "corpus:zgeq(-2)", "--N", "4")),
        ("atomic", -3, ("corpus", "emit", "atomic(-3)", "--N", "4")),
        ("atomics_upto", -1, ("corpus", "emit", "atomics_upto(-1)", "--N", "4")),
        ("free_sharp", -1, ("corpus", "emit", "free_sharp(-1)", "--N", "2")),
        ("P", -2, ("corpus", "emit", "P(-2)", "--N", "4")),
    ], ids=["zgeq", "atomic", "atomics_upto", "free_sharp", "P"])
    def test_negative_argument(self, capsys, head, arg, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert (f"corpus entry {head!r} takes non-negative arguments, "
                f"got {arg}") in err

    @pytest.mark.parametrize("entry, argv", [
        ("P(5)", ("degree", "--strong", "corpus:P(5)", "--N", "4")),
        ("zgeq(5)", ("degree", "--strong", "corpus:zgeq(5)", "--N", "4")),
        ("atomic(9)", ("degree", "--strong", "corpus:atomic(9)", "--N", "4")),
        ("atomic(9)", ("dims", "corpus:P(1)+atomic(9)", "--N", "4")),
        ("free_sharp(3)", ("corpus", "emit", "free_sharp(3)", "--N", "2")),
    ])
    def test_argument_above_N(self, capsys, entry, argv):
        # zero on the whole window, where the strong degree would read
        # -inf: P(5) has strong degree 5
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"corpus entry {entry!r} is zero on [0, " in err


class TestSixTerm:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "six-term", "corpus:zgeq(2)", "--N", "5")
        assert code == 0
        assert "pass" in out


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ("degree", "corpus:P(1)", "--N", "4"),
        ("dims", "corpus:P(1)", "--N", "4"),
        ("tilde-hom", "2", "1"),
    ])
    def test_out_implies_json(self, capsys, tmp_path, argv):
        code, printed, _ = run(capsys, *argv, "--json")
        assert code == 0
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (0, "")
        assert path.read_text() == printed

    @pytest.mark.parametrize("verb", ["six-term", "verify"])
    @pytest.mark.parametrize("flag", ["--json", "--out"])
    def test_verdict_verbs_take_no_json_flags(self, capsys, tmp_path, verb,
                                              flag):
        path = tmp_path / "out.json"
        extra = [flag] if flag == "--json" else [flag, str(path)]
        code, out, err = run_to_exit(capsys, verb, "corpus:P(1)", "--N", "4",
                                     *extra)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(extra)}" in err
        assert not path.exists()


# Random JSON trees of what fcalc builds: strings that need escaping, big
# ints, bools among ints, None, tuples, empty containers, and lists that
# turn mixed after a first string or int.
_TEXT = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "tab\there\n", "\u00e9\u20ac\U0001d11e",
     "\ud800", "\u2028", "0", ""]))
_INT = st.one_of(st.integers(), st.integers(-10 ** 40, 10 ** 40))
_SCALAR = st.one_of(st.none(), st.booleans(), _INT, _TEXT)
_FLAT = st.one_of(
    st.lists(_TEXT), st.lists(_INT), st.lists(st.one_of(_INT, st.booleans())),
    st.builds(lambda head, x, tail: head + [x] + tail,
              st.lists(_TEXT, min_size=1, max_size=4), _SCALAR,
              st.lists(_TEXT, max_size=4)),
    st.builds(lambda head, x: head + [x],
              st.lists(_INT, min_size=1, max_size=4), _SCALAR))
_TREE = st.recursive(
    st.one_of(_SCALAR, _FLAT),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=12)


# Matrices as Mat.to_json writes them over Z, Q and F_p: dense rows of "0",
# negatives, big integers and "a/b"; some rows also hold one string that
# json's escaper changes, which sends that row down the escaping path.
_ENTRY = st.one_of(
    st.just("0"), st.integers(-10 ** 30, 10 ** 30).map(str),
    st.builds("{}/{}".format, st.integers(-999, 999), st.integers(2, 999)))
_ESCAPED = st.sampled_from(
    ['"', "\\", "\x7f", "-1\x7f", "\u00e9", "\U0001d11e", "\ud800", "1\\2",
     "\n", "\x1f"])
_ROW = st.one_of(
    st.lists(_ENTRY, min_size=1, max_size=8),
    st.builds(lambda row, i, x: row[:i] + [x] + row[i:],
              st.lists(_ENTRY, max_size=8), st.integers(0, 8), _ESCAPED))
_MATRIX = st.lists(_ROW, max_size=5)
_PRESENTATION = st.fixed_dictionaries({
    "coeff": st.sampled_from(["Z", "Q", "F2", "F3", "F5"]),
    "N": st.integers(0, 9),
    "levels": st.lists(st.fixed_dictionaries(
        {"gens": st.integers(0, 9), "rels": _MATRIX}), max_size=3),
    "incl": st.lists(_MATRIX, max_size=3),
    "sym": st.lists(st.lists(_MATRIX, max_size=2), max_size=3)})
# Lists of dicts, as tilde-hom's classes and a functor's levels are, nested
# and mixed with other items.
_DICTS = st.recursive(
    st.lists(st.fixed_dictionaries({"domain": st.lists(st.integers()),
                                    "values": st.lists(st.integers())}),
             max_size=4),
    lambda children: st.lists(st.one_of(
        st.dictionaries(_TEXT, st.one_of(children, _SCALAR, _FLAT),
                        max_size=3),
        children, _SCALAR, _ROW), max_size=4),
    max_leaves=10)


# Mat leaves over Z, Q, F2 and F3 as to_json() holds them, of every shape
# from 0 x k and k x 0 up: mostly zeros, with negatives, big integers and
# a/b over Q, so rows are empty, full or end in the last column.
_RINGS = [Coeff.parse(code) for code in ("Z", "Q", "F2", "F3")]


def _mats(coeff):
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.integers(-10 ** 30, 10 ** 30),
                      *([st.fractions(max_denominator=999)]
                        if coeff.kind == Coeff.RATIONALS else []))
    return st.integers(0, 6).flatmap(lambda ncols: st.lists(
        st.lists(entry.map(coeff.normalize), min_size=ncols,
                 max_size=ncols), max_size=5).map(
        lambda rows: Mat(coeff, len(rows), ncols, rows)))


# theta's and sigma's classes as tilde-hom hands them to the writer
_CLASSES = st.sampled_from([
    ("theta", 2, 2), ("theta", 3, 1), ("theta", 0, 2), ("theta", 2, 0),
    ("sigma", 3, 2), ("sigma", 3, 3), ("sigma", 4, 1), ("sigma", 1, 3),
]).map(lambda t: tilde_hom(category(t[0]), t[1], t[2]))
_CLASS = _CLASSES.filter(bool).flatmap(st.sampled_from)
_LEAVES = st.sampled_from(_RINGS).flatmap(lambda c: st.fixed_dictionaries({
    "coeff": st.just(c.code),
    "rels": _mats(c),
    "levels": st.lists(st.fixed_dictionaries(
        {"gens": st.integers(0, 9), "rels": _mats(c)}), max_size=3),
    "incl": st.lists(_mats(c), max_size=3),
    "sym": st.lists(st.lists(_mats(c), max_size=2), max_size=3),
    "classes": _CLASSES,
    "class": _CLASS,
    "mixed": st.lists(st.one_of(_mats(c), _CLASS, _CLASSES, _SCALAR),
                      max_size=4),
}))


class TestWriter:
    """``emit`` writes the bytes of ``json.dumps(data, indent=1)``, with
    each ``Mat`` and ``TildeHom`` leaf in its plain form (``plain``)."""

    @staticmethod
    def assert_same_bytes(data, path):
        expected = json.dumps(plain(data), indent=1) + "\n"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            emit(data, None)
        assert out.getvalue() == expected
        emit(data, str(path))
        assert path.read_bytes() == expected.encode()

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_TREE)
    def test_same_bytes_as_json_dumps(self, data):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            emit(data, None)
        assert out.getvalue() == json.dumps(data, indent=1) + "\n"

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_PRESENTATION)
    def test_matrix_rows(self, tmp_path, data):
        self.assert_same_bytes(data, tmp_path / "out.json")

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_DICTS)
    def test_lists_of_dicts(self, tmp_path, data):
        self.assert_same_bytes({"classes": data}, tmp_path / "out.json")

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_LEAVES)
    def test_matrices_and_classes(self, tmp_path, data):
        self.assert_same_bytes(data, tmp_path / "out.json")

    @pytest.mark.parametrize("coeff", _RINGS, ids=lambda c: c.code)
    def test_matrix_shapes(self, tmp_path, coeff):
        # 0 x k, k x 0 and 0 x 0, an empty row, entries in the first and
        # the last column, a big negative and a/b over Q
        x = Fraction(-3, 7) if coeff.kind == Coeff.RATIONALS else -10 ** 40
        mats = [Mat.zero(coeff, 0, 3), Mat.zero(coeff, 3, 0),
                Mat.zero(coeff, 0, 0), Mat.zero(coeff, 2, 4),
                Mat.from_rows(coeff, [[0, 0, 0, x], [x, 0, 0, 0],
                                      [0, 0, 0, 0], [1, x, 2, x]])]
        self.assert_same_bytes(
            {"rels": mats[-1], "incl": mats,
             "levels": [{"gens": m.ncols, "rels": m} for m in mats]},
            tmp_path / "out.json")

    def test_type_error_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            emit({"rels": Mat.identity(Coeff.Z(), 2), "x": 0.5}, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("where, reason", [
        ("nodir/x.json", "No such file or directory"),
        (".", "Is a directory")])
    def test_out_that_cannot_be_written(self, capsys, tmp_path, where,
                                        reason):
        target = tmp_path / where
        code, out, err = run(capsys, "corpus", "emit", "P(1)", "--N", "3",
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"input error: cannot write {target}: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    def test_peak_memory_under_twice_the_text(self, tmp_path):
        # the pieces are the one whole copy of the text; besides them only
        # one item of a top-level list is joined at a time
        data = build("P(3)", "Z", 7).to_json()
        path = tmp_path / "p3.json"
        tracemalloc.start()
        try:
            emit(data, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size

    def test_line_buffered_stdout_flushes_per_chunk(self, monkeypatch):
        # a terminal's line-buffered stream flushes on every write that
        # holds a newline: emit hands it one write per 64 KiB of text
        class Counting(io.BytesIO):
            flushes = 0

            def flush(self):
                Counting.flushes += 1
                super().flush()

        raw = Counting()
        stream = io.TextIOWrapper(raw, encoding="ascii",
                                  line_buffering=True)
        monkeypatch.setattr(sys, "stdout", stream)
        data = {"classes": [{"normal": [i, i + 1], "name": f"c{i}"}
                            for i in range(6000)]}
        emit(data, None)
        monkeypatch.undo()
        text = json.dumps(data, indent=1) + "\n"
        assert raw.getvalue() == text.encode()
        assert 0 < Counting.flushes <= len(text) // (1 << 16) + 1

    def test_out_file(self, tmp_path):
        data = {"levels": [{"gens": 2, "rels": [["0", "-1"]]}], "x": []}
        path = tmp_path / "out.json"
        emit(data, str(path))
        assert path.read_bytes() == (json.dumps(data, indent=1)
                                     + "\n").encode()

    @pytest.mark.parametrize("data, message", [
        ({"a": {1, 2}}, "Object of type set is not JSON serializable"),
    ])
    def test_same_errors_as_json_dumps(self, data, message):
        with pytest.raises(TypeError, match=message):
            json.dumps(data, indent=1)
        with pytest.raises(TypeError, match=message):
            emit(data, None)

    @pytest.mark.parametrize("data", [
        {"a": 0.5}, [1, 2.0], {1: 0}, {None: 0}, {(1, 2): 0}])
    def test_floats_and_non_str_keys_raise(self, data):
        # fcalc emits neither, so the writer takes neither
        with pytest.raises(TypeError):
            emit(data, None)


class TestOneProcess:
    """``main`` builds its parser once per process; every call must still
    answer as the first call of a fresh process does."""

    def test_python_m_fcalc(self, capsys):
        argv = ("degree", "--strong", "--json", "corpus:P(1)", "--N", "4")
        code, out, err = run(capsys, *argv)
        assert run_fresh(*argv) == (code, out, err)
        assert code == 0 and out.startswith("{")

    def test_transform_verbs_look_up_their_operation(self, capsys,
                                                     monkeypatch, tmp_path):
        run(capsys, "degree", "corpus:const", "--N", "3")
        called = []
        for verb in ("diff", "shift", "kappa"):
            def spy(F, x, verb=verb, op=getattr(fcalc.cli, verb)):
                called.append(verb)
                return op(F, x)
            monkeypatch.setattr(fcalc.cli, verb, spy)
        for verb in ("diff", "shift", "kappa"):
            code, _, _ = run(capsys, verb, "corpus:P(1)", "--N", "4",
                             "--out", str(tmp_path / f"{verb}.json"))
            assert code == 0
        assert called == ["diff", "shift", "kappa"]

    def test_no_state_leaks_between_calls(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        source = ("corpus:P(1)", "--N", "5")
        sequence = [
            (None, ("degree", "--strong", "--weak", *source)),
            (None, ("degree", "--weak", "--margin", "1", "--json", *source)),
            (None, ("degree", "--weak", "--json", *source)),
            ("1", ("degree", "--weak", "--json", *source)),
            (None, ("degree", "--weak", "--json", *source)),
        ]
        seen = []
        for margin, argv in sequence:
            if margin is None:
                monkeypatch.delenv("FCALC_MARGIN", raising=False)
            else:
                monkeypatch.setenv("FCALC_MARGIN", margin)
            got = run_to_exit(capsys, *argv)
            assert got == run_fresh(*argv, margin=margin)
            seen.append(got)
        assert seen[0][0] == 2 and "not allowed with" in seen[0][2]
        margins = [json.loads(out)["margin"] for _, out, _ in seen[1:]]
        assert margins == [1, 2, 1, 2]


def _cut_rows(data):
    data["incl"][2] = data["incl"][2][:1]


def _truncate_row(data):
    data["incl"][2][1] = data["incl"][2][1][:-1]


def _ragged_rels(data):
    data["levels"][2]["rels"] = [["1", "0"], ["1"]]


def _short_proj(data):
    data["proj"][1] = data["proj"][1][:-1]


def _set(path, value):
    def mutate(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value
    return mutate


SHORT_SYM_REPS = {"coeff": "F2", "reps": [
    {"gens": 1, "rels": [], "sym": []},
    {"gens": 0, "rels": [], "sym": []},
    {"gens": 2, "rels": [], "sym": [[["0", "1"]]]},
]}


class TestMalformedInput:
    """Every malformed file exits 2 and names the field at fault; none of
    them may yield an answer."""

    # F<p> with p as ``Coeff.code`` writes it and nothing else: int()
    # alone would read the first five as F3 or F11
    BAD_CODES = ("F03", "F 3", "F+3", "F1_1", "F\uff13", "F")

    @pytest.mark.parametrize("code", BAD_CODES)
    def test_malformed_coefficient_code(self, capsys, tmp_path, code):
        rc, out, err = run(capsys, "degree", "--strong", "corpus:const",
                           "--N", "3", "--coeff", code)
        assert (rc, out) == (2, "")
        assert err == (f"input error: cannot build corpus:const: unknown "
                       f"coefficient code {code!r}\n")
        path = tmp_path / "const.json"
        rc, _, _ = run(capsys, "corpus", "emit", "const", "--N", "3",
                       "--coeff", "F3", "--out", str(path))
        assert rc == 0
        data = json.loads(path.read_text())
        data["coeff"] = code
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "degree", "--strong", str(path))
        assert (rc, out) == (2, "")
        assert err == (f"input error: invalid functor data in {path}: coeff: "
                       f"unknown coefficient code {code!r}\n")

    @pytest.mark.parametrize("verb, source, mutate, field", [
        ("degree", "P(1)", _cut_rows, "incl[2]"),
        ("degree", "P(1)", _truncate_row, "incl[2]"),
        ("degree", "P(1)", _ragged_rels, "levels[2]"),
        ("degree", "free_sharp(1)", _short_proj, "proj[1]"),
        ("degree", "P(1)", _set(["levels", 0, "gens"], None), "levels[0]"),
        ("degree", "P(1)", _set(["levels"], 5), "levels"),
        ("degree", "P(1)", _set(["incl", 1, 0, 0], True), "incl[1]"),
        ("degree", "P(1)", _set(["sym", 3, 0], [["1"]]), "sym[3][0]"),
        ("degree", "P(1)", _set(["coeff"], 5), "coeff"),
        ("degree", "P(1)", lambda data: data["incl"].append([]), "incl"),
        ("dk-reconstruct", None, None, "reps[2]: sym[0]"),
        ("degree", None, None, "top level"),
    ])
    def test_exits_2_naming_the_field(self, capsys, tmp_path, verb, source,
                                      mutate, field):
        if source is None:
            data = SHORT_SYM_REPS if verb == "dk-reconstruct" else [1, 2]
        else:
            code, _, _ = run(capsys, "corpus", "emit", source, "--N", "4",
                             "--coeff", "F2", "--out", str(tmp_path / "ok.json"))
            assert code == 0
            data = json.loads((tmp_path / "ok.json").read_text())
            mutate(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, verb, str(path))
        assert code == 2
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("verb, source, mutate, message", [
        ("degree", "P(1)", _cut_rows, "incl[2]: expected 2 rows, got 1"),
        ("degree", "P(1)", _set(["incl", 2, 1, 2], "x"),
         "incl[2]: invalid literal for int() with base 10: 'x'"),
        ("degree", "P(1)", _set(["incl", 2, 1, 0], "1/2"),
         "incl[2]: fractional scalar '1/2' over F2"),
        ("dk-reconstruct", None, None,
         "reps[2]: sym[0]: expected 2 rows, got 1"),
        ("dk-reconstruct", None, _set(["reps", 2, "sym", 0],
                                      [["0", "1"], ["1", "x"]]),
         "reps[2]: sym[0]: invalid literal for int() with base 10: 'x'"),
        *[("degree", "P(1)", _set(["N"], n),
           f"N: expected an integer, got {n!r}")
          for n in (4.7, 4.0, "4", " 4", True, None)],
    ])
    def test_matrix_messages(self, capsys, tmp_path, verb, source, mutate,
                             message):
        if source is None:
            data = copy.deepcopy(SHORT_SYM_REPS)
        else:
            code, _, _ = run(capsys, "corpus", "emit", source, "--N", "4",
                             "--coeff", "F2", "--out", str(tmp_path / "ok.json"))
            assert code == 0
            data = json.loads((tmp_path / "ok.json").read_text())
        if mutate is not None:
            mutate(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(capsys, verb, str(path)) == (
            2, "", f"input error: invalid functor data in {path}: {message}\n")


def mutate_one(data, rng: random.Random) -> None:
    """Replace, delete or insert one value somewhere in ``data``: walk
    down from the top, stopping at each container with chance 0.3, so
    that the top-level fields are hit as often as the matrix entries."""
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        inner = [k for k in keys if isinstance(node[k], (list, dict))]
        if not inner or rng.random() < 0.3:
            break
        node = node[rng.choice(inner)]
    value = copy.deepcopy(rng.choice(FUZZ_VALUES))
    op = rng.choice(("replace", "delete", "insert")) if keys else "insert"
    if op == "replace":
        node[rng.choice(keys)] = value
    elif op == "delete":
        del node[rng.choice(keys)]
    elif isinstance(node, dict):
        node[rng.choice(FUZZ_KEYS)] = value
    else:
        node.insert(rng.randint(0, len(node)), value)


# small values only: a representation of degree <= 1 has no sym matrix to
# bound its gens, so a huge gens would be taken at its word
FUZZ_VALUES = ["x", True, False, None, 1.5, [], {}, "1/2", "1/0", "00", "-0",
               " 1", "", "0", "1", "2", "-1", 0, 1, 2, -1, [[]], [["1"]]]
FUZZ_KEYS = ("N", "coeff", "levels", "gens", "rels", "incl", "sym", "proj",
             "reps", "extra")
FI_VERBS = (("verify",), ("degree", "--strong"), ("degree", "--weak"),
            ("dims",), ("diff", "--out", "@out"), ("alpha",))
FUZZ_SOURCES = [
    (("corpus", "emit", "P(1)", "--N", "4", "--coeff", "Z"), FI_VERBS),
    (("corpus", "emit", "zgeq(2)", "--N", "4", "--coeff", "Q"), FI_VERBS),
    (("corpus", "emit", "free_sharp(1)", "--N", "3", "--coeff", "F3"),
     FI_VERBS + (("dk-decompose", "--out", "@out"),)),
    (("alpha", "corpus:P(1)", "--N", "4", "--coeff", "F2"),
     (("verify",), ("degree", "--strong"), ("dk-decompose", "--out", "@out"))),
    (("dk-decompose", "corpus:free_sharp(2)", "--N", "3", "--coeff", "Q"),
     (("dk-reconstruct", "--out", "@out"),
      ("dk-reconstruct", "--N", "4", "--out", "@out"), ("verify",))),
]


class TestLoaderFuzz:
    """Files that fcalc wrote, each with one value replaced, deleted or
    inserted: every verb on them answers, or exits 1 or 2, and none
    raises."""

    @pytest.mark.parametrize("source, verbs", FUZZ_SOURCES,
                             ids=[" ".join(s[:3]) for s, _ in FUZZ_SOURCES])
    def test_mutations(self, capsys, tmp_path, source, verbs):
        good, bad, out_path = (tmp_path / name for name in
                               ("good.json", "bad.json", "out.json"))
        code, _, _ = run(capsys, *source, "--out", str(good))
        assert code == 0
        original = json.loads(good.read_text())
        rng = random.Random(" ".join(source))
        codes = set()
        for _ in range(200):
            data = copy.deepcopy(original)
            mutate_one(data, rng)
            bad.write_text(json.dumps(data))
            verb = [str(out_path) if a == "@out" else a
                    for a in rng.choice(verbs)]
            code, _, _ = run_to_exit(capsys, verb[0], str(bad), *verb[1:])
            assert code in (0, 1, 2), (verb, data)
            codes.add(code)
        assert codes >= {0, 2}
