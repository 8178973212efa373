"""Command-line dispatch: exit codes, output shapes, round trips."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcalc.cli
from fcalc.cli import main
from fcalc.fimod import TruncFIModule

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


class TestVerify:
    def test_good_module(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "corpus:P(2)", "--N", "5")
        assert code == 0
        assert "ok" in out

    def test_violating_module_named(self, capsys, tmp_path):
        from fcalc.corpus import build
        from fcalc.exactlin import Mat, Coeff
        F = build("P(1)", "Z", 3)
        data = F.to_json()
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
        data = build("P(1)", "Z", 4).to_json()
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
        assert TruncFIModule.from_json(F.to_json()).structurally_equal(F)

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
            reps_path.write_text(json.dumps(SymRepList(ring, reps).to_json()))
            for extra in ([], ["--N", str(len(reps))]):
                code, out, _ = run(capsys, "dk-reconstruct", str(reps_path),
                                   *extra, "--out", str(back_path))
                assert (code, out) == (0, "")
                h.update(back_path.read_bytes())
        assert h.hexdigest() == self.RECONSTRUCT_DIGESTS[coeff]

    # dk-decompose --out on the free FI#-modules and on alpha(P(2)) at N = 7,
    # whose levels carry 126-252 relations: the bytes, not only the
    # representations they present, are outputs, pinned as SHA-256 digests.
    FREE_SHARP_DIGEST = ("4ee102028f06e764d1bb9b93183a8422"
                         "6772e94df608a7a5723b1c2952030465")
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
            for N in range(6):
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
    }

    @pytest.mark.parametrize("group", sorted(QUERIES))
    def test_digest(self, capsys, group):
        h = hashlib.sha256()
        for argv in self.QUERIES[group]:
            code, out, _ = run(capsys, *argv)
            h.update(f"{code}\n{out}".encode())
        assert h.hexdigest() == self.DIGESTS[group]


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
