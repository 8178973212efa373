"""Running one query, and reading its answer as invariants.

An answer is compared by invariants, not bytes: the exit code, a verdict
with its window and margin, each level's invariant factors of an emitted
functor, per-degree profiles of a representation list, class counts.  A
presentation that gets smaller but stays isomorphic gives the same answer.

Closed forms from the paper's corpus are checked wherever they apply;
every other answer is compared with ``reference.json``, recorded from the
seed commit by ``record.py``.
"""
from __future__ import annotations

import contextlib
import io
import json
from math import comb, factorial

from workloads import block_dim, key, rep_dims

import fcalc.cli as fcli
from fcalc import fisharp
from fcalc.exactlin import PresentedModule
from fcalc.fimod import TruncFIModule
from fcalc.fisharp import FISharpModule, SymRepList


def reps_json(coeff: str, blocks: str) -> dict:
    """A representation list in fcalc's JSON format from a block spec:
    per degree k, direct sums of trivial and permutation representations
    of the symmetric group on k letters."""
    reps = []
    for k, part in enumerate(blocks.split("/")):
        part = part.strip("-")
        dim = sum(block_dim(b, k) for b in part)
        sym = []
        for i in range(1, k):
            mat = [["0"] * dim for _ in range(dim)]
            at = 0
            for b in part:
                n = block_dim(b, k)
                for j in range(n):
                    mat[at + j][at + j] = "1"
                if b == "n":
                    # the transposition (i-1 i) on the block's k points
                    mat[at + i - 1][at + i - 1] = mat[at + i][at + i] = "0"
                    mat[at + i - 1][at + i] = mat[at + i][at + i - 1] = "1"
                at += n
            sym.append(mat)
        reps.append({"gens": dim, "rels": [], "sym": sym})
    return {"coeff": coeff, "reps": reps}


def write_input(spec: str, path: str) -> None:
    """Write the input file a ``@in:SPEC`` token names.  Derived functors
    are made by the CLI itself, so set-up exercises the same code."""
    op, rest = spec.split(":", 1)
    if op == "reps":
        coeff, blocks = rest.split(":")
        with open(path, "w") as fh:
            json.dump(reps_json(coeff, blocks), fh)
        return
    entry, ring, N = rest.split(":")
    if op == "emit":
        argv = ["corpus", "emit", entry]
    else:
        argv = [op, f"corpus:{entry}"]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = fcli.main(argv + ["--N", N, "--coeff", ring, "--out", path])
    if rc != 0:
        raise RuntimeError(f"set-up could not write {spec} (exit {rc})")


def prepare(query: dict, files: dict, out_path: str):
    """What ``execute`` needs, made outside the timed region."""
    if query["kind"] == "dk-chain":
        return reps_json(query["coeff"], query["blocks"])
    return [files[a[4:]] if a.startswith("@in:") else
            out_path if a == "@out" else a for a in query["argv"]]


def execute(query: dict, prepared):
    """The timed part: one query, returning its raw result."""
    if query["kind"] == "dk-chain":
        reps = SymRepList.from_json(prepared)
        R = fisharp.dold_kan_reconstruct(reps)
        back = fisharp.dold_kan_decompose(R)
        equivalent = reps.equivalent(back)
        w = fisharp.dold_kan_witness(R, back)
        natural = w.is_natural()
        iso = w.is_levelwise_iso()
        R2 = fisharp.dold_kan_reconstruct(back, R.N)
        sharp = fisharp.sharp_natmap_ok(R2, R, w)
        return (R, back, equivalent, natural, iso, sharp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fcli.main(prepared)
    return (rc, out.getvalue(), err.getvalue())


def profiles(levels) -> list:
    """Invariant factors of each module, computed on fresh copies so that
    no cached span or profile leaks back into the program."""
    return [PresentedModule(m.coeff, m.gens, m.rels).invariant_factors()
            for m in levels]


def _functor_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    F = (FISharpModule if "proj" in data else TruncFIModule).from_json(data)
    return {"N": F.N, "profiles": profiles(F.levels)}


def answer(query: dict, prepared, raw) -> dict:
    """The invariants of a raw result."""
    if query["kind"] == "dk-chain":
        R, back, equivalent, natural, iso, sharp = raw
        return {"equivalent": equivalent, "natural": natural,
                "levelwise_iso": iso, "sharp_natural": sharp,
                "profiles": profiles(R.levels),
                "back": profiles([r.module for r in back.reps])}
    rc, out, _ = raw
    ans = {"rc": rc}
    if rc != 0:
        return ans
    argv = query["argv"]
    verb = argv[0]
    if verb in ("degree", "dims"):
        data = json.loads(out)
        keys = (("kind", "value", "window", "margin") if verb == "degree"
                else ("dims", "poly_degree", "poly_from"))
        ans.update({k: data[k] for k in keys})
    elif verb in ("six-term", "tilde-axioms"):
        ans["line"] = out.strip()
    elif verb in ("diff", "kappa", "shift", "dk-reconstruct"):
        ans.update(_functor_file(prepared[prepared.index("--out") + 1]))
    elif verb == "alpha":
        data = json.loads(out)
        ans.update({"N": data["N"], "profiles": profiles(
            FISharpModule.from_json(data).levels)})
    elif verb == "dk-decompose":
        with open(prepared[prepared.index("--out") + 1]) as fh:
            reps = SymRepList.from_json(json.load(fh))
        ans["profiles"] = profiles([r.module for r in reps.reps])
    elif verb == "tilde-hom":
        if "--json" in argv:
            ans["classes"] = len(json.loads(out)["classes"])
        else:
            ans["classes"] = int(out.split(None, 1)[0])
    return ans


def _arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _dims(profiles) -> list[int]:
    return [p[0] for p in profiles]


def _alpha_dims(entry: str):
    return {"P(1)": lambda n: n + 1,
            "P(2)": lambda n: n * (n - 1) + 2 * n + 1,
            "ex_upm_A": lambda n: comb(n, 2) + n + 1,
            "ex_upm_F": lambda n: comb(n, 2) + n + 1}.get(entry)


def closed_form(query: dict, ans: dict) -> bool | None:
    """True or False where a closed form decides the answer, else None."""
    if query["kind"] == "dk-chain":
        dims = rep_dims(query["blocks"])
        want = [sum(comb(n, k) * dims[k] for k in range(n + 1))
                for n in range(len(dims))]
        return (ans["equivalent"] and ans["natural"] and ans["levelwise_iso"]
                and ans["sharp_natural"] and _dims(ans["profiles"]) == want
                and _dims(ans["back"]) == dims)
    argv = query["argv"]
    verb = argv[0]
    if ans["rc"] != 0:
        return None
    entry = next((a[len("corpus:"):] for a in argv
                  if a.startswith("corpus:")), None)
    if verb == "tilde-hom":
        a, b = int(argv[-2]), int(argv[-1])
        if _arg(argv, "--cat") == "theta":
            want = sum(comb(a, k) * comb(b, k) * factorial(k)
                       for k in range(min(a, b) + 1))
        else:
            want = factorial(a) // factorial(a - b) if a >= b else 0
        return ans["classes"] == want
    if verb == "degree" and "--strong" in argv and entry and \
            entry.startswith("P(") and ans["window"] is not None:
        return ans["value"] == int(entry[2:-1])
    if verb == "alpha" and entry and _alpha_dims(entry) and \
            _arg(argv, "--coeff") != "Z":
        f = _alpha_dims(entry)
        return _dims(ans["profiles"]) == [f(n) for n in range(ans["N"] + 1)]
    if verb == "dk-decompose":
        d = int(entry[len("free_sharp("):-1])
        want = [factorial(d) // factorial(d - k) if k <= d else 0
                for k in range(int(_arg(argv, "--N")) + 1)]
        return _dims(ans["profiles"]) == want
    if verb == "dk-reconstruct":
        dims = rep_dims(argv[1].split(":", 3)[3])
        want = [sum(comb(n, k) * dims[k] for k in range(n + 1))
                for n in range(len(dims))]
        return _dims(ans["profiles"]) == want
    return None


def is_correct(query: dict, ans: dict, reference: dict) -> bool:
    """Closed form where one applies, and the recorded answer where one
    exists; a query with neither cannot be checked and counts as wrong."""
    verdict = closed_form(query, ans)
    recorded = reference.get(key(query))
    if recorded is not None and recorded != ans:
        return False
    if verdict is None and recorded is None:
        return False
    return verdict is not False
