"""A mutation gate: each mutant edits one source file, and the test suite
must then fail.

Each entry of ``MUTANTS`` is (file, old, new, reason): ``old`` occurs
exactly once in ``file`` (a path from the repository root), and replacing
it by ``new`` makes the program wrong in the way ``reason`` says.  For
every entry the gate copies the repository, without ``.git`` and this
directory, to a temporary directory, applies the edit there and runs
``pytest -x -q`` in it, with the hypothesis profile ``mutants`` of
``tests/conftest.py``, which skips shrinking: a failing property test
fails on the first example it finds.  A failing run kills the mutant; a
passing one lets it survive, which means a missing test, or an
equivalent mutant whose entry should say why.
``tests/test_mutants.py``, which checks the anchors in Tier-1, is left
out of the copy, since every mutant breaks its own anchor.

    python3 mutants/run.py            # every mutant
    python3 mutants/run.py braid      # the mutants whose reason says "braid"
    python3 mutants/run.py writer -- tests/test_cli.py::TestWriter
                                      # ... against the named tests only

It prints one line per mutant, killed or survived, with its time and the
first test that failed, and exits 1 if any mutant survived.  Standard
library only; run it on demand, like perfbench, not in Tier-1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ANCHOR_TEST = "test_mutants.py"

CLI = "src/fcalc/cli.py"
FIMOD = "src/fcalc/fimod.py"
PRESENTED = "src/fcalc/exactlin/presented.py"
FISHARP = "src/fcalc/fisharp.py"
CATTILDE = "src/fcalc/cattilde.py"

MUTANTS = [
    (FIMOD,
     "        if not a.then(b).then(a).equals(b.then(a).then(b)):",
     "        if False:",
     "coxeter_violations drops the braid check"),
    (FIMOD,
     "            if not a.then(b).equals(b.then(a)):",
     "            if False:",
     "coxeter_violations drops the distant-commute check"),
    (PRESENTED,
     "        span = cokernel(f)[0].rel_span()",
     "        span = RowBasis(f.dst.coeff, f.dst.gens)\n"
     "        span.add_mat(f.mat)",
     "check_exact starts from an empty RowBasis: the image rows without "
     "the middle relations"),
    (PRESENTED,
     "    span = dst.rel_span().fork()",
     "    span = RowBasis(dst.coeff, dst.gens)",
     "image_in starts from an empty RowBasis: generators that are zero "
     "in dst are kept"),
    (FIMOD,
     "            span = lvl.rel_span().fork()",
     "            span = type(lvl.rel_span())(F.coeff, lvl.gens)",
     "generation_degree starts from an empty RowBasis: a level with "
     "relations is never spanned"),
    ("src/fcalc/exactlin/coeff.py",
     '            if code == f"F{p}":',
     "            if True:",
     "Coeff.parse drops the strict-code check: F03 reads as F3"),
    (FIMOD,
     "            return DegreeReport(applied - 1 if applied else NEG_INF, "
     "window, margin)",
     "            return DegreeReport(applied if applied else NEG_INF, "
     "window, margin)",
     "_degree answers one too high"),
    ("src/fcalc/exactlin/smith.py",
     "            q = x if self._field else x // piv",
     "            q = x if self._field else -(-x // piv)",
     "_reduce_above rounds its quotient up over Z"),
    (FIMOD,
     "    return all(F.unit_to(n, F.N).is_zero_map() for n in range(top + 1))",
     "    return all(F.unit_to(n, F.N).is_zero_map() for n in range(top + 2))",
     "is_stably_null checks one level more than its margin allows"),
    (CLI,
     "                cut = first + j * step",
     "                cut = first + j * step + 1",
     "the writer splices a matrix entry one character late"),
    (CLI,
     "        if row:\n            parts = [lead]",
     "        if False:\n            parts = [lead]",
     "the writer writes a nonzero matrix row as the zero row"),
    (CLI,
     "    if not m.nrows:\n",
     "    if not m.nrows or not m.ncols:\n",
     "the writer writes a k x 0 matrix as []"),
    (CATTILDE,
     "        self.has_step = bool(self.hom(0, 1))",
     "        self.has_step = True",
     "every category claims a map 0 -> 1: sigma takes theta's stage bound "
     "and inclusions"),
    (CATTILDE,
     'SIGMA = ConcreteSMC("sigma", _bijections, _preimages)',
     'SIGMA = ConcreteSMC("sigma", _bijections, _partial)',
     "sigma is built with theta's class invariant"),
    (CATTILDE,
     "            if unit is None or row[unit] != i:",
     "            if unit is None:",
     "verify_axioms drops the left-unit lookup"),
    (CATTILDE,
     "            if tilde_compose(f, ident[a]) != f:",
     "            if tilde_compose(f, ident[a]) is None:",
     "verify_axioms drops the right-unit comparison"),
    (PRESENTED,
     "        if not f.then(g).is_zero_map():",
     "        if False:",
     "check_exact drops the zero-composite test"),
    (FISHARP,
     "                and all(a.mat == b.mat for a, b in zip(self.proj, "
     "other.proj)))",
     "                )",
     "FI#-module equality ignores the projections"),
    (CATTILDE,
     "        return _partial(self.rep_map, self.b)",
     "        return _partial(self.rep_map, self.b)[::-1]",
     "the writer swaps a sigma class's domain and values"),
    (FISHARP,
     "        t = F.sym[n][a - 1] if b == a + 1 else",
     "        t = F.sym[n][a - 2] if b == a + 1 else",
     "moebius_idem conjugates by the wrong generator"),
    (FISHARP,
     "    E = epsilon_idem(F, n, I[:-1]).mat",
     "    E = epsilon_idem(F, n, I[1:]).mat",
     "moebius_idem starts from the wrong idempotent"),
    (FIMOD,
     "    rows = start.sparse_rows()",
     "    rows = Mat.identity(coeff, gens).sparse_rows()",
     "perm_action ignores its start rows"),
]


def apply(text: str, old: str, new: str) -> str:
    """text with its one occurrence of old replaced by new."""
    if text.count(old) != 1:
        raise ValueError(f"anchor occurs {text.count(old)} times: {old!r}")
    return text.replace(old, new)


def _skipped(folder: str, names: list[str]) -> set[str]:
    """What the copy leaves out: the gate itself, its anchor test, version
    control and the caches and outputs of earlier runs."""
    skip = {"__pycache__", ".hypothesis", ".pytest_cache", ANCHOR_TEST}
    if Path(folder) == ROOT:
        skip |= {".git", "mutants"}
    if Path(folder) == ROOT / "perfbench":
        skip.add("out")
    return skip.intersection(names)


def run_mutant(file: str, old: str, new: str,
               tests: list[str]) -> tuple[bool, float, str]:
    """(killed, seconds, first failing test) for one mutant, run against
    the given pytest arguments (the whole suite when there are none)."""
    with tempfile.TemporaryDirectory(prefix="fcalc-mutant-") as tmp:
        tmp = Path(tmp)
        shutil.copytree(ROOT, tmp, ignore=_skipped, dirs_exist_ok=True)
        path = tmp / file
        path.write_text(apply(path.read_text(), old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--hypothesis-profile", "mutants", *tests],
            cwd=tmp, env=env, capture_output=True, text=True)
        took = time.perf_counter() - start
    first = next((line for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED", "ERROR"))), "")
    return proc.returncode != 0, took, first


def main(argv: list[str]) -> int:
    """Run the mutants whose reason holds every word before ``--``, each
    against the pytest arguments after it."""
    words, tests = (argv[:argv.index("--")], argv[argv.index("--") + 1:]) \
        if "--" in argv else (argv, [])
    chosen = [m for m in MUTANTS if all(a in m[3] for a in words)]
    survived = 0
    for file, old, new, reason in chosen:
        killed, took, first = run_mutant(file, old, new, tests)
        survived += not killed
        verdict = "killed  " if killed else "SURVIVED"
        print(f"{verdict} {took:6.1f} s  {reason}", flush=True)
        if first:
            print(f"{'':17}{first}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
