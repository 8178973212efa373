"""The four query workloads and their seeded generator.

A workload is a fixed mix of rows.  Each row names one verb on one
coefficient ring and a list of candidate queries of similar cost; the
seed picks which candidates fill the row's slots and the order of the
whole pool.  So two seeds share the mix of verbs and rings and differ in
entries, sizes, input files and order.

Rows come in tiers.  Many cheap queries drawn from the seed hold the
median of latency; there are enough of them that the median falls well
inside their range of costs rather than at its edge.  A fixed heavy tail
of a seventh to a quarter of the pool holds the 90th percentile and most
of the time.  Both then stay put from seed to seed, which matters because
the run-to-run noise of a shared machine is already a large share of
the regression bounds.

A query is a plain dict:

* ``{"kind": "cli", "argv": [...]}`` -- one call of ``fcalc.cli.main``.
  The token ``@out`` stands for the run's output file, and a token
  ``@in:SPEC`` for an input file that set-up writes (see ``input_specs``).
* ``{"kind": "dk-chain", "coeff": c, "blocks": spec}`` -- the Dold-Kan
  round trip through the library (there is no CLI verb for it) on a
  random representation list.

Sizes are chosen so that a pass over a pool takes a few seconds and no
query more than about a second on a 2-core machine: the benchmark needs
hundreds of answers per run for its medians and percentiles to be steady.
"""
from __future__ import annotations

import hashlib
import json
import random
from math import comb

WORKLOADS = ("fi-Z", "fi-field", "dold-kan", "tilde")

FIELDS = ("Q", "F2", "F3")

# Entries whose queries take milliseconds at N <= 8 ...
LIGHT = ("const", "zgeq(1)", "zgeq(2)", "zgeq(3)", "atomic(1)", "atomic(2)",
         "atomics_upto(2)", "atomics_upto(3)", "sum_zgeq", "P(1)",
         "augmentation_kernel", "ex_upm_A")
# ... and the ones whose presentations grow with N.
MEDIUM = ("P(2)", "ex_upm_F")
# alpha stabilizes on these (the stably null ones raise WindowError).
ALPHA_LIGHT = ("const", "zgeq(1)", "zgeq(2)", "P(1)", "augmentation_kernel")


class Row:
    """``count`` slots filled from ``candidates`` (a list of queries), or
    by ``draw(rng)`` once per slot when the candidate space is not finite.
    Candidates are drawn without replacement while they last, which keeps
    the cost of a row closer to the same for every seed."""

    def __init__(self, count, candidates=None, draw=None):
        self.count = count
        self.candidates = candidates
        self.draw = draw

    def fill(self, rng) -> list[dict]:
        if self.draw is not None:
            return [self.draw(rng) for _ in range(self.count)]
        out = []
        while len(out) < self.count:
            out += rng.sample(self.candidates,
                              min(self.count - len(out), len(self.candidates)))
        return out


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def corpus_query(verb, entry, ring, N) -> dict:
    out = ("--out", "@out") if verb[0] in ("diff", "kappa", "shift") else ()
    return cli(*verb, f"corpus:{entry}", "--N", N, "--coeff", ring, *out)


def corpus_row(count, verb, entries, Ns, ring) -> Row:
    return Row(count, [corpus_query(verb, e, ring, N)
                       for e in entries for N in Ns])


def file_row(count, verb, specs) -> Row:
    return Row(count, [cli(*verb, f"@in:{s}") for s in specs])


DEGREE = (("degree", "--strong", "--json"), ("degree", "--weak", "--json"),
          ("degree", "--generation", "--json"))
DIMS = ("dims", "--json")
SIX = ("six-term",)
TRANSFORMS = (("diff",), ("kappa",), ("shift",))
ALPHA = ("alpha", "--json")


def _fi_rows(ring: str, scale: int) -> list[Row]:
    """The FI-module mix on one ring.  ``scale`` divides the light counts
    and thins the heavy rows, so that three rings together cost about what
    Z alone does.

    The light rows are drawn from the seed.  The heavy rows are fixed and
    make up about a sixth of the pool (every heavy Z query twice, every
    other heavy query once on a field), so that the 90th percentile of
    latency and most of the time fall on the same queries for every seed;
    they are where ``RowBasis.add`` and ``Coeff.normalize`` dominate."""
    def light(n):
        return 2 * max(n // scale, 1)

    rows = []
    for verb in DEGREE:
        rows.append(corpus_row(light(8), verb, LIGHT, (6, 7, 8), ring))
    rows.append(corpus_row(light(6), DIMS, LIGHT + MEDIUM, (6, 7, 8), ring))
    rows.append(corpus_row(light(5), SIX, LIGHT, (6, 7), ring))
    for verb in TRANSFORMS:
        rows.append(corpus_row(light(4), verb, LIGHT, (5, 6, 7), ring))
    rows.append(corpus_row(light(4), ALPHA, ALPHA_LIGHT, (5, 6), ring))
    # one query in five reads a file that set-up wrote
    specs = [f"{op}:{e}:{ring}:{N}" for op in ("diff", "kappa", "shift")
             for e in LIGHT for N in (6, 7)]
    specs += [f"emit:{e}:{ring}:{N}" for e in LIGHT for N in (7, 8)]
    for verb in DEGREE + (DIMS, SIX):
        rows.append(file_row(light(4), verb, specs))
    if scale == 1:
        rows += [Row(2, [q]) for q in HEAVY[ring]]
    else:
        rows += [Row(1, [q]) for q in HEAVY[ring][::2]]
    return rows


def _heavy(ring: str) -> list[dict]:
    p3 = 7 if ring != "Q" else 6
    return [
        corpus_query(DEGREE[0], "P(3)", ring, 7),
        corpus_query(DEGREE[1], "P(3)", ring, p3),
        corpus_query(DEGREE[2], "P(3)", ring, p3),
        corpus_query(SIX, "P(3)", ring, 6 if ring != "Q" else 5),
        corpus_query(("diff",), "P(3)", ring, 6),
        corpus_query(("shift",), "P(3)", ring, 6),
        corpus_query(SIX, "P(2)", ring, 7),
        corpus_query(SIX, "ex_upm_F", ring, 6),
        corpus_query(ALPHA, "P(2)", ring, 5),
        corpus_query(ALPHA, "P(2)", ring, 6),
        corpus_query(ALPHA, "ex_upm_A", ring, 6),
        corpus_query(ALPHA, "ex_upm_F", ring, 5),
        corpus_query(ALPHA, "P(1)", ring, 7),
        cli(*DEGREE[0], f"@in:diff:P(2):{ring}:7"),
        cli(*DEGREE[1], f"@in:shift:ex_upm_F:{ring}:7"),
    ]


HEAVY = {ring: _heavy(ring) for ring in ("Z",) + FIELDS}


# -- dold-kan --------------------------------------------------------------

def block_dim(block: str, k: int) -> int:
    """'t' is the trivial representation, 'n' the permutation one on k
    points (dimension max(k, 1))."""
    return 1 if block == "t" else max(k, 1)


def rep_dims(blocks: str) -> list[int]:
    """Per-degree dimensions of a block spec such as ``t/-/nt``."""
    return [sum(block_dim(b, k) for b in part.strip("-"))
            for k, part in enumerate(blocks.split("/"))]


def top_dim(blocks: str) -> int:
    dims = rep_dims(blocks)
    N = len(dims) - 1
    return sum(comb(N, k) * d for k, d in enumerate(dims))


def draw_blocks(rng: random.Random, N: int, lo: int, hi: int) -> str:
    """Random representation list of length N+1 (at most two blocks per
    degree, as in the acceptance suite) whose reconstruction has dimension
    in [lo, hi] at level N; the band keeps the cost of a row narrow."""
    while True:
        parts = ["".join(rng.choice("tn") for _ in range(rng.randint(0, 2)))
                 or "-" for _ in range(N + 1)]
        spec = "/".join(parts)
        if lo <= top_dim(spec) <= hi:
            return spec


def chain_row(count, coeff, N, lo, hi) -> Row:
    return Row(count, draw=lambda rng: {
        "kind": "dk-chain", "coeff": coeff,
        "blocks": draw_blocks(rng, N, lo, hi)})


def reconstruct_row(count, coeff, N, lo, hi) -> Row:
    return Row(count, draw=lambda rng: cli(
        "dk-reconstruct", f"@in:reps:{coeff}:{draw_blocks(rng, N, lo, hi)}",
        "--out", "@out"))


def decompose(d, N, coeff) -> dict:
    return cli("dk-decompose", f"corpus:free_sharp({d})", "--N", N,
               "--coeff", coeff, "--out", "@out")


def _dold_kan_rows() -> list[Row]:
    """Random representation lists in narrow bands of reconstructed size.
    Small lists make up most of the pool, so the median of latency falls
    among them for every seed: the cheapest (N = 2) below it and those of
    N = 3 and small decompositions around it.  A fixed heavy tail, each
    query twice, of about a seventh of the pool holds the 90th
    percentile."""
    rows = []
    for coeff in ("F2", "Q"):
        rows.append(chain_row(15, coeff, 2, 2, 8))
        rows.append(chain_row(10, coeff, 3, 4, 8))
        rows.append(Row(6, [decompose(d, N, coeff)
                            for d in (0, 1) for N in (3, 4)]))
        rows.append(chain_row(2, coeff, 4, 10, 16))
        rows.append(chain_row(1, coeff, 5, 5, 10))
        rows.append(reconstruct_row(1, coeff, 4, 10, 20))
        rows.append(Row(1, [decompose(2, N, coeff) for N in (3, 4)]))
        rows.append(Row(2, [decompose(3, 4, coeff)]))
        rows.append(Row(2, [decompose(2, 5, coeff)]))
    rows.append(Row(2, [{"kind": "dk-chain", "coeff": "Q",
                         "blocks": "t/t/t/nn/-"}]))
    rows.append(Row(2, [{"kind": "dk-chain", "coeff": "Q",
                         "blocks": "t/t/t/-/-/-"}]))
    return rows


# -- tilde -----------------------------------------------------------------

def _tilde_rows() -> list[Row]:
    """Small hom-sets make up most of the pool and hold the median of
    latency; larger hom-sets and axiom checks come next, drawn from the
    seed; a fixed heavy tail holds the 90th percentile.  theta-tilde
    axioms at bound 3 take about 2.7 s alone, so the mix stops at bound 2
    there; sigma-tilde goes up to bound 4."""
    def hom(cat, pairs, *extra):
        return [cli("tilde-hom", "--cat", cat, *extra, a, b) for a, b in pairs]

    theta_small = [(a, b) for a in range(3) for b in range(6)] + \
        [(3, 0), (3, 1)]
    sigma_small = [(a, b) for a in range(6) for b in range(a + 1)]
    theta_mid = [(3, 2), (3, 3), (3, 4), (3, 5), (4, 0), (4, 1)]
    sigma_mid = [(6, b) for b in range(7)]
    heavy = hom("theta", [(4, 2), (4, 3), (4, 4), (4, 5), (5, 0), (5, 1)]) \
        + hom("sigma", [(7, 0), (7, 1), (7, 2), (7, 3)]) \
        + hom("sigma", [(7, 7)], "--json") \
        + [cli("tilde-axioms", "--cat", "sigma", "--bound", 4)]
    return [
        Row(12, hom("theta", theta_small)),
        Row(3, hom("theta", theta_small, "--json")),
        Row(11, hom("sigma", sigma_small)),
        Row(3, hom("sigma", sigma_small, "--json")),
        Row(3, hom("theta", theta_mid)),
        Row(3, hom("sigma", sigma_mid)),
        Row(1, [cli("tilde-axioms", "--cat", "theta", "--bound", b)
                for b in (1, 2)]),
        Row(1, [cli("tilde-axioms", "--cat", "sigma", "--bound", b)
                for b in (2, 3)]),
    ] + [Row(1, [q]) for q in heavy]


def mix(workload: str) -> list[Row]:
    if workload == "fi-Z":
        return _fi_rows("Z", 1)
    if workload == "fi-field":
        return [row for ring in FIELDS for row in _fi_rows(ring, 3)]
    if workload == "dold-kan":
        return _dold_kan_rows()
    if workload == "tilde":
        return _tilde_rows()
    raise ValueError(f"unknown workload {workload!r}")


# Run once at set-up, before any timing: one cheap query per layer.
WARMUP = {
    "fi-Z": [cli("degree", "--json", "corpus:P(1)", "--N", 5, "--coeff", "Z"),
             cli("alpha", "--json", "corpus:P(1)", "--N", 5, "--coeff", "Z")],
    "fi-field": [cli("degree", "--json", "corpus:P(1)", "--N", 5,
                     "--coeff", c) for c in FIELDS],
    "dold-kan": [{"kind": "dk-chain", "coeff": "F2", "blocks": "t/n/nt"}],
    "tilde": [cli("tilde-hom", "--cat", "theta", 2, 2),
              cli("tilde-axioms", "--cat", "sigma", "--bound", 2)],
}


def generate(workload: str, seed: int) -> list[dict]:
    """The query pool for a seed: every row's slots filled, then shuffled.
    A string seed makes ``random`` independent of hash randomization."""
    rng = random.Random(f"{workload}:{seed}")
    pool = [q for row in mix(workload) for q in row.fill(rng)]
    rng.shuffle(pool)
    return pool


def key(query: dict) -> str:
    """Canonical text of a query: the reference key and the digest input."""
    if query["kind"] == "cli":
        return " ".join(query["argv"])
    return f"dk-chain {query['coeff']} {query['blocks']}"


def digest(pool: list[dict]) -> str:
    return hashlib.sha256(
        json.dumps([key(q) for q in pool]).encode()).hexdigest()[:16]


def input_specs(pool: list[dict]) -> list[str]:
    """The input files a pool reads, in first-use order."""
    out = []
    for q in pool:
        for a in q.get("argv", ()):
            if a.startswith("@in:") and a[4:] not in out:
                out.append(a[4:])
    return out


def candidates(workload: str) -> list[dict]:
    """Every query a finite row can draw (what the reference covers)."""
    seen, out = set(), []
    for row in mix(workload):
        for q in row.candidates or ():
            if key(q) not in seen:
                seen.add(key(q))
                out.append(q)
    return out
