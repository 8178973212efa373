"""The benchmark's own checks: a deterministic generator, a reference that
covers it, and a traced run whose counts repeat and whose self times add up
to the time measured around its queries.

    python3 -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

import run
import tracing
from answers import execute, prepare, reps_json
from fcalc import cattilde, fimod
from fcalc.exactlin import Coeff, Mat
from fcalc.exactlin.coeff import Z
from fcalc.exactlin.smith import RowBasis
from workloads import WORKLOADS, candidates, digest, generate, key, rep_dims

HERE = Path(__file__).resolve().parent


def signature(query: dict) -> tuple[str, str]:
    """(verb, ring) of a query: what two seeds must have equal counts of."""
    if query["kind"] == "dk-chain":
        return ("dk-chain", query["coeff"])
    argv = query["argv"]
    verb = " ".join(a for a in argv if a.startswith("--")
                    and a not in ("--N", "--coeff", "--out", "--cat",
                                  "--bound"))
    verb = f"{argv[0]} {verb}".strip()
    ring = "-"
    for i, a in enumerate(argv):
        if a == "--coeff":
            ring = argv[i + 1]
        elif a.startswith("@in:"):
            verb += " @file"
            ring = a.split(":")[-2] if a.startswith("@in:reps") \
                else a.split(":")[3]
        elif a == "--cat":
            ring = argv[i + 1]
    return (verb, ring)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_one_pool(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert digest(generate(workload, 7)) == digest(generate(workload, 7))


def test_pools_do_not_depend_on_hash_randomization():
    code = ("import workloads; print([workloads.digest("
            "workloads.generate(w, 3)) for w in workloads.WORKLOADS])")
    seen = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        seen.add(subprocess.run([sys.executable, "-c", code], cwd=HERE,
                                env=env, capture_output=True, text=True,
                                check=True).stdout)
    assert len(seen) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_keeps_the_mix(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert [key(q) for q in a] != [key(q) for q in b]
    assert digest(a) != digest(b)
    assert Counter(map(signature, a)) == Counter(map(signature, b))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_covers_every_candidate(workload):
    reference = json.loads((HERE / "reference.json").read_text())
    missing = [key(q) for q in candidates(workload) if key(q) not in reference]
    assert not missing


def test_representation_lists_have_the_spec_dimensions():
    data = reps_json("Q", "t/n/-/nt")
    assert [r["gens"] for r in data["reps"]] == rep_dims("t/n/-/nt") \
        == [1, 1, 0, 4]
    assert len(data["reps"][3]["sym"]) == 2


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END.values())
    assert spec["per_layer"] == tracing.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


QUERIES = [
    {"kind": "cli", "argv": ["degree", "--json", "corpus:P(2)", "--N", "5",
                             "--coeff", "Z"]},
    {"kind": "cli", "argv": ["alpha", "--json", "corpus:P(1)", "--N", "5",
                             "--coeff", "F2"]},
    {"kind": "cli", "argv": ["tilde-hom", "--cat", "theta", "2", "2"]},
    {"kind": "dk-chain", "coeff": "F2", "blocks": "t/n/nt"},
]


def test_run_seconds_is_fixed():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "tilde", "--seconds", "5"])
    assert exc.value.code == 2


def _traced_pass(tr, out):
    """The per-layer metrics of one traced pass over QUERIES, and the time
    measured around its queries outside the tracer."""
    tr.reset_counts()
    measured = 0.0
    for i, q in enumerate(QUERIES):
        prepared = prepare(q, {}, out)
        t0 = perf_counter()
        tr.query(i, execute, q, prepared)
        measured += perf_counter() - t0
    return tracing.layer_metrics(tr), measured


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    original = (fimod.diff, Mat.__matmul__, Coeff.normalize)
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        first, measured = _traced_pass(tr, str(tmp_path / "out.json"))
        second, _ = _traced_pass(tr, str(tmp_path / "out.json"))
    finally:
        uninstall()
    assert (fimod.diff, Mat.__matmul__, Coeff.normalize) == original
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["bench.query.calls"] == len(QUERIES)
    assert first["exactlin.coeff.normalize.calls"] > 0
    assert first["cattilde.tilde_hom.calls"] == 1
    # theta(2, 2) enumerates inj(2, 2 + t) for its 4 extra stages
    assert first["cattilde.tilde_hom.elements"] == 2 + 6 + 12 + 20 + 30
    self_sum = sum(v for k, v in first.items() if k.endswith(".self_s"))
    assert 0 < measured - self_sum < run.SPAN_SLACK * measured
    assert {k for k in first} | {"trace.answers", "trace.total_s",
                                 "trace.answers_per_s",
                                 "trace.overhead_ratio"} == \
        {m["name"] for m in tracing.metric_specs()}


def test_max_bits_sees_the_hermite_basis_grow():
    vectors = [[6, 10, 15], [10, 15, 6], [15, 6, 10], [7, 3, 2]]
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        basis = RowBasis(Z, 3, track=True)
        tr.query(0, lambda: [basis.add(v) for v in vectors])
    finally:
        uninstall()
    bits = tracing.layer_metrics(tr)["exactlin.smith.max_bits"]
    assert bits >= tracing._bits(basis.rows + basis.combos) \
        > tracing._bits(vectors)


def test_tilde_hom_elements_are_the_stage_hom_sets():
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        # theta(0, 5) runs through stages 5..7 and also asks for hom(0, 1)
        tr.query(0, cattilde.tilde_hom, cattilde.THETA, 0, 5)
    finally:
        uninstall()
    assert tracing.layer_metrics(tr)["cattilde.tilde_hom.elements"] == 3
