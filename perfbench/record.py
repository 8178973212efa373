#!/usr/bin/env python3
"""Record reference.json: the answer to every query a workload can draw.

Run it on the commit whose answers are the reference (the seed of the
benchmark), from the repository root:

    python3 perfbench/record.py [workload ...] > times.txt

It prints each query's time, so the mixes can be kept cheap, and refuses
to record a query that fails or contradicts a closed form: the workloads
must contain neither.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from answers import answer, closed_form, execute, prepare, write_input  # noqa: E402
from workloads import WORKLOADS, candidates, input_specs, key  # noqa: E402


def main(argv) -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    bad = 0
    for workload in argv or WORKLOADS:
        queries = candidates(workload)
        with tempfile.TemporaryDirectory() as tmp:
            files = {}
            for i, spec in enumerate(input_specs(queries)):
                files[spec] = f"{tmp}/in{i}.json"
                write_input(spec, files[spec])
            for q in queries:
                prepared = prepare(q, files, f"{tmp}/out.json")
                t0 = perf_counter()
                raw = execute(q, prepared)
                ms = 1000 * (perf_counter() - t0)
                ans = answer(q, prepared, raw)
                if ans.get("rc", 0) != 0 or closed_form(q, ans) is False:
                    bad += 1
                    print(f"BAD {workload} {key(q)}: {ans}", file=sys.stderr)
                    continue
                reference[key(q)] = ans
                print(f"{ms:10.1f} {workload} {key(q)}", flush=True)
    path.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(reference[k])}"
        for k in sorted(reference)) + "\n}\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
