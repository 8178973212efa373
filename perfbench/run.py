#!/usr/bin/env python3
"""fcalc's benchmark.

One workload runs in one process as a single client in a closed loop: it
sends the next query only when the previous one has returned.  Every
answer is checked, outside the timed region, and the last line of
standard output is one JSON object with the end-to-end metrics (or, with
``--trace 1``, the per-layer ones).

    python3 perfbench/run.py --workload fi-Z --seed 1 --trace 0
    python3 perfbench/run.py --seed 1      # all four, one process each

Each workload measures for RUN_SECONDS, BENCHMARK.json's ``run_seconds``.

See perfbench/README.md for the workloads, the metrics and the spans.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# seconds one workload measures; the baseline was measured at this value
RUN_SECONDS = 20
# the share of a traced pass's measured time that spans may leave
# uncovered: the tracer's entry into and exit from each root span
SPAN_SLACK = 0.01

END_TO_END = {
    "answers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """One workload at one seed: set-up, then the timed loop."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        with open(HERE / "reference.json") as fh:
            self.reference = json.load(fh)
        self.dir = OUT / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.attempted = self.failed = self.wrong = 0
        self.errors = []
        self.per_query = {}

    def setup(self) -> float:
        """Import fcalc, draw the pool, write its input files and run the
        warm-up queries, once; returns the time this took."""
        assert "fcalc" not in sys.modules, "fcalc was imported before set-up"
        t0 = perf_counter()
        from answers import execute, prepare, write_input  # imports fcalc
        from workloads import WARMUP, digest, generate, input_specs
        self.pool = generate(self.workload, self.seed)
        self.dir.mkdir(parents=True)
        files = {}
        for i, spec in enumerate(input_specs(self.pool)):
            files[spec] = str(self.dir / f"in{i}.json")
            write_input(spec, files[spec])
        out = str(self.dir / "out.json")
        for q in WARMUP[self.workload]:
            execute(q, prepare(q, files, out))
        self.items = [(q, prepare(q, files, out)) for q in self.pool]
        elapsed = perf_counter() - t0
        self.digest = digest(self.pool)
        return elapsed

    def one_pass(self, call, deadline=None) -> list[float]:
        """Every query once (or until the deadline), through
        ``call(index, query, prepared)``; returns the latencies.  gc and
        checking stay outside the timing."""
        from answers import answer, is_correct
        from workloads import key
        latencies = []
        for i, (q, prepared) in enumerate(self.items):
            if deadline is not None and perf_counter() >= deadline:
                break
            gc.collect()
            t0 = perf_counter()
            try:
                raw = call(i, q, prepared)
            except Exception as exc:  # a failed query, counted below
                raw, exc_text = None, f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
            self.attempted += 1
            if raw is None:
                self._fail(q, exc_text)
                continue
            try:
                ans = answer(q, prepared, raw)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                ans = {"unreadable": f"{type(exc).__name__}: {exc}"}
            want_rc = self.reference.get(key(q), {}).get("rc", 0)
            if ans.get("rc", want_rc) != want_rc:
                self._fail(q, f"exit {ans['rc']}, reference {want_rc}: "
                              f"{raw[2].strip()[:200]}")
            elif "unreadable" in ans or not is_correct(q, ans,
                                                       self.reference):
                self.wrong += 1
                self.errors.append(f"wrong answer: {key(q)}: {ans}")
        return latencies

    def _fail(self, q, text):
        from workloads import key
        self.failed += 1
        self.errors.append(f"failed: {key(q)}: {text}")

    def measure(self) -> dict:
        """Cycle through the pool until the time is up.  The metrics take
        complete passes only, so every query of the pool weighs the same in
        every run; the pass the deadline cuts is checked but not measured,
        unless it is the only one."""
        from answers import execute
        n = len(self.pool)
        latencies, good = [], 0
        deadline = perf_counter() + RUN_SECONDS
        while perf_counter() < deadline:
            bad = self.failed + self.wrong
            one = self.one_pass(lambda i, q, p: execute(q, p), deadline)
            if len(one) == n or not latencies:
                latencies += one
                good += len(one) - (self.failed + self.wrong - bad)
        self.samples, self.passes = len(latencies), -(-len(latencies) // n)
        self.per_query = {i: 1000 * statistics.median(latencies[i::n])
                          for i in range(min(n, len(latencies)))}
        deciles = statistics.quantiles(latencies, n=10)
        return {
            "answers_per_s": good / sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * deciles[8],
        }

    def measure_traced(self) -> dict:
        """Pairs of an untraced and a traced pass until the time is up, and
        at least two.  Counts must repeat exactly in every traced pass, and
        the self times of each pass must sum to the latencies measured
        around its queries, outside the tracer, within the tracer's own
        bookkeeping."""
        from answers import execute
        from tracing import Tracer, install, layer_metrics, write_spans
        tr = Tracer()
        untraced = traced = 0.0
        per_pass = []
        deadline = perf_counter() + RUN_SECONDS
        while True:
            untraced += sum(self.one_pass(lambda i, q, p: execute(q, p)))
            uninstall = install(tr)
            tr.reset_counts()
            try:
                measured = sum(self.one_pass(
                    lambda i, q, p: tr.query(i, execute, q, p)))
            finally:
                uninstall()
            traced += measured
            metrics = layer_metrics(tr)
            self_sum = sum(v for k, v in metrics.items()
                           if k.endswith(".self_s"))
            if not 0 < measured - self_sum < SPAN_SLACK * measured:
                self.errors.append(f"self times sum to {self_sum} s, the "
                                   f"traced queries took {measured} s")
            metrics["trace.total_s"] = tr.root_s
            per_pass.append(metrics)
            tr.keep_spans = False
            if perf_counter() >= deadline and len(per_pass) >= 2:
                break
        first = per_pass[0]
        for later in per_pass[1:]:
            for k, v in first.items():
                if not k.endswith("_s") and later[k] != v:
                    self.errors.append(f"count {k} was {v}, then {later[k]}")
        OUT.mkdir(exist_ok=True)
        write_spans(tr, str(OUT / f"spans-{self.workload}-s{self.seed}.jsonl.gz"))
        self.samples, self.passes = len(per_pass) * len(self.pool), \
            2 * len(per_pass)
        out = dict(first)
        for k in first:
            if k.endswith("_s"):
                out[k] = statistics.fmean(p[k] for p in per_pass)
        good = len(per_pass) * len(self.pool) - self.failed - self.wrong
        out["trace.answers"] = len(self.pool)
        out["trace.answers_per_s"] = max(good, 0) / traced
        out["trace.overhead_ratio"] = traced / untraced - 1
        return out

    def results(self) -> dict:
        try:
            setup_s = self.setup()
            if self.trace:
                metrics = self.measure_traced()
            else:
                metrics = self.measure()
                metrics["setup_s"] = setup_s
                metrics["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        return metrics


def units(trace: bool) -> dict:
    if not trace:
        return END_TO_END
    from tracing import metric_specs
    return {m["name"]: m["unit"] for m in metric_specs()}


def run_one(args) -> int:
    from workloads import key
    run = Run(args.workload, args.seed, bool(args.trace))
    metrics = run.results()
    unit = units(bool(args.trace))
    correct = run.wrong == 0 and run.failed == 0 and not run.errors
    record = {
        "workload": run.workload, "seed": run.seed, "trace": args.trace,
        "pool": len(run.pool), "digest": run.digest, "passes": run.passes,
        "samples": run.samples, "wrong_answers": run.wrong,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "errors": run.errors[:20], "metrics": metrics,
        "median_ms": {key(run.pool[i]): ms
                      for i, ms in run.per_query.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{run.workload}-s{run.seed}-t{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    for line in run.errors[:20]:
        print(line, file=sys.stderr)
    shown = {k: metrics[k] for k in unit} if not args.trace else {
        k: metrics[k] for k in ("trace.answers_per_s", "trace.overhead_ratio",
                                "trace.total_s")}
    print(f"{run.workload} seed {run.seed}: pool {len(run.pool)} queries, "
          f"digest {run.digest}, {run.passes} passes, {run.samples} samples; "
          + ", ".join(f"{k} {v:.6g} {unit[k]}" for k, v in shown.items())
          + f", wrong_answers {run.wrong} count, failed_ratio "
          f"{record['failed_ratio']:.6g} ratio")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed + run.wrong,
        "metrics": {k: {"value": metrics[k], "unit": unit[k]} for k in unit},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then a table of the results."""
    from workloads import WORKLOADS
    worst = 0
    records = []
    for w in WORKLOADS:
        path = OUT / f"result-{w}-s{args.seed}-t{args.trace}.json"
        path.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print(lines[-2] if len(lines) > 1 else f"{w}: no result")
        worst = max(worst, done.returncode)
        if not path.exists():
            worst = max(worst, 2)
            continue
        with open(path) as fh:
            records.append(json.load(fh))
    if not args.trace and records:
        rows = [(f"{k} ({u})", [r["metrics"][k] for r in records])
                for k, u in END_TO_END.items()]
        rows += [(f"{k} ({u})", [r[k] for r in records])
                 for k, u in (("wrong_answers", "count"),
                              ("failed_ratio", "ratio"))]
        print(f"\n{'metric':22}" + "".join(f"{r['workload']:>12}"
                                           for r in records))
        for name, values in rows:
            print(f"{name:22}" + "".join(f"{v:12.4g}" for v in values))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None,
                    help="one of fi-Z, fi-field, dold-kan, tilde; all if "
                         "omitted, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS,
                    help=f"accepted only as {RUN_SECONDS}, the fixed time "
                         "each workload measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        ap.error(f"every run measures {RUN_SECONDS} s, so that its figures "
                 f"compare with the baseline; got --seconds {args.seconds}")
    if not (ROOT / "src" / "fcalc" / "__init__.py").is_file():
        print(f"fcalc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
