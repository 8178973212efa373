"""Spans at fcalc's layer boundaries, recorded from outside the program.

``install`` wraps the public functions and methods listed in
``BOUNDARIES`` and binds each wrapper wherever a ``fcalc`` module bound
the original, because ``fimod`` and ``fisharp`` import ``exactlin``
names directly.  A span records its name, start, end, parent and query
id; spans stay in memory and ``write_spans`` writes them out at the end.

A span's self time is its duration minus the time its child spans cover.
The counters some boundaries add (bit lengths, nonzero products,
presentation sizes) are computed with tracing paused, inside a span of
their own, ``trace.counters``, so their cost is visible and stays out of
the layers' self times.  ``Coeff.normalize`` calls and the elements of
the hom-sets ``tilde_hom`` enumerates are counted inline, without a span.
"""
from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from collections import defaultdict
from itertools import chain
from time import perf_counter

from fcalc.cattilde import (
    ConcreteSMC, tilde_compose, tilde_hom, verify_axioms,
)
from fcalc.cli import emit, load_functor
from fcalc.corpus import build, build_sharp
from fcalc.exactlin.coeff import Coeff
from fcalc.exactlin.matrix import Mat
from fcalc.exactlin.presented import (
    check_exact, cokernel, factor_through, image_in, invert_iso,
    is_isomorphism, kernel,
)
from fcalc.exactlin.smith import RowBasis, left_kernel, snf_diagonal
from fcalc import fimod, fisharp

from answers import profiles

# span name -> the functions or methods it wraps
BOUNDARIES = {
    "cli.load_functor": [load_functor],
    "cli.emit": [emit],
    "corpus.build": [build],
    "corpus.build_sharp": [build_sharp],
    "exactlin.matrix.matmul": [(Mat, "__matmul__")],
    "exactlin.matrix.addsub": [(Mat, "__add__"), (Mat, "__sub__")],
    "exactlin.smith.rowbasis_add": [(RowBasis, "add")],
    "exactlin.smith.rowbasis_solve": [(RowBasis, "solve")],
    "exactlin.smith.left_kernel": [left_kernel],
    "exactlin.smith.snf_diagonal": [snf_diagonal],
    "exactlin.presented.kernel": [kernel],
    "exactlin.presented.cokernel": [cokernel],
    "exactlin.presented.image_in": [image_in],
    "exactlin.presented.factor_through": [factor_through],
    "exactlin.presented.is_isomorphism": [is_isomorphism],
    "exactlin.presented.invert_iso": [invert_iso],
    "exactlin.presented.check_exact": [check_exact],
    **{f"fimod.{name}": [getattr(fimod, name)] for name in (
        "diff", "kappa", "shift", "unit_map", "kernel_nat", "cokernel_nat",
        "strong_degree", "weak_degree", "generation_degree",
        "verify_six_term")},
    "fimod.perm_matrix": [(fimod.TruncFIModule, "perm_matrix")],
    "fimod.natmap_check": [(fimod.NatMap, "is_natural"),
                           (fimod.NatMap, "is_levelwise_iso")],
    **{f"fisharp.{name}": [getattr(fisharp, name)] for name in (
        "alpha", "epsilon_idem", "moebius_idem", "cross_effect",
        "cross_effect_inclusion", "dold_kan_reconstruct",
        "dold_kan_decompose", "dold_kan_witness")},
    "fisharp.symrep_perm_matrix": [(fisharp.SymRep, "perm_matrix")],
    "cattilde.tilde_hom": [tilde_hom],
    "cattilde.tilde_compose": [tilde_compose],
    "cattilde.verify_axioms": [verify_axioms],
}

ROOT = "bench.query"
COUNTERS = "trace.counters"

# counter name -> (unit, better), besides the calls and self time of spans
EXTRA = {
    "cli.emit.bytes": ("bytes", "lower"),
    "exactlin.coeff.normalize.calls": ("count", "lower"),
    "exactlin.matrix.matmul.dense_mults": ("count", "lower"),
    "exactlin.matrix.matmul.nonzero_ratio": ("ratio", "higher"),
    "exactlin.smith.rowbasis_add.grew_ratio": ("ratio", "higher"),
    "exactlin.smith.max_bits": ("bits", "lower"),
    "fimod.diff.out_gens": ("count", "lower"),
    "fimod.diff.gens_per_rank": ("ratio", "lower"),
    "fisharp.alpha.gens_per_rank": ("ratio", "lower"),
    "cattilde.tilde_hom.elements": ("count", "lower"),
}


def metric_specs() -> list[dict]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    specs = []
    for name in list(BOUNDARIES) + [ROOT, COUNTERS]:
        specs.append({"name": f"{name}.calls", "unit": "count",
                      "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s",
                      "better": "lower"})
    specs += [{"name": n, "unit": u, "better": b}
              for n, (u, b) in EXTRA.items()]
    specs += [{"name": "trace.answers", "unit": "count", "better": "higher"},
              {"name": "trace.total_s", "unit": "s", "better": "lower"},
              {"name": "trace.answers_per_s", "unit": "1/s",
               "better": "higher"},
              {"name": "trace.overhead_ratio", "unit": "ratio",
               "better": "lower"}]
    return specs


class Tracer:
    """Collects spans and counters while ``on``; a pass-through otherwise."""

    def __init__(self):
        self.on = False
        self.keep_spans = True
        self.spans = []
        self.qid = None
        self.hom_source = None  # (a, b, targets seen) in tilde_hom
        self._stack = []  # [span id, name, start, time covered by children]
        self._next_id = 0
        self.reset_counts()

    def reset_counts(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.root_s = 0.0

    def enter(self, name):
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def leave(self):
        end = perf_counter()
        sid, name, start, covered = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        parent = None
        if name == ROOT:
            self.root_s += dur
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if self.keep_spans:
            self.spans.append((sid, name, start, end, parent, self.qid))

    def query(self, qid, fn, *args):
        """Run one query as a root span with tracing on."""
        self.qid = qid
        self.on = True
        self.enter(ROOT)
        try:
            return fn(*args)
        finally:
            self.leave()
            self.on = False

    def counters(self, fn, *args):
        """Run bookkeeping with tracing paused, in a span of its own."""
        self.on = False
        self.enter(COUNTERS)
        try:
            fn(*args)
        finally:
            self.leave()
            self.on = True


def _bits(rows) -> int:
    flat = list(chain.from_iterable(rows))
    return max(max(flat, default=0), -min(flat, default=0)).bit_length()


def _sizes(prefix):
    def post(tr, args, kwargs, result):
        levels = (result.module if prefix == "fisharp.alpha"
                  else result).levels
        tr.count[f"{prefix}.out_gens"] += sum(m.gens for m in levels)
        # minimal generators: the dimension over a field, the free rank
        # plus the number of torsion factors over Z
        tr.count[f"{prefix}.min_gens"] += sum(
            p[0] + (0 if m.coeff.is_field else len(p) - 1)
            for m, p in zip(levels, profiles(levels)))
    return post


def _matmul_post(tr, args, kwargs, result):
    a, b = args[0], args[1]
    cols = [0] * a.ncols
    for row in a.rows:
        for j, x in enumerate(row):
            if x:
                cols[j] += 1
    tr.count["exactlin.matrix.matmul.dense_mults"] += \
        a.nrows * a.ncols * b.ncols
    tr.count["exactlin.matrix.matmul.nonzero_mults"] += sum(
        c * sum(1 for x in row if x) for c, row in zip(cols, b.rows) if c)


def _max_bits(tr, rows):
    bits = _bits(rows)
    if bits > tr.count["exactlin.smith.max_bits"]:
        tr.count["exactlin.smith.max_bits"] = bits


def _rowbasis_add_post(tr, args, kwargs, result):
    basis = args[0]
    tr.count["exactlin.smith.rowbasis_add.grew"] += bool(result)
    # the Hermite basis after the add, where integer growth shows; an add
    # that did not grow the lattice leaves its (unique) Hermite basis as it
    # was
    if result and basis.coeff.kind == Coeff.INTEGERS:
        _max_bits(tr, basis.rows)
        if basis.track:
            _max_bits(tr, basis.combos)


def _left_kernel_post(tr, args, kwargs, result):
    if result.coeff.kind == Coeff.INTEGERS:
        _max_bits(tr, result.rows)


def _snf_post(tr, args, kwargs, result):
    _max_bits(tr, [result])


POST = {
    "exactlin.matrix.matmul": _matmul_post,
    "exactlin.smith.rowbasis_add": _rowbasis_add_post,
    "exactlin.smith.left_kernel": _left_kernel_post,
    "exactlin.smith.snf_diagonal": _snf_post,
    "fimod.diff": _sizes("fimod.diff"),
    "fisharp.alpha": _sizes("fisharp.alpha"),
}


def _wrap(tr: Tracer, name: str, fn):
    post = POST.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        tr.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.leave()
        if post is not None:
            tr.counters(post, tr, args, kwargs, result)
        return result
    return traced


def _wrap_emit(tr: Tracer, fn):
    @functools.wraps(fn)
    def traced(data, out):
        if not tr.on:
            return fn(data, out)
        before = None if out else sys.stdout.tell()
        tr.enter("cli.emit")
        try:
            return fn(data, out)
        finally:
            tr.leave()
            tr.count["cli.emit.bytes"] += (
                sys.stdout.tell() - before if before is not None
                else os.path.getsize(out))
    return traced


def _wrap_normalize(tr: Tracer, fn):
    @functools.wraps(fn)
    def counted(self, x):
        if tr.on:
            tr.count["exactlin.coeff.normalize.calls"] += 1
        return fn(self, x)
    return counted


def _wrap_tilde_hom(tr: Tracer, fn):
    """``tilde_hom`` in a span, with its objects open for ``_wrap_hom``."""
    inner = _wrap(tr, "cattilde.tilde_hom", fn)

    @functools.wraps(fn)
    def traced(cat, a, b, *args, **kwargs):
        outer, tr.hom_source = tr.hom_source, (a, b, set())
        try:
            return inner(cat, a, b, *args, **kwargs)
        finally:
            tr.hom_source = outer
    return traced


def _wrap_hom(tr: Tracer, fn):
    """Counts the union-find entries of ``tilde_hom(cat, a, b)``: the
    elements of each distinct stage hom(a, b + t), t >= 0, that it
    enumerates."""
    @functools.wraps(fn)
    def counted(self, a, m):
        result = fn(self, a, m)
        source = tr.hom_source
        if tr.on and source is not None and a == source[0] \
                and m >= source[1] and m not in source[2]:
            source[2].add(m)
            tr.count["cattilde.tilde_hom.elements"] += len(result)
        return result
    return counted


def install(tr: Tracer):
    """Bind a wrapper for every boundary in every fcalc namespace; returns
    a function that puts the originals back."""
    modules = [m for n, m in sys.modules.items()
               if n == "fcalc" or n.startswith("fcalc.")]
    saved = []

    def bind(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for name, targets in BOUNDARIES.items():
        for target in targets:
            if isinstance(target, tuple):
                cls, attr = target
                bind(cls, attr, _wrap(tr, name, getattr(cls, attr)))
                continue
            wrapper = (_wrap_emit(tr, target) if name == "cli.emit"
                       else _wrap_tilde_hom(tr, target)
                       if name == "cattilde.tilde_hom"
                       else _wrap(tr, name, target))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is target:
                        bind(mod, attr, wrapper)
    bind(Coeff, "normalize", _wrap_normalize(tr, Coeff.normalize))
    bind(ConcreteSMC, "hom", _wrap_hom(tr, ConcreteSMC.hom))

    def uninstall():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
    return uninstall


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric of the spans and counters since the last
    ``reset_counts``."""
    c = tr.count
    out = {}
    for name in list(BOUNDARIES) + [ROOT, COUNTERS]:
        out[f"{name}.calls"] = tr.calls.get(name, 0)
        out[f"{name}.self_s"] = tr.self_s.get(name, 0.0)

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    for name in ("cli.emit.bytes", "exactlin.coeff.normalize.calls",
                 "exactlin.matrix.matmul.dense_mults", "exactlin.smith.max_bits",
                 "fimod.diff.out_gens", "cattilde.tilde_hom.elements"):
        out[name] = c[name]
    out["exactlin.matrix.matmul.nonzero_ratio"] = ratio(
        "exactlin.matrix.matmul.nonzero_mults",
        "exactlin.matrix.matmul.dense_mults")
    adds = tr.calls.get("exactlin.smith.rowbasis_add", 0)
    out["exactlin.smith.rowbasis_add.grew_ratio"] = (
        c["exactlin.smith.rowbasis_add.grew"] / adds if adds else 0.0)
    out["fimod.diff.gens_per_rank"] = ratio("fimod.diff.out_gens",
                                            "fimod.diff.min_gens")
    out["fisharp.alpha.gens_per_rank"] = ratio("fisharp.alpha.out_gens",
                                               "fisharp.alpha.min_gens")
    return out


def write_spans(tr: Tracer, path: str) -> None:
    """Gzipped, one JSON array per line: id, name, start, end, parent id,
    query id (the query's index in the pool)."""
    with gzip.open(path, "wt") as fh:
        for span in sorted(tr.spans):
            fh.write(json.dumps(span) + "\n")
