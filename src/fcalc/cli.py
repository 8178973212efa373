"""Command line front end.

One file holds one functor (JSON); pipelines compose via --out, which
writes a verb's JSON output to the file instead of stdout.  Inputs are
file paths or ``corpus:NAME`` references built on the fly.  Exit codes:
0 success, 1 oracle failure, 2 input error.  FCALC_MARGIN overrides the
default stability margin of 2 where a margin is used: alpha and the weak
degree.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cattilde import CatError, TildeHom, category, tilde_hom, verify_axioms
from .corpus import ORACLES, build, list_entries, run_oracles
from .exactlin import ExactLinError, Mat
from .fimod import (
    FunctorError, TruncFIModule, WindowError, diff, dim_profile, kappa,
    generation_degree, shift, strong_degree, verify_six_term, weak_degree,
)
from .fisharp import (
    FISharpModule, SymRepList, alpha, dold_kan_decompose, dold_kan_reconstruct,
    eta_restrict,
)


class InputError(Exception):
    pass


def default_margin() -> int:
    raw = os.environ.get("FCALC_MARGIN")
    if raw is None:
        return 2
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"FCALC_MARGIN must be an integer, got {raw!r}")


def build_entry(name: str, N: int | None, coeff: str | None):
    """The corpus entry NAME at truncation N (default 10) over coeff
    (default Z)."""
    n = N if N is not None else 10
    c = coeff or "Z"
    try:
        return build(name, c, n)
    except (FunctorError, ValueError) as exc:
        raise InputError(f"cannot build corpus:{name}: {exc}")


def load_functor(ref: str, N: int | None, coeff: str | None):
    """A file path, or corpus:NAME built at the requested size.  A file
    carries its own N and ring, so N and coeff must be None for one.  A
    representation list is checked to hold actions of the symmetric
    groups (``SymRep.verify``)."""
    if ref.startswith("corpus:"):
        return build_entry(ref[len("corpus:"):], N, coeff)
    try:
        with open(ref) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {ref}")
    except OSError as exc:
        raise InputError(f"cannot read {ref}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {ref} at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise InputError(f"invalid functor data in {ref}: the top level must "
                         f"be a JSON object, got {type(data).__name__}")
    given = [flag for flag, value in (("--N", N), ("--coeff", coeff))
             if value is not None]
    if given:
        raise InputError(f"{', '.join(given)} apply to corpus: inputs only; "
                         f"{ref} carries its own N and ring")
    try:
        if "proj" in data:
            return FISharpModule.from_json(data)
        if "reps" in data:
            reps = SymRepList.from_json(data)
        else:
            return TruncFIModule.from_json(data)
    except (FunctorError, KeyError, ValueError) as exc:
        raise InputError(f"invalid functor data in {ref}: {exc}")
    # a representation list must hold actions of the symmetric groups
    for rep in reps.reps:
        bad = rep.verify()
        if bad:
            raise InputError(f"invalid representation list in {ref}: "
                             f"degree {rep.degree}: {'; '.join(bad)}")
    return reps


_escape = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__
# the items of a list that are joined into one piece each
_NESTED = (list, tuple, dict, Mat)


def _write(o, nl: str, out: list, piece: bool = False):
    """Append to ``out`` the pieces of the text that the standard
    ``json`` module writes for ``o`` with an indent of 1, its lines
    continued by ``nl`` (a newline and the current indent).

    A ``Mat`` is written as its dense rows of scalar strings would be,
    from its sparse rows (``_write_mat``), and a ``TildeHom`` as the dict
    ``{"domain": [..], "values": [..]}`` of its partial map, in one piece
    (``_class_text``).  A list of only strings is one join over json's C
    escaper, and a list of only ints one join too.  A list, dict, ``Mat``
    or ``TildeHom`` that is an item of a list, such as a level, a matrix,
    one level's matrices or a class, is joined into one piece; what it
    holds is written into that piece (``piece`` true) and not joined
    again.  ``o`` is what fcalc builds:
    str keys; str, int, bool and None values; lists, tuples, dicts,
    matrices and classes.  Anything else, a float or a non-str key among
    them, raises TypeError."""
    if isinstance(o, str):
        out.append(_escape(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(_int_repr(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + " "
        sep = "," + inner
        first = type(o[0])
        if first is str:
            try:
                out += ("[", inner, sep.join(map(_escape, o)), nl, "]")
                return
            except TypeError:  # not only strings
                pass
        elif first is int and bool not in map(type, o):
            try:
                out.append(_int_list(o, nl))
                return
            except TypeError:
                pass
        lead = "[" + inner
        for x in o:
            if type(x) is TildeHom:  # one piece, with no list to join
                out.append(lead + _class_text(x, inner))
            elif piece or not isinstance(x, _NESTED):
                out.append(lead)
                _write(x, inner, out, piece)
            else:
                part = [lead]
                _write(x, inner, part, True)
                out.append("".join(part))
            lead = sep
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + " "
        lead = "{" + inner
        for k, v in o.items():
            out += (lead, _escape(k), ": ")
            lead = "," + inner
            _write(v, inner, out, piece)
        out.append(nl + "}")
    elif isinstance(o, Mat):
        _write_mat(o, nl, out)
    elif isinstance(o, TildeHom):
        out.append(_class_text(o, nl))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        f"is not JSON serializable")


def _write_mat(m: Mat, nl: str, out: list):
    """Append the text json writes for the dense rows of ``m``, each
    entry its ``scalar_str`` (``"0"`` for a zero), one string per row.
    The text of an all-``"0"`` row of m's width is made once; a row is
    that text with its nonzero entries spliced in.  Every ``"0"`` has the
    same width, so the j-th sits at a fixed offset, ``first + j * step``."""
    if not m.nrows:
        out.append("[]")
        return
    inner = nl + " "
    entry = inner + " "
    zero = ("[" + entry + '"0"' + ("," + entry + '"0"') * (m.ncols - 1)
            + inner + "]") if m.ncols else "[]"
    first, step = len(entry) + 2, len(entry) + 4
    s = m.coeff.scalar_str
    lead, sep = "[" + inner, "," + inner
    for row in m.sparse_rows():
        if row:
            parts = [lead]
            at = 0
            for j, x in row:
                cut = first + j * step
                parts += (zero[at:cut], s(x))
                at = cut + 1
            parts.append(zero[at:])
            out.append("".join(parts))
        else:
            out += (lead, zero)
        lead = sep
    out.append(nl + "]")


def _class_text(h: TildeHom, nl: str) -> str:
    """The text json writes for ``{"domain": [..], "values": [..]}``,
    the partial map of the class ``h`` (``TildeHom.as_partial``)."""
    dom, vals = h.as_partial()
    inner = nl + " "
    return (f'{{{inner}"domain": {_int_list(dom, inner)},'
            f'{inner}"values": {_int_list(vals, inner)}{nl}}}')


def _int_list(v, nl: str) -> str:
    """The text json writes for the list of ints ``v``."""
    if not v:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join(map(_int_repr, v)) + nl + "]"


# the characters of pieces joined into one write to a line-buffered stream
_CHUNK = 1 << 16


def _chunks(parts: list):
    """The pieces joined in order into strings of at least _CHUNK
    characters each, but the last: a line-buffered stream flushes on every
    write that holds a newline, so it gets one write per chunk."""
    chunk, size = [], 0
    for part in parts:
        chunk.append(part)
        size += len(part)
        if size >= _CHUNK:
            yield "".join(chunk)
            chunk, size = [], 0
    if chunk:
        yield "".join(chunk)


def emit(data: dict, out: str | None):
    """Write the text of ``json.dumps(data, indent=1)`` and a newline to
    the file ``out``, or to stdout when it is None.  The pieces of
    ``_write`` go to the stream's ``writelines`` as they are, so the whole
    text is never one string; a line-buffered stdout, a terminal, gets
    them joined into chunks (``_chunks``).  A TypeError is raised before
    anything is written; a file that cannot be written is an InputError."""
    parts = []
    _write(data, "\n", parts)
    parts.append("\n")
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror}")
    elif getattr(sys.stdout, "line_buffering", False):
        sys.stdout.writelines(_chunks(parts))
    else:
        sys.stdout.writelines(parts)


def as_fi(module) -> TruncFIModule:
    if isinstance(module, FISharpModule):
        return eta_restrict(module)
    if isinstance(module, TruncFIModule):
        return module
    raise InputError("this command needs an FI- or FI#-module input")


def cmd_verify(args) -> int:
    module = load_functor(args.input, args.N, args.coeff)
    if isinstance(module, SymRepList):
        raise InputError("verify expects a functor, not a representation list")
    bad = module.verify()
    if bad:
        for line in bad:
            print(f"violation: {line}")
        return 2
    print(f"ok: all structural invariants hold on [0, {module.N}]")
    return 0


def cmd_degree(args) -> int:
    if args.margin is not None and not args.weak:
        raise InputError("--margin applies to degree --weak only")
    F = as_fi(load_functor(args.input, args.N, args.coeff))
    if args.weak:
        margin = args.margin if args.margin is not None else default_margin()
        rep = weak_degree(F, margin)
        kind = "weak"
    elif args.generation:
        rep = generation_degree(F)
        kind = "generation"
    else:
        rep = strong_degree(F)
        kind = "strong"
    if args.json or args.out:
        emit({"kind": kind, "value": rep.value, "window": rep.window,
              "margin": rep.margin}, args.out)
    else:
        body = f"{kind} degree = {rep.value}"
        if rep.window is not None:
            body += f", window [{rep.window[0]},{rep.window[1]}]"
        print(body)
    return 0


def cmd_transform(args) -> int:
    # looked up when the verb runs, not when the parser was built, so a
    # rebinding of diff, shift or kappa in this module takes effect
    op = {"diff": diff, "shift": shift, "kappa": kappa}[args.verb]
    F = as_fi(load_functor(args.input, args.N, args.coeff))
    emit(op(F, args.x).to_json(), args.out)
    return 0


def cmd_dims(args) -> int:
    F = as_fi(load_functor(args.input, args.N, args.coeff))
    prof = dim_profile(F)
    if args.json or args.out:
        emit({"profiles": prof.profiles, "dims": prof.dims, "diffs": prof.diffs,
              "poly_degree": prof.poly_degree, "poly_from": prof.poly_from},
             args.out)
        return 0
    print("level:", " ".join(f"{n:>4}" for n in range(F.N + 1)))
    print("dim:  ", " ".join(f"{d:>4}" for d in prof.dims))
    for k, row in enumerate(prof.diffs[1:], start=1):
        print(f"d^{k}:  ", " ".join(f"{d:>4}" for d in row))
    if prof.poly_degree is not None:
        print(f"polynomial of degree <= {prof.poly_degree} from level "
              f"{prof.poly_from} on (window evidence)")
    return 0


def cmd_six_term(args) -> int:
    F = as_fi(load_functor(args.input, args.N, args.coeff))
    ok = verify_six_term(F)
    print(f"six-term exactness on [0, {F.N - 2}]: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_dk_decompose(args) -> int:
    module = load_functor(args.input, args.N, args.coeff)
    if not isinstance(module, FISharpModule):
        raise InputError("dk-decompose needs an FI#-module (with proj data)")
    reps = dold_kan_decompose(module)
    emit(reps.to_json(), args.out)
    return 0


def cmd_dk_reconstruct(args) -> int:
    data = load_functor(args.input, None, None)
    if not isinstance(data, SymRepList):
        raise InputError("dk-reconstruct needs a representation list "
                         '(JSON with "reps")')
    module = dold_kan_reconstruct(data, args.N)
    emit(module.to_json(), args.out)
    return 0


def cmd_alpha(args) -> int:
    F = as_fi(load_functor(args.input, args.N, args.coeff))
    margin = args.margin if args.margin is not None else default_margin()
    res = alpha(F, margin)
    if args.json or args.out:
        emit(res.module.to_json(), args.out)
    else:
        profiles = [m.invariant_factors() for m in res.module.levels]
        print("level profiles:", profiles)
    print(f"alpha certified on [0, {res.module.N}] "
          f"(input window [0, {F.N}], margin {margin})", file=sys.stderr)
    return 0


def cmd_tilde_hom(args) -> int:
    cat = category(args.cat)
    classes = tilde_hom(cat, args.a, args.b)
    if args.json or args.out:
        emit({"cat": cat.name, "a": args.a, "b": args.b,
              "classes": classes}, args.out)
        return 0
    print(f"{len(classes)} classes in {cat.name}-tilde({args.a}, {args.b}):")
    for h in classes:
        print(h.listing())
    return 0


def cmd_tilde_axioms(args) -> int:
    cat = category(args.cat)
    report = verify_axioms(cat, args.bound)
    print(report)
    return 0 if report.ok else 1


def cmd_corpus(args) -> int:
    if args.action != "emit":
        given = [flag for flag, value in (("--N", args.N),
                                          ("--coeff", args.coeff),
                                          ("--out", args.out))
                 if value is not None]
        if given:
            raise InputError(f"corpus {args.action} takes no "
                             f"{', '.join(given)}")
    if args.action == "list":
        if args.name is not None:
            raise InputError(f"corpus list takes no name, got {args.name!r}")
        for name in list_entries():
            spec = ORACLES[name]
            print(f"{name:24} coeff {spec['coeff']:3} N {spec['N']:3} "
                  f"({len(spec['facts'])} oracles)")
        return 0
    if args.action == "emit":
        if not args.name:
            raise InputError("corpus emit needs a name")
        emit(build_entry(args.name, args.N, args.coeff).to_json(), args.out)
        return 0
    # "check", the last of the parser's choices
    names = list_entries() if args.name in (None, "all") else [args.name]
    failed = False
    for name in names:
        report = run_oracles(name)
        for line in report.lines():
            print(line)
        failed = failed or not report.ok
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later
    ``main`` in the process; parsing keeps no state between calls."""
    ap = argparse.ArgumentParser(
        prog="fcalc",
        description="exact calculus for truncated functors on finite sets "
                    "and injections")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, writes_json=True, coeff=True):
        p.add_argument("input", help="functor JSON file or corpus:NAME")
        p.add_argument("--N", type=int, default=None,
                       help="truncation for corpus builds")
        if coeff:
            p.add_argument("--coeff", default=None, help="Z, Q, F2, F<p>")
        if writes_json:
            p.add_argument("--out", default=None,
                           help="write JSON output here")
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")

    p = sub.add_parser("verify", help="check the structural invariants")
    common(p, writes_json=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("degree", help="strong / weak / generation degree")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strong", action="store_true")
    group.add_argument("--weak", action="store_true")
    group.add_argument("--generation", action="store_true")
    p.add_argument("--margin", type=int, default=None)
    p.set_defaults(fn=cmd_degree)

    for verb in ("diff", "shift", "kappa"):
        p = sub.add_parser(verb, help=f"apply {verb} and emit the result")
        common(p)
        p.add_argument("--x", type=int, default=1)
        p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("dims", help="dimension profile and difference table")
    common(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("six-term", help="verify the kernel-cokernel six-term "
                                        "exact sequence")
    common(p, writes_json=False)
    p.set_defaults(fn=cmd_six_term)

    p = sub.add_parser("dk-decompose", help="cross-effect decomposition of an "
                                            "FI#-module")
    common(p)
    p.set_defaults(fn=cmd_dk_decompose)

    p = sub.add_parser("dk-reconstruct", help="assemble an FI#-module from "
                                              "representations")
    # the ring is the representation list's own
    common(p, coeff=False)
    p.set_defaults(fn=cmd_dk_reconstruct)

    p = sub.add_parser("alpha", help="stabilized translation colimit (to FI#)")
    common(p)
    p.add_argument("--margin", type=int, default=None)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("tilde-hom", help="morphism classes of the nullified "
                                         "category")
    p.add_argument("--cat", default="theta", help="theta or sigma")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_tilde_hom)

    p = sub.add_parser("tilde-axioms", help="category axioms of the "
                                            "nullification, exhaustively")
    p.add_argument("--cat", default="theta")
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(fn=cmd_tilde_axioms)

    p = sub.add_parser("corpus", help="list / emit / check worked examples")
    p.add_argument("action", choices=["list", "emit", "check"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--coeff", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (WindowError, FunctorError, CatError, ExactLinError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
