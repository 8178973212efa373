"""Reference computations that only the tests use: brute-force oracles
for the library's strategies, and a type-free text form of outputs for
digests."""
from itertools import permutations

from fcalc.exactlin import Mat, PresentedModule
from fcalc.fimod import TruncFIModule, insertion_map
from fcalc.fisharp import FISharpModule


def as_text(x):
    """x with every scalar replaced by ``str(x)``, through lists, tuples
    (both become lists) and dict values; booleans and None stay.  A digest
    of its ``repr`` pins values and not scalar types:
    ``str(Fraction(1)) == str(1)``, while ``repr`` tells them apart."""
    if isinstance(x, (list, tuple)):
        return [as_text(y) for y in x]
    if isinstance(x, dict):
        return {k: as_text(v) for k, v in x.items()}
    if x is None or isinstance(x, bool):
        return x
    return str(x)


def cross_effect_cokernel_profile(F: FISharpModule, k: int) -> list[int]:
    """The cross-effect computed by its cokernel description: level k
    modulo the images of all the one-point-omitting injections."""
    if k == 0:
        return F.levels[0].invariant_factors()
    lvl = F.levels[k]
    rels = lvl.rels
    for i in range(1, k + 1):
        # injection [k-1] -> [k] missing i: standard inclusion then the
        # cycle moving the new last point down to position i
        rels = rels.stack(insertion_map(F, i - 1, k - i).mat)
    return PresentedModule(F.coeff, lvl.gens, rels).invariant_factors()


def colimit_over_injections(F: TruncFIModule) -> PresentedModule:
    """Brute-force colimit of F over its whole window: one generator block
    per level, coequalizing every injection between any two levels.

    Reference oracle for the chain-of-coinvariants strategy in alpha; only
    usable for small windows (it enumerates all injections).
    """
    coeff = F.coeff
    offsets = []
    total = 0
    for m in F.levels:
        offsets.append(total)
        total += m.gens
    rel_rows = []
    zero = coeff.zero()
    for n, m in enumerate(F.levels):
        for row in m.rels.rows:
            out = [zero] * total
            out[offsets[n]:offsets[n] + m.gens] = row
            rel_rows.append(out)
    # enough to coequalize all injections n -> n+1: they generate
    for n in range(F.N):
        src, dst = F.levels[n], F.levels[n + 1]
        for image in permutations(range(1, n + 2), n):
            # the injection k -> image[k-1]: standard inclusion followed by
            # the permutation with that one-line image
            missing = next(x for x in range(1, n + 2) if x not in image)
            perm = tuple(image) + (missing,)
            mat = F.incl[n].mat @ F.perm_matrix(n + 1, perm)
            for g in range(src.gens):
                out = [zero] * total
                out[offsets[n] + g] = coeff.one()
                row = mat.rows[g]
                for j, x in enumerate(row):
                    out[offsets[n + 1] + j] = coeff.normalize(
                        out[offsets[n + 1] + j] - x)
                rel_rows.append(out)
    rels = Mat(coeff, len(rel_rows), total, tuple(tuple(r) for r in rel_rows)) \
        if rel_rows else Mat(coeff, 0, total, ())
    return PresentedModule(coeff, total, rels)


def compose_partial(a, b, c, pf, pg):
    """Composition of partial injections (domain, values) the naive way."""
    dom_f, val_f = pf
    dom_g, val_g = pg
    gmap = dict(zip(dom_g, val_g))
    dom, val = [], []
    for i, v in zip(dom_f, val_f):
        if v in gmap:
            dom.append(i)
            val.append(gmap[v])
    return tuple(dom), tuple(val)
