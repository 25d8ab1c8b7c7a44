"""Nakayama algebras as a closed-form oracle for species.classify.

The oracle.  Let A = kQ/I where Q is a line 1 -> 2 -> ... -> m or a cycle
1 -> 2 -> ... -> m -> 1 (a loop when m = 1) and I is generated by zero
relations, paths of length at least 2.  Every node has at most one arrow
in and one arrow out, so the Ext table of the simples passes the
Amdal-Ringdal criterion and A is a Nakayama algebra.  Its indecomposables
are known in closed form (Auslander-Reiten-Smalo, Representation Theory of
Artin Algebras, IV.2): they are the truncated projectives P_i / rad^n P_i
for 1 <= n <= c_i, where c_i, the i-th entry of the Kupisch series, is the
number of nonzero paths that start at node i.  P_i / rad^n P_i has as basis
the nonzero paths from i of length < n, and an arrow sends a path to the
path followed by that arrow, or to 0 when that path is zero or too long.

So classify(s, family, n, start=i) over the simples of A returns exactly
one object when n <= c_i and none otherwise, and that object is isomorphic
to P_i / rad^n P_i.  The species sees only the arrows; the c_i are the
obstruction data that it cannot see.  Here c_i is counted by string
matching, with no Hom solve: the path of length k from i is nonzero when no
relation's arrow sequence occurs in it.

The converse.  One more arrow makes a double arrow, a fan-out or a fan-in,
unless it closes a line into a cycle.  The Ext table of the simples then
breaks the criterion with that shape, read off the arrow list, and the
construction of criterion 4 builds from the shape's labels a module of
length 3 that is indecomposable and not uniserial: the quotient of two
non-isomorphic extensions by their common socle, the fiber product of two
extensions over their common top, or the pushout of two under their common
socle.
"""

import random

from uniserial import abcat
from uniserial.linalg import ONE, ZERO, Matrix
from uniserial.quiverrep import QuiverPresentation, QuiverRep, simple_at
from uniserial.species import classify, species_of, uc_check

N_MAX = 5


def random_nakayama(rng):
    """(presentation, the one arrow leaving each node or None) of a random line or cycle with zero relations.

    Arrows are single letters, so a path is the string of its arrows.
    """
    m = rng.randint(1, 3)
    nodes = [str(k) for k in range(1, m + 1)]
    cycle = rng.random() < 0.5
    arrows = [("abc"[k], nodes[k], nodes[(k + 1) % m]) for k in range(m if cycle else m - 1)]
    leaving = {node: None for node in nodes}
    for name, src, tgt in arrows:
        leaving[src] = (name, tgt)
    relations = set()
    for _ in range(rng.randint(0, 2)):
        start = rng.choice(nodes)
        path = walk(leaving, start, rng.randint(2, N_MAX - 1))
        if path is not None:
            relations.add((start, path))
    rels = [(start, walk_end(leaving, start, path), ((ONE, tuple(path)),)) for start, path in sorted(relations)]
    return QuiverPresentation(nodes, arrows, rels), leaving


def walk(leaving, start, length):
    """The arrow string of the path of that length from start, or None if the quiver has none."""
    path, here = "", start
    for _ in range(length):
        if leaving[here] is None:
            return None
        name, here = leaving[here]
        path += name
    return path


def walk_end(leaving, start, path):
    here = start
    for _ in path:
        here = leaving[here][1]
    return here


def nonzero_paths(pres, leaving, start, limit):
    """The nonzero paths from start of length < limit, shortest first."""
    killed = ["".join(path) for _, _, ((_, path),) in pres.relation_list]
    out = []
    for length in range(limit):
        path = walk(leaving, start, length)
        if path is None or any(r in path for r in killed):
            break
        out.append(path)
    return out


def truncated_projective(pres, leaving, start, n):
    """P_start / rad^n P_start, built from the nonzero paths alone."""
    basis = nonzero_paths(pres, leaving, start, n)
    at = {node: [p for p in basis if walk_end(leaving, start, p) == node] for node in pres.nodes}
    mats = {}
    for name, src, tgt in pres.arrows:
        rows = [[ONE if p + name == q else ZERO for p in at[src]] for q in at[tgt]]
        mats[name] = Matrix(len(at[tgt]), len(at[src]), rows)
    return QuiverRep(pres, {node: len(paths) for node, paths in at.items()}, mats)


def test_classify_on_nakayama_algebras_follows_the_kupisch_series():
    rng = random.Random(13)
    counted = built = widest = 0
    for _ in range(120):
        pres, leaving = random_nakayama(rng)
        family = tuple((node, simple_at(pres, node)) for node in pres.nodes)
        s = species_of(family)
        for start in pres.nodes:
            c = len(nonzero_paths(pres, leaving, start, N_MAX + 1))
            for n in range(1, N_MAX + 1):
                found = classify(s, family, n, start=start)
                assert len(found) == (1 if n <= c else 0), (pres, start, n, c)
                counted += 1
                if found:
                    p = truncated_projective(pres, leaving, start, n)
                    assert abcat.find_isomorphism(found[0].obj, p) is not None, (pres, start, n)
                    built += 1
                    widest = max(widest, *p.dims.values())
    # the seed reaches both verdicts, and slots of dimension above 1
    assert counted > built > 0 and widest > 1


def expected_pattern(pres, leaving, src, tgt):
    """The shape that uc_check reports once the arrow src -> tgt joins the quiver, read off the arrows."""
    if leaving[src] is not None and leaving[src][1] == tgt:
        return ("double arrow", src, tgt)
    if leaving[src] is not None:
        return ("fan-out", src, *sorted((leaving[src][1], tgt)))
    entering = [a for _, a, b in pres.arrows if b == tgt]
    if entering:
        return ("fan-in", *sorted((entering[0], src)), tgt)
    return ()


def criterion_4_witness(pattern, simple):
    """The length-3 module that criterion 4 builds for a double arrow, a fan-out or a fan-in."""
    shape, *labels = pattern
    if shape == "double arrow":
        a, b = labels
        u_cls, v_cls = abcat.ext1_basis(simple[a], simple[b])
        u_obj, u_inj, _ = abcat.realize_extension(u_cls)
        v_obj, v_inj, _ = abcat.realize_extension(v_cls)
        ds = abcat.direct_sum(u_obj, v_obj)
        diag = (ds.inj1 * u_inj) + (ds.inj2 * v_inj)
        spaces = {s: abcat.column_space_basis(diag.mats[s].columns(), ds.obj.slot_dim(s)) for s in ds.obj.slot_ids()}
        return abcat.quotient_object(ds.obj, spaces)[0]
    if shape == "fan-out":
        a, b, c = labels
        (xi1,), (xi2,) = abcat.ext1_basis(simple[a], simple[b]), abcat.ext1_basis(simple[a], simple[c])
        return abcat.fiber_product(abcat.realize_extension(xi1)[2], abcat.realize_extension(xi2)[2])[0]
    a, b, c = labels
    (eta1,), (eta2,) = abcat.ext1_basis(simple[a], simple[c]), abcat.ext1_basis(simple[b], simple[c])
    return abcat.amalgamated_sum(abcat.realize_extension(eta1)[1], abcat.realize_extension(eta2)[1])[0]


def test_one_more_arrow_breaks_the_criterion_and_criterion_4_builds_the_witness():
    rng = random.Random(34)
    shapes = set()
    for _ in range(200):
        pres, leaving = random_nakayama(rng)
        src, tgt = rng.choice(pres.nodes), rng.choice(pres.nodes)
        big = QuiverPresentation(pres.nodes, list(pres.arrows) + [("z", src, tgt)], pres.relation_list)
        family = tuple((node, simple_at(big, node)) for node in big.nodes)
        verdict = uc_check(species_of(family))
        assert verdict.pattern == expected_pattern(pres, leaving, src, tgt), (big, verdict)
        shapes.add(verdict.pattern[:1])
        if verdict.ok:
            continue
        x = criterion_4_witness(verdict.pattern, dict(family))
        assert abcat.total_dim(x) == 3 and abcat.is_indecomposable(x)[0], (big, verdict)
        assert not abcat.is_uniserial(x, family)[0], (big, verdict)
    assert shapes == {(), ("double arrow",), ("fan-out",), ("fan-in",)}
