"""The Fourier transform F of graded modules as a covariant oracle for Hom, Ext^1 and the Weyl catalog.

F is defined in conftest.fourier.  Unlike graded_dual it keeps the
direction of maps, so it checks the same answers from the other side of
the weight line.
"""

import random
from dataclasses import replace

from conftest import LABELS, FullWindowExt, catalog_keys, fourier
from uniserial import abcat, weylcat
from uniserial.abcat import ExtSpace, Morphism
from uniserial.gradedrep import simple_rep, validate
from uniserial.linalg import ONE, ZERO, Scalar, format_scalar, parse_scalar
from uniserial.weylcat import (
    CatalogKey,
    catalog_module,
    default_window,
    normalize_alpha,
    verify_theorem,
    weyl_simple_family,
)

SIMPLE_BASES = LABELS + ("0", "inf")


def fourier_key(key):
    """The catalog key whose module is F of key's module."""
    if key.kind == "word":
        return replace(key, beta={"0": "inf", "inf": "0"}[key.beta], twist=1 - key.twist)
    alpha, shift = normalize_alpha(-(key.alpha + ONE))
    return replace(key, alpha=alpha, twist=shift - key.twist)


def test_fourier_transform_gives_graded_modules():
    win = (-7, 7)
    mods = [catalog_module(key, win) for key in catalog_keys(4, twists=(0, 1))]
    mods += [m for _, m in weyl_simple_family(SIMPLE_BASES, (-1, 0, 1), win)]
    for m in mods:
        f = fourier(m)
        assert validate(f) == [] and f.window == win
        assert [f.slot_dim(w) for w in f.slot_ids()] == [m.slot_dim(w) for w in reversed(m.slot_ids())]


def test_fourier_keeps_hom_and_ext_of_simples():
    # all 144 ordered pairs of the 12 simples: the four labels at twists -1, 0 and 1
    simples = [m for _, m in weyl_simple_family(SIMPLE_BASES, (-1, 0, 1), (-6, 6))]
    images = [fourier(m) for m in simples]
    dims = []
    for x, fx in zip(simples, images):
        for y, fy in zip(simples, images):
            space, image = ExtSpace(x, y), ExtSpace(fx, fy)
            assert (space.hom_dim(), space.dim()) == (image.hom_dim(), image.dim()), (x, y)
            dims.append((space.hom_dim(), space.dim()))
    assert len(dims) == 144
    assert sum(h for h, _ in dims) == 12 and sum(e for _, e in dims) == 12


def test_fourier_carries_hom_bases():
    # (Fh)_w = h_{-w} intertwines Fx and Fy, and carries a basis onto a basis
    keys = [k for k in catalog_keys(3) if k.kind == "word" or k.alpha == LABELS[0]]
    win = default_window(3)
    mods = [catalog_module(k, win) for k in keys]
    for x in mods:
        for y in mods:
            fx, fy = fourier(x), fourier(y)
            maps = [Morphism(fx, fy, {w: h.mats[-w] for w in fx.slot_ids()}) for h in abcat.hom_basis(x, y)]
            assert len(maps) == len(abcat.hom_basis(fx, fy))


def test_fourier_maps_the_euler_catalog_onto_itself():
    # alpha -> normalize_alpha(-1 - alpha), e.g. 1/2 -> 1/2 and 1/3+1/2*i -> 2/3-1/2*i at twist 2,
    # and the Re alpha = 0 label 1/2*i -> -1/2*i at twist 1
    images = {}
    for alpha in LABELS + (parse_scalar("1/2*i"),):
        for n in range(1, 5):
            for twist in (0, 1):
                key = CatalogKey("euler", alpha, None, n, twist)
                win = default_window(n + 1)
                image = fourier_key(key)
                assert abcat.find_isomorphism(fourier(catalog_module(key, win)), catalog_module(image, win)), key.describe()
                images[format_scalar(alpha), twist] = (format_scalar(image.alpha), image.twist)
    assert images == {
        ("1/2", 0): ("1/2", 2),
        ("1/2", 1): ("1/2", 1),
        ("1/3+1/2*i", 0): ("2/3-1/2*i", 2),
        ("1/3+1/2*i", 1): ("2/3-1/2*i", 1),
        ("1/2*i", 0): ("-1/2*i", 1),
        ("1/2*i", 1): ("-1/2*i", 0),
    }


def test_fourier_swaps_the_word_modules():
    # 0 <-> inf, with twist s -> 1 - s
    for n in range(1, 5):
        win = default_window(n + 1)
        for beta in ("0", "inf"):
            for twist in (0, 1):
                key = CatalogKey("word", None, beta, n, twist)
                image = fourier(catalog_module(key, win))
                assert abcat.find_isomorphism(image, catalog_module(fourier_key(key), win)), key.describe()
                assert not abcat.find_isomorphism(image, catalog_module(replace(key, twist=1 - twist), win))


def fourier_cocycle(space, vec):
    """(ExtSpace(Fx, Fy), F of the cocycle vector): F relabels a correction as it does an edge matrix.

    The middle object of c has edge matrices [[Y_e, c_e], [0, X_e]], so F
    of it has the correction c_("p", -w) at ("t", w) and -c_("t", -w) at
    ("p", w), and it is the extension of Fx by Fy.
    """
    fspace = ExtSpace(fourier(space.x), fourier(space.y))
    flip = {"t": ("p", ONE), "p": ("t", -ONE)}
    fvec = [ZERO] * fspace.nvars
    for ((kind, w), i, j), k in fspace.index.items():
        old, sign = flip[kind]
        fvec[k] = sign * vec[space.index[((old, -w), i, j)]]
    return fspace, tuple(fvec)


def test_fourier_keeps_the_zero_class_verdicts_of_the_towers():
    # the tower, the tower plus a coboundary and a pure coboundary; coboundary_ranks
    # also checks that each image is a cocycle on the whole negated window
    rng = random.Random(71)
    verdicts = []
    for alpha in LABELS:
        for n in range(2, 5):
            key = CatalogKey("euler", alpha, None, n)
            window = default_window(n)
            big, simple = catalog_module(key, window), simple_rep(alpha, 0, window)
            space, vec = weylcat._tower_cocycle(key, big, simple, window, 2)
            full = FullWindowExt(space)
            cob = full.coboundary([Scalar(rng.randint(-2, 2)) for _ in range(full.nslots)])
            for v in (vec, tuple(a + b for a, b in zip(vec, cob)), cob):
                fspace, fv = fourier_cocycle(space, v)
                ranks, franks = space.coboundary_ranks(v), fspace.coboundary_ranks(fv)
                assert (ranks[0] > ranks[1]) == (franks[0] > franks[1]), (key.describe(), v)
                verdicts.append(ranks[0] > ranks[1])
    assert verdicts == [True, True, False] * 6


def test_verify_theorem_passes_on_the_labels_and_on_their_fourier_images():
    # 1/2 -> 1/2 and 1/3+1/2*i -> 2/3-1/2*i; the two runs make the same checks on each key
    images = tuple(fourier_key(CatalogKey("euler", alpha, None, 1)).alpha for alpha in LABELS)
    assert [format_scalar(a) for a in images] == ["1/2", "2/3-1/2*i"]
    names = []
    for alphas in (LABELS, images):
        report = verify_theorem(3, alphas=alphas)
        assert report.ok, report.failures()
        names.append([(r.key.kind, r.key.n, [name for name, _, _ in r.checks]) for r in report.results])
    assert names[0] == names[1] and len(names[0]) == 12
