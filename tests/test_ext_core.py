"""ExtSpace dimensions on the source's core window, against the full-window complex.

dim() and hom_dim() rank δ¹ and δ⁰ of the complex restricted to the
source's core (Rep.core_window; the proof is in the ExtSpace
docstring).  Every pair below is checked against nvars - rank δ¹ - rank δ⁰
and nslots - rank δ⁰ of the whole window (δ⁰ from conftest.FullWindowExt),
and the nonzero spaces against the number of class representatives.
"""

import random

import pytest

from conftest import LABELS, FullWindowExt, catalog_keys, core_ends, graded_dual
from test_abcat import chain_objects, loop_objects, random_hereditary_pairs
from uniserial import abcat, weylcat
from uniserial.abcat import ExtSpace, direct_sum
from uniserial.gradedrep import simple_rep, validate
from uniserial.linalg import ZERO, Scalar, parse_scalar, rank_rows
from uniserial.weylcat import CatalogKey, catalog_module, default_window, weyl_simple_family

BASES = LABELS + ("0", "inf")


def checked_spaces(pairs):
    """The ExtSpace of each pair, its two dimensions checked against the full complex."""
    spaces = []
    for x, y in pairs:
        space = ExtSpace(x, y)
        got = (space.dim(), space.hom_dim())
        ref = FullWindowExt(space)
        full = (space.nvars - rank_rows(space._d1, space.nvars) - ref.rank_d0, ref.nslots - ref.rank_d0)
        assert got == full, (x, y, got, full)
        spaces.append(space)
    return spaces


def nonzero_with_reps(spaces):
    """The spaces with nonzero Ext, each checked to have one class representative per dimension."""
    nonzero = [space for space in spaces if space.dim()]
    for space in nonzero:
        assert len(space.reps) == space.dim(), (space.x, space.y)
    return nonzero


def twist_table(window):
    sources = [m for _, m in weyl_simple_family(BASES, [0], window)]
    targets = [m for _, m in weyl_simple_family(BASES, range(-2, 3), window)]
    return [(x, y) for x in sources for y in targets]


@pytest.mark.parametrize("window", [(-6, 6), (-8, 8), (-10, 10)])
def test_the_twist_table_matches_the_full_complex(window):
    assert len(nonzero_with_reps(checked_spaces(twist_table(window)))) == 4


def test_catalog_pairs_and_their_duals_match_the_full_complex():
    objs = [catalog_module(key, default_window(3)) for key in catalog_keys(3) + catalog_keys(2, (-1, 1))]
    duals = [graded_dual(m) for m in objs]
    assert all(validate(m) == [] for m in objs + duals)
    spaces = checked_spaces((x, y) for x in objs for y in objs)
    spaces += checked_spaces((x, y) for x in duals for y in duals)
    # representatives for the twist-0 pairs with n <= 2 only: those of the n = 3 modules are the slow part
    small = {m for key, m in zip(catalog_keys(3), objs) if key.n <= 2}
    small |= {graded_dual(m) for m in small}
    assert sum(space.dim() > 0 for space in spaces) >= 100
    assert len(nonzero_with_reps(s for s in spaces if {s.x, s.y} <= small)) >= 20


@pytest.mark.parametrize("window,core", [((3, 9), (3, 4)), ((-9, -3), (-4, -3))])
def test_windows_with_every_arrow_invertible_match_the_full_complex(window, core):
    objs = [simple_rep(alpha, twist, window) for alpha in LABELS for twist in range(-2, 3)]
    assert all(core_ends(m) == core for m in objs)
    assert len(nonzero_with_reps(checked_spaces((x, y) for x in objs for y in objs))) == len(objs)


WIDE = ((("0", -3), ("inf", 2)), (("inf", -3), ("0", 1)), (("0", -2), ("0", 2)),
        (("inf", -1), ("inf", 3)), (("0", 3), ("inf", -3)), (("0", -1), ("inf", 1)))


def wide_core_sources(window):
    """Direct sums of two boundary simples at separated twists: the sources whose cores carry relations."""
    return [direct_sum(simple_rep(k1, s1, window), simple_rep(k2, s2, window)).obj for (k1, s1), (k2, s2) in WIDE]


def test_wide_core_sources_match_the_full_complex():
    # the only sources here whose core complex has relations; dropping them,
    # or letting in those at the core's end weights, changes these dims
    window = (-8, 8)
    sums = wide_core_sources(window)
    widths = [len(x.core_window()[0]) for x in sums]
    assert min(widths) >= 4 and all(x.core_window()[2] for x in sums), widths
    simples = [simple_rep(kind, twist, window) for kind in ("0", "inf") for twist in range(-3, 4)]
    objs = sums + simples
    assert len(nonzero_with_reps(checked_spaces((x, y) for x in sums for y in objs))) >= 20
    assert len(nonzero_with_reps(checked_spaces((y, x) for x in sums for y in simples))) >= 10


def test_window_growth_changes_neither_ext_nor_hom():
    keys = catalog_keys(3)
    for x_key in keys:
        for y_key in keys:
            lo, hi = default_window(max(x_key.n, y_key.n))
            dims = set()
            for window in ((lo, hi), (lo - 2, hi + 2)):
                space = ExtSpace(catalog_module(x_key, window), catalog_module(y_key, window))
                dims.add((space.dim(), space.hom_dim()))
            assert len(dims) == 1, (x_key, y_key, dims)


def test_dimensions_build_no_full_window_system_and_rank_no_wider_than_the_core(monkeypatch):
    widths = []
    real = abcat.rank_rows

    def counted(rows, ncols):
        widths.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(abcat, "rank_rows", counted)
    window = (-10, 10)
    half, zero, inf = (simple_rep(base, 0, window) for base in (LABELS[0], "0", "inf"))
    pairs = [(half, half), (zero, inf)] + [(x, x) for x in wide_core_sources((-8, 8))]
    for x, y in pairs:
        space = ExtSpace(x, y)
        dims = (space.dim(), space.hom_dim())
        assert not {"index", "nvars", "nslots", "_d0", "_d1"} & set(vars(space))
        slots, edges = x.core_window()[:2]
        core_cols = max(len(abcat._slot_layout(x, y, slots)), len(abcat._edge_layout(x, y, edges)))
        # one rank of δ⁰ and one of δ¹, both on the core, for the two dimensions
        assert len(widths) == 2 and max(widths) <= core_cols, (widths, core_cols)
        widths.clear()
        if y is half:
            # two weights of 1 x 1 maps against 20 edges of the window
            assert dims == (1, 1) and core_cols == 2 and space.nvars == 40
        elif y is inf:
            assert dims == (1, 0)


# -- the class callers on the core against the full-window reference -------------


def classes_match_the_full_window(space, rng, cocycles=()):
    """The space's reps, class_coords and zero-class verdicts against conftest.FullWindowExt.

    The vectors are the given cocycles and each plus a random coboundary,
    the representatives, a pure coboundary and a random class plus a
    random coboundary.  Returns the verdicts (nonzero class) in that order.
    """
    full = FullWindowExt(space)
    assert space.reps == full.reps, (space.x, space.y)

    def plus_coboundary(vec):
        h = tuple(Scalar(rng.randint(-2, 2)) for _ in range(full.nslots))
        return tuple(a + b for a, b in zip(vec, full.coboundary(h)))

    zero = tuple([ZERO] * space.nvars)
    combo = space.class_from_coords(tuple(Scalar(rng.randint(-2, 2)) for _ in full.reps)).vector
    vectors = [*cocycles, *map(plus_coboundary, cocycles), *full.reps, plus_coboundary(zero), plus_coboundary(combo)]
    verdicts = []
    for vec, coords in zip(vectors, full.class_coords(vectors)):
        assert space.class_coords(vec) == coords, (space.x, space.y, vec)
        ranks = space.coboundary_ranks(vec)
        verdicts.append(ranks[0] > ranks[1])
        assert verdicts[-1] == (full.augmented_rank(vec) > full.rank_d0), (space.x, space.y, vec)
    return verdicts


def test_class_callers_match_the_full_window_on_the_catalog_and_its_duals():
    # the n <= 4 modules against the simples and every pair with n <= 2; on the
    # larger pairs the full-window reference is the slow part of the suite
    rng = random.Random(53)
    keys = catalog_keys(4)
    count = 0
    for x_key in keys:
        for y_key in keys:
            if min(x_key.n, y_key.n) > 1 and max(x_key.n, y_key.n) > 2:
                continue
            window = default_window(max(x_key.n, y_key.n))
            x, y = catalog_module(x_key, window), catalog_module(y_key, window)
            for a, b in ((x, y), (graded_dual(y), graded_dual(x))):
                count += any(classes_match_the_full_window(ExtSpace(a, b), rng))
    assert count >= 40


@pytest.mark.parametrize("window", [(-8, 8), (-10, 10)])
def test_class_callers_match_the_full_window_on_the_twist_table(window):
    rng = random.Random(59)
    verdicts = [classes_match_the_full_window(ExtSpace(x, y), rng) for x, y in twist_table(window)]
    assert sum(map(any, verdicts)) == 4


@pytest.mark.parametrize("pad,twists", [(0, (0, 1, -2)), (6, (0,))])
def test_class_callers_match_the_full_window_on_the_towers(pad, twists):
    rng = random.Random(61)
    for alpha in (LABELS[0], parse_scalar("2/3"), LABELS[1]):
        for n in range(2, 6):
            for twist in twists:
                lo, hi = default_window(n)
                window = (lo - pad, hi + pad)
                key = CatalogKey("euler", alpha, None, n, twist)
                space, vec = weylcat._tower_cocycle(
                    key, catalog_module(key, window), simple_rep(alpha, twist, window), window, 2
                )
                # the tower and the tower plus a coboundary are nonzero, the pure coboundary is zero
                verdicts = classes_match_the_full_window(space, rng, [vec])
                assert verdicts[:2] == [True, True] and not verdicts[-2]


def test_class_callers_match_the_full_window_on_plain_reps():
    # with no core, R is the identity; the relations of the loop and the chain cut the cocycles
    rng = random.Random(67)
    pairs = [pair for _, _, x, y in random_hereditary_pairs() for pair in ((x, y), (y, x), (x, x))]
    pairs += [(a, b) for objs in (loop_objects(), chain_objects()) for a in objs for b in objs]
    assert all(x.core_window()[4] == () for x, _ in pairs)
    verdicts = [classes_match_the_full_window(ExtSpace(x, y), rng) for x, y in pairs]
    assert sum(map(any, verdicts)) >= 10


def test_verify_key_builds_no_full_window_differential(monkeypatch):
    calls = []
    real = abcat._differential

    def recorded(x, y, slots, edges):
        calls.append(tuple(edges) == tuple(x.core_window()[1]))
        return real(x, y, slots, edges)

    monkeypatch.setattr(abcat, "_differential", recorded)
    assert weylcat.verify_key(CatalogKey("euler", LABELS[0], None, 3), default_window(3)).ok
    assert calls and all(calls)


def test_a_vector_broken_outside_the_core_is_refused():
    # R sees the core edges only; the δ¹ check over the whole window refuses the vector
    window = default_window(3)
    key = CatalogKey("euler", LABELS[0], None, 3)
    space, vec = weylcat._tower_cocycle(key, catalog_module(key, window), simple_rep(LABELS[0], 0, window), window, 2)
    core = set(space.x.core_window()[1])
    k = next(k for (e, _, _), k in space.index.items() if e not in core)
    bad = vec[:k] + (vec[k] + Scalar(1),) + vec[k + 1 :]
    ranks = space.coboundary_ranks(vec)
    assert space._restrict(bad) == space._restrict(vec) and ranks[0] > ranks[1]
    for method in (space.class_coords, space.coboundary_ranks):
        with pytest.raises(ValueError, match="not a cocycle"):
            method(bad)


def test_lazy_values_are_computed_once_and_kept_on_the_instance(monkeypatch):
    calls = []
    real = abcat.rank_rows
    monkeypatch.setattr(abcat, "rank_rows", lambda rows, cols: calls.append(cols) or real(rows, cols))
    space = ExtSpace(simple_rep(LABELS[0], 0, (-4, 4)), simple_rep(LABELS[0], -1, (-4, 4)))
    assert "_core_dims" not in vars(space)
    dims = space.dim(), space.hom_dim()
    assert len(calls) == 2 and vars(space)["_core_dims"] == dims
    assert (space.dim(), space.hom_dim()) == dims and len(calls) == 2
    assert space.index is space.index and space.reps is space.reps
    assert ExtSpace._core_dims.__doc__ == "(dim Ext^1, dim Hom) from the two ranks of the core complex."
