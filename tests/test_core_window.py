"""The core window each source states, against the scan of its whole quiver.

Rep.core_window is the complex abcat solves Hom and ranks Ext^1 on.  A
GradedRep states it in closed form with its transport: the slots a..b, the
arrows ("t", w) for a <= w < b then ("p", w) for a < w <= b, the
relations at a < w < b, and the arrows hom_basis checks carried maps on,
("t", w) for w < a then ("p", w) for w > b.  reference_core_window finds
it by testing every arrow's ends and every relation's paths, so every
comparison below is exact, order included, on the sources of
test_hom_core.py and test_ext_core.py.
"""

import random

import pytest

from conftest import LABELS, catalog_keys, core_ends, graded_dual, reference_core_window
from test_hom_core import perturbed
from uniserial import abcat
from uniserial.abcat import direct_sum, hom_basis
from uniserial.gradedrep import GradedRep, simple_rep, validate
from uniserial.linalg import Matrix
from uniserial.quiverrep import KRONECKER, QuiverRep, simple_at
from uniserial.weylcat import catalog_module, default_window, weyl_simple_family

BASES = LABELS + ("0", "inf")


def assert_matches_the_scan(objs):
    for x in objs:
        assert x.core_window() == reference_core_window(x), x


def test_catalog_modules_and_their_duals():
    objs = [catalog_module(key, default_window(4)) for key in catalog_keys(4) + catalog_keys(2, (-1, 1))]
    window = default_window(3)
    cat = [catalog_module(key, window) for key in catalog_keys(3) + catalog_keys(2, (-1, 1))]
    objs += cat + [graded_dual(m) for m in cat]
    assert_matches_the_scan(objs)
    # every catalog core is two weights wide, so its relations slice is empty
    assert {len(x.core_window()[0]) for x in objs} == {2}


@pytest.mark.parametrize("window", [(-6, 6), (-8, 8), (-10, 10), (3, 9), (-9, -3)])
def test_simples_on_windows_with_and_without_weight_zero(window):
    # the boundary simples are zero on half the window, so some cores have zero-dimensional slots
    simples = [m for _, m in weyl_simple_family(BASES, range(-3, 4), window)]
    assert_matches_the_scan(simples)
    if 0 in range(window[0], window[1] + 1):
        assert any(0 in (s.slot_dim(a), s.slot_dim(b)) for s in simples for a, b in [core_ends(s)])


WIDE = ((("0", -3), ("inf", 2)), (("inf", -3), ("0", 1)), (("0", -2), ("0", 2)),
        (("inf", -1), ("inf", 3)), (("0", 3), ("inf", -3)), (("0", -1), ("inf", 1)))


def test_wide_cores_carry_their_inner_relations():
    # sums of two boundary simples at separated twists have cores four or more weights wide
    window = (-8, 8)
    sums = [direct_sum(simple_rep(k1, s1, window), simple_rep(k2, s2, window)).obj for (k1, s1), (k2, s2) in WIDE]
    assert_matches_the_scan(sums)
    for x in sums:
        slots, edges, relations, checks, transport = x.core_window()
        assert len(edges) == 2 * (len(slots) - 1) and len(relations) == len(slots) - 2 >= 2
        assert len(edges) + len(checks) + len(transport) == len(x.edge_ids())


def test_padded_windows():
    # the window-growth reruns: each catalog module on its default window and on two more weights each side
    for key in catalog_keys(3):
        lo, hi = default_window(key.n)
        objs = [catalog_module(key, (lo, hi)), catalog_module(key, (lo - 2, hi + 2))]
        assert_matches_the_scan(objs)
        assert objs[0].core_window()[:3] == objs[1].core_window()[:3]


def test_perturbed_sources():
    # a broken relation or a singular outer arrow moves the core; the window follows it
    rng = random.Random(17)
    cat = [catalog_module(key, default_window(3)) for key in catalog_keys(3)]
    broken = [b for b in (perturbed(m, rng) for m in cat for _ in range(3)) if validate(b)]
    assert len(broken) >= 30
    assert_matches_the_scan(broken)
    assert {core_ends(b) for b in broken} - {core_ends(m) for m in cat}


def test_sources_without_a_core_state_the_whole_quiver():
    one = GradedRep((2, 2), {2: 1}, {}, {})
    plain = [simple_at(KRONECKER, "1"), QuiverRep(KRONECKER, {"1": 1, "2": 1}, {})]
    for x in [one] + plain:
        assert x.core_window() == (x.slot_ids(), x.edge_ids(), x.relations(), (), ()) == reference_core_window(x)


def test_the_window_is_built_with_the_core_and_kept(monkeypatch):
    x = simple_rep(LABELS[0], 0, (-8, 8))
    # nothing is built on construction
    assert not hasattr(x, "_window")
    window = x.core_window()
    assert x.core_window() is window and core_ends(x) == (0, 1)
    checks = tuple(("t", w) for w in range(-8, 0)) + tuple(("p", w) for w in range(2, 9))
    assert window[:4] == ((0, 1), (("t", 0), ("p", 1)), (), checks)
    # the t arrows from b up, then the p arrows from a down; the window keeps no inverse
    outward = [("t", w) for w in range(1, 8)] + [("p", w) for w in range(0, -8, -1)]
    assert window[4] == tuple(outward)
    # abcat._carry inverts each of them, in that order, where it carries a map
    inverted, real = [], abcat.inverse
    monkeypatch.setattr(abcat, "inverse", lambda m: inverted.append((m, real(m))) or inverted[-1][1])
    assert len(hom_basis(x, x)) == 1
    assert len(inverted) == len(outward)
    assert all(m is x.edge_matrix(e) and inv * m == Matrix.identity(1) for (m, inv), e in zip(inverted, outward))
