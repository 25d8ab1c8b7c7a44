"""hom_basis on the source's core window, against the full δ⁰ system.

A graded source solves Hom on its core (GradedRep.core_window), carries each
map outward along its invertible outer arrows, checks the carried maps and
puts them in kernel_basis's canonical form.  reference_hom_basis builds the
whole constraint system directly, so every comparison below is entry for
entry.  A recorder on abcat._hom_by_transport tells whether a call took the
core path or fell back to the full system.  The End certificate solves the
core alone and carries nothing, unless its source breaks a relation.
"""

import random

import pytest

from conftest import LABELS, catalog_keys, core_ends, graded_dual, reference_hom_basis
from test_abcat import chain_objects, loop_objects, random_hereditary_pairs
from test_ext_core import wide_core_sources
from uniserial import abcat
from uniserial.abcat import direct_sum, hom_basis, total_dim
from uniserial.gradedrep import GradedRep, simple_rep, validate
from uniserial.linalg import ZERO, Matrix, Scalar, rank, trace_product
from uniserial.quiverrep import KRONECKER, simple_at
from uniserial.weylcat import CatalogKey, catalog_module, default_window


@pytest.fixture
def core_calls(monkeypatch):
    """The results of every core solve hom_basis runs, None marking a fallback to the full system."""
    calls = []
    real = abcat._hom_by_transport

    def record(x, y, window):
        calls.append(real(x, y, window))
        return calls[-1]

    monkeypatch.setattr(abcat, "_hom_by_transport", record)
    return calls


def assert_matches_full_system(pairs):
    for x, y in pairs:
        assert hom_basis(x, y) == reference_hom_basis(x, y), (x, y)


def test_core_path_matches_the_full_system_on_the_catalog(core_calls):
    # every pair of catalog modules with n <= 4 at twist 0, and with n <= 2
    # at twists -1 and 1, on the window of the longest
    objs = [catalog_module(key, default_window(4)) for key in catalog_keys(4) + catalog_keys(2, (-1, 1))]
    assert all(validate(m) == [] for m in objs)
    assert_matches_full_system((x, y) for x in objs for y in objs)
    # modules that satisfy their relations never fall back
    assert len(core_calls) == len(objs) ** 2 and None not in core_calls
    assert {core_ends(x) for x in objs} == {(-2, -1), (-1, 0), (0, 1)}


def test_core_path_matches_the_full_system_on_duals_and_boundary_simples(core_calls):
    window = default_window(3)
    cat = [catalog_module(key, window) for key in catalog_keys(3)]
    duals = [graded_dual(m) for m in cat]
    # the boundary simples are zero on half the window, so their cores have zero-dimensional slots
    simples = [simple_rep(base, twist, window) for base in LABELS + ("0", "inf") for twist in (-1, 0, 1)]
    assert any(0 in (s.slot_dim(a), s.slot_dim(b)) for s in simples for a, b in [core_ends(s)])
    objs = cat + duals + simples
    assert_matches_full_system((x, y) for x in objs for y in objs)
    assert None not in core_calls


@pytest.mark.parametrize("window,core", [((3, 9), (3, 4)), ((-9, -3), (-4, -3)), ((-6, 6), (0, 1))])
def test_sources_with_every_arrow_invertible_take_two_adjacent_weights_inside_the_window(core_calls, window, core):
    # the two walks cross: the core is the pair nearest weight 0, clamped to the window's edges
    objs = [simple_rep(alpha, twist, window) for alpha in LABELS for twist in (-1, 0, 1)]
    objs += [catalog_module(CatalogKey("euler", alpha, None, 2), (-6, 6)) for alpha in LABELS if window == (-6, 6)]
    assert all(core_ends(m) == core for m in objs)
    assert_matches_full_system((x, y) for x in objs for y in objs)
    assert None not in core_calls


def perturbed(m, rng):
    """m with one entry of one seeded t or p matrix moved by a nonzero integer."""
    arrow = rng.choice([a for a, mat in m.mats.items() if mat.rows and mat.cols])
    mat = m.mats[arrow]
    i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
    rows = [list(mat.row(r)) for r in range(mat.rows)]
    rows[i][j] = rows[i][j] + Scalar(rng.choice((-2, -1, 1, 2)))
    return m.with_matrices(m.dims, {**m.mats, arrow: Matrix(mat.rows, mat.cols, rows)})


def test_a_broken_relation_falls_back_to_the_full_system(core_calls):
    rng = random.Random(17)
    window = default_window(3)
    cat = [catalog_module(key, window) for key in catalog_keys(3)]
    broken = [b for b in (perturbed(m, rng) for m in cat for _ in range(3)) if validate(b)]
    assert len(broken) >= 30
    assert_matches_full_system([(x, x) for x in broken] + [(x, y) for x in broken for y in cat[:4]])
    # the check catches the broken sources whose carried maps fail outside the core
    assert 0 < core_calls.count(None) < len(core_calls)


def test_window_growth_changes_neither_hom_nor_the_core():
    # the verdicts' windows: dim Hom and the source's core do not move when the window grows by 2
    keys = catalog_keys(3)
    for x_key in keys:
        for y_key in keys:
            lo, hi = default_window(max(x_key.n, y_key.n))
            dims, cores = set(), set()
            for window in ((lo, hi), (lo - 2, hi + 2)):
                x, y = catalog_module(x_key, window), catalog_module(y_key, window)
                dims.add(len(hom_basis(x, y)))
                cores.add(core_ends(x))
            assert len(dims) == len(cores) == 1, (x_key, y_key, dims, cores)


def test_end_of_the_longest_euler_module_solves_no_system_wider_than_its_core(monkeypatch):
    # End of the n = 3 Euler module on (-7, 7) is a 135-unknown δ⁰ system in
    # full; its core is two weights of 3 x 3 maps
    x = catalog_module(CatalogKey("euler", LABELS[0], None, 3), (-7, 7))
    widths = []
    real = abcat.kernel_basis

    def counted(m):
        widths.append(m.cols)
        return real(m)

    monkeypatch.setattr(abcat, "kernel_basis", counted)
    homs = hom_basis(x, x)
    monkeypatch.undo()
    assert widths and max(widths) <= 18, widths
    assert homs == reference_hom_basis(x, x) and len(homs) == 3


def all_slot_end_dims(x):
    """(dim End, dim rad End) from the trace form summed over every slot of x."""
    endos = hom_basis(x, x)
    n = len(endos)

    def trace(f, g):
        return sum((trace_product(f.mats[s], g.mats[s]) for s in x.slot_ids()), ZERO)

    return n, n - rank(Matrix(n, n, [[trace(f, g) for g in endos] for f in endos]))


def test_the_end_certificate_on_the_core_slots_matches_the_all_slot_trace_form():
    # End(x) acts faithfully on its core slots, so the trace form there has the same radical
    cat = [catalog_module(key, default_window(4)) for key in catalog_keys(4)]
    rng = random.Random(17)
    small = [catalog_module(key, default_window(3)) for key in catalog_keys(3)]
    broken = [b for b in (perturbed(m, rng) for m in small for _ in range(3)) if validate(b)]
    sums = [direct_sum(x, y).obj for x, y in zip(cat, cat[1:4] + cat[8:12])] + wide_core_sources((-8, 8))
    plain = [obj for *_, x, y in random_hereditary_pairs() for obj in (x, y)] + loop_objects() + chain_objects()
    objs = [x for x in cat + [graded_dual(m) for m in cat] + broken + sums + plain if total_dim(x)]
    dims = [abcat.end_algebra_dims(x) for x in objs]
    assert dims == [all_slot_end_dims(x) for x in objs]
    # local and split objects, with and without a radical
    assert {(end - rad == 1, rad > 0) for end, rad in dims} == {(a, b) for a in (True, False) for b in (True, False)}


def end_certificate_systems(monkeypatch, x):
    """(end_algebra_dims(x), the widths of the systems it hands to kernel_basis, its hom_basis and transport calls)."""
    widths, calls = [], []
    real = abcat.kernel_basis

    def counted(m):
        widths.append(m.cols)
        return real(m)

    monkeypatch.setattr(abcat, "kernel_basis", counted)
    for name in ("hom_basis", "_hom_by_transport"):
        monkeypatch.setattr(abcat, name, lambda *args, name=name: calls.append(name))
    dims = abcat.end_algebra_dims(x)
    monkeypatch.undo()
    return dims, widths, calls


def test_the_end_certificate_solves_the_core_and_carries_nothing(monkeypatch):
    # End of the n = 3 Euler module on (-7, 7) is one system on two weights
    # of 3 x 3 maps; the wide-core source's core carries relations
    euler = catalog_module(CatalogKey("euler", LABELS[0], None, 3), (-7, 7))
    wide = wide_core_sources((-8, 8))[0]
    assert wide.core_window()[2]
    for x, cols, end in ((euler, 18, (3, 2)), (wide, 22, all_slot_end_dims(wide))):
        slots, _, _, _, transport = x.core_window()
        assert transport and validate(x) == []
        dims, widths, calls = end_certificate_systems(monkeypatch, x)
        assert calls == [] and widths == [cols] and dims == end
        assert cols == len(abcat._slot_layout(x, x, slots)) < len(abcat._slot_layout(x, x, x.slot_ids()))


def test_the_end_certificate_of_a_source_that_breaks_a_relation_solves_the_whole_quiver(monkeypatch):
    # a core map of this source does not extend, so the core nullity (ExtSpace.hom_dim) exceeds dim End
    rng = random.Random(17)
    cat = [catalog_module(key, default_window(3)) for key in catalog_keys(3)]
    broken = [b for b in (perturbed(m, rng) for m in cat for _ in range(3)) if validate(b)]
    x = next(b for b in broken if abcat.ExtSpace(b, b).hom_dim() > len(hom_basis(b, b)))
    dims, widths, calls = end_certificate_systems(monkeypatch, x)
    assert calls == [] and widths == [len(abcat._slot_layout(x, x, x.slot_ids()))]
    assert dims == all_slot_end_dims(x)


def test_plain_reps_and_one_weight_windows_have_no_core(core_calls):
    # their core window is the whole quiver, with nothing to carry, so hom_basis solves the full system
    for x in (simple_at(KRONECKER, "1"), GradedRep((2, 2), {2: 1}, {}, {})):
        assert x.core_window()[3:] == ((), ())
        assert_matches_full_system([(x, x)])
    assert core_calls == []
