"""hom_basis on the source's core window, against the full δ⁰ system.

A graded source solves Hom on its core (GradedRep.core_window), carries each
map outward along its invertible outer arrows, checks the carried maps and
puts them in kernel_basis's canonical form.  reference_hom_basis builds the
whole constraint system directly, so every comparison below is entry for
entry.  A recorder on abcat._hom_by_transport tells whether a call took the
core path or fell back to the full system.  The End certificate solves the
core alone and carries nothing, unless its source breaks a relation.  The
isomorphism decider (abcat._isomorphic) answers on the core as well, and is
compared with reference_find_isomorphism.
"""

import random

import pytest

from conftest import (
    LABELS,
    catalog_keys,
    core_ends,
    graded_dual,
    reference_find_isomorphism,
    reference_hom_basis,
)
from test_abcat import chain_objects, loop_objects, random_hereditary_pairs
from test_ext_core import wide_core_sources
from test_nakayama import N_MAX, nonzero_paths, random_nakayama, truncated_projective
from uniserial import abcat, quiverrep, species
from uniserial.abcat import Morphism, direct_sum, hom_basis, total_dim
from uniserial.gradedrep import GradedRep, simple_rep, validate
from uniserial.linalg import ZERO, Matrix, Scalar, rank, trace_product
from uniserial.quiverrep import KRONECKER, simple_at
from uniserial.weylcat import CatalogKey, catalog_module, default_window, verify_key, weyl_simple_family


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


def assert_finds_what_the_basis_search_finds(pairs):
    """find_isomorphism against reference_find_isomorphism on each pair; how often each case came up.

    Both find nothing on the same pairs.  On a one-dimensional Hom the map
    is hom_basis's; on a wider one it is any isomorphism, so it is checked
    on every edge and ranked on every slot.
    """
    seen = {"none": 0, "one": 0, "wider": 0}
    for x, y in pairs:
        got, ref = abcat.find_isomorphism(x, y), reference_find_isomorphism(x, y)
        assert (got is None) == (ref is None), (x, y)
        if got is None:
            seen["none"] += 1
        elif len(hom_basis(x, y)) == 1:
            assert got == ref, (x, y)
            seen["one"] += 1
        else:
            iso = Morphism(x, y, got.mats, check=True)
            assert iso.is_injective() and iso.is_surjective(), (x, y)
            seen["wider"] += 1
    return seen


def rescaled(m):
    """m conjugated by the scalar w + 20 at each weight w: isomorphic to m, with other arrows wherever m has nonzero ones."""
    return abcat.change_basis(m, {w: Matrix.identity(m.slot_dim(w)).scale(Scalar(w + 20)) for w in m.slot_ids()})


def test_the_isomorphism_on_the_core_matches_the_basis_search_on_the_catalog_duals_and_boundary_simples():
    # every pair of catalog modules with n <= 4 in both orders, the pairs of their duals, and the boundary simples;
    # each of them against its rescaled copy, where the carried map of a one-dimensional Hom is not yet hom_basis's
    window = default_window(4)
    cat = [catalog_module(key, window) for key in catalog_keys(4)]
    duals = [graded_dual(m) for m in cat]
    simples = [simple_rep(base, twist, window) for base in LABELS + ("0", "inf") for twist in (-1, 0, 1)]
    pairs = [(x, y) for objs in (cat, duals, simples) for x in objs for y in objs]
    pairs += [pair for m in cat + duals + simples for r in [rescaled(m)] for pair in ((m, r), (r, m))]
    seen = assert_finds_what_the_basis_search_finds(pairs)
    assert min(seen.values()) > 0, seen


def test_the_isomorphism_matches_the_basis_search_on_truncated_projectives():
    # plain representations: the core is the whole quiver, and the first invertible core map is returned as it is
    rng = random.Random(13)
    pairs = []
    for _ in range(30):
        pres, leaving = random_nakayama(rng)
        objs = [truncated_projective(pres, leaving, start, n) for start in pres.nodes
                for n in range(1, len(nonzero_paths(pres, leaving, start, N_MAX + 1)) + 1)]
        pairs += [(x, y) for x in objs for y in objs]
    seen = assert_finds_what_the_basis_search_finds(pairs)
    assert min(seen.values()) > 0, seen


def with_a_singular_carrying_arrow(m):
    """m with the first row of the first nonzero-dimensional arrow of its transport set to zero."""
    arrow = next(a for a in m.core_window()[4] if m.mats[a].rows)
    mat = m.mats[arrow]
    rows = [[ZERO] * mat.cols] + [list(mat.row(i)) for i in range(1, mat.rows)]
    return m.with_matrices(m.dims, {**m.mats, arrow: Matrix(mat.rows, mat.cols, rows)})


def boundary_pair():
    """(x, y) on the weights 0..2, both satisfying their one relation, with x's carrying arrow ("t", 1) singular in y.

    Hom(x, y) is one map, invertible on the core 0..1 and zero at weight 2:
    the carried map passes the check on ("p", 2), which is zero in both.
    """
    def rep(t1):
        one = {a: Matrix(1, 1, [[Scalar(a)]]) for a in (-1, 0, 1)}
        return GradedRep((0, 2), {0: 1, 1: 1, 2: 1}, {0: one[1], 1: one[t1]}, {1: one[-1], 2: one[0]})

    return rep(1), rep(0)


def test_the_isomorphism_matches_the_basis_search_where_a_relation_breaks_or_a_carrying_arrow_is_singular(monkeypatch):
    rng = random.Random(17)
    window = default_window(3)
    cat = [catalog_module(key, window) for key in catalog_keys(3)]
    broken = [(b, m) for m in cat for b in (perturbed(m, rng) for _ in range(3)) if validate(b)]
    singular = [(m, with_a_singular_carrying_arrow(m)) for m in cat if any(m.mats[a].rows for a in m.core_window()[4])]
    x, y = boundary_pair()
    assert validate(x) == validate(y) == [] and x.core_window()[4][0] == ("t", 1)
    pairs = [(b, b) for b, _ in broken] + [pair for b, m in broken for pair in ((b, m), (m, b))]
    pairs += [(b, z) for b, _ in broken for z in cat[:4]] + singular + [(z, m) for m, z in singular]
    pairs += [(x, y), (y, x), (x, x), (graded_dual(y), graded_dual(x))]
    seen = assert_finds_what_the_basis_search_finds(pairs)
    assert seen["none"] > 0 and seen["one"] + seen["wider"] > 0, seen
    assert len(hom_basis(x, y)) == 1 and abcat.find_isomorphism(x, y) is None
    # the relation guard finds isomorphisms: broken sources whose first invertible core map does not carry
    real, guarded, rescued = abcat.hom_basis, [], 0
    monkeypatch.setattr(abcat, "hom_basis", lambda a, b: guarded.append((a, b)) or real(a, b))
    for a, b in pairs:
        guarded.clear()
        rescued += abcat.find_isomorphism(a, b) is not None and guarded == [(a, b)]
    assert rescued > 0


def test_a_pair_where_one_side_breaks_a_relation_has_no_isomorphism_without_hom_basis(monkeypatch):
    # an isomorphism carries the relations, so where exactly one of x, y breaks one the answer is None, and the
    # relation guard sends only a pair where both break one to hom_basis
    rng = random.Random(17)
    window = default_window(3)
    cat = [catalog_module(key, window) for key in catalog_keys(3)]
    broken = [(b, m) for m in cat for b in (perturbed(m, rng) for _ in range(3)) if validate(b)]
    pairs = [pair for b, m in broken for pair in ((b, m), (m, b))] + [(b, z) for b, _ in broken for z in cat[:4]]
    assert all(reference_find_isomorphism(x, y) is None for x, y in pairs)
    # a pair of equal slot dimensions from a source with a transport reaches the guard
    reached = sum(bool(x.core_window()[4]) and x.dims == y.dims for x, y in pairs)
    assert reached >= 50, reached
    calls = []
    real = abcat.hom_basis
    monkeypatch.setattr(abcat, "hom_basis", lambda a, b: calls.append((a, b)) or real(a, b))
    assert [abcat.find_isomorphism(x, y) for x, y in pairs] == [None] * len(pairs) and calls == []


def test_the_isomorphism_of_a_verify_key_pair_carries_one_map_and_guards_no_relation(monkeypatch):
    # both objects of verify_key satisfy their relations, so the answer needs neither hom_basis nor violations();
    # the Euler key's built object is not its catalog module and carries one map, the word key's equals it and
    # is answered by its identity, with no carry
    window = default_window(3)
    for key, equal in ((CatalogKey("euler", LABELS[1], None, 3), False), (CatalogKey("word", None, "inf", 2), True)):
        bases = [key.alpha, "0", "inf"] if key.kind == "euler" else ["0", "inf"]
        family = weyl_simple_family(bases, [key.twist], window)
        built, = species.classify(species.species_of(family), family, key.n, start=key.start_label())
        cat = catalog_module(key, window)
        assert validate(cat) == [] and cat.core_window()[4]
        assert (built.obj == cat) is equal, key
        calls = []
        for module, name in ((abcat, "hom_basis"), (abcat, "_carry"), (quiverrep.Rep, "violations")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
        iso = abcat.find_isomorphism(built.obj, cat)
        monkeypatch.undo()
        assert iso is not None and calls == ([] if equal else ["_carry"]), (key, calls)
        assert (iso == abcat.identity_morphism(cat)) is equal, key


def self_map_objects():
    """The catalog with n <= 4, the simples at twists -1..1, the graded duals of both, and one S ⊕ S: 57 objects."""
    window = default_window(4)
    cat = [catalog_module(key, window) for key in catalog_keys(4)]
    simples = [simple_rep(base, twist, window) for base in LABELS + ("0", "inf") for twist in (-1, 0, 1)]
    return cat + simples + [graded_dual(m) for m in cat + simples] + [direct_sum(simples[0], simples[0]).obj]


def core_map_count(m):
    inner, edges, _, _, _ = m.core_window()
    return len(abcat._core_maps(m, m, inner, edges))


def test_an_objects_isomorphism_to_itself_is_its_identity_when_the_core_solve_gives_one_map(monkeypatch):
    objs = self_map_objects()
    one = [core_map_count(m) == 1 for m in objs]
    assert len(objs) == 57 and one.count(True) == 36
    refs = [reference_find_isomorphism(m, m) for m in objs]
    shortcuts = []
    real = abcat.identity_morphism
    monkeypatch.setattr(abcat, "identity_morphism", lambda x: shortcuts.append(x) or real(x))
    got = [abcat.find_isomorphism(m, m) for m in objs]
    monkeypatch.undo()
    # the shortcut is taken on exactly the one-map objects, and every answer is the reference's
    assert shortcuts == [m for m, k in zip(objs, one) if k]
    assert got == refs
    assert all(g == abcat.identity_morphism(m) for g, m, k in zip(got, objs, one) if k)
    # without the one-map condition the shortcut would be wrong: most of the others find another isomorphism
    others = [g == abcat.identity_morphism(m) for g, m, k in zip(got, objs, one) if not k]
    assert others.count(False) > others.count(True) > 0


def test_an_equal_pair_is_isomorphic_before_any_solve(monkeypatch):
    objs = self_map_objects()
    refs = [reference_find_isomorphism(m, m) is not None for m in objs]
    calls = []
    real = abcat._core_maps
    monkeypatch.setattr(abcat, "_core_maps", lambda *args: calls.append(args) or real(*args))
    assert [abcat._isomorphic(m, m) for m in objs] == [True] * len(objs) and calls == []
    monkeypatch.undo()
    # the decider's contract is an indecomposable x; S ⊕ S is the one decomposable object, with no invertible basis map
    assert refs == [True] * (len(objs) - 1) + [False]
    assert [abcat.is_indecomposable(m)[0] for m in objs] == refs


def assert_decides_as_the_basis_search(pairs):
    """abcat._isomorphic against reference_find_isomorphism on each pair; (isomorphic pairs, others)."""
    answers = [abcat._isomorphic(x, y) for x, y in pairs]
    assert answers == [reference_find_isomorphism(x, y) is not None for x, y in pairs]
    return answers.count(True), answers.count(False)


def test_the_decider_matches_the_basis_search_on_the_catalog_duals_boundary_simples_and_rescaled_copies():
    # the catalog with n <= 4 in both orders, its duals, the boundary simples, and each against its rescaled copy
    window = default_window(4)
    cat = [catalog_module(key, window) for key in catalog_keys(4)]
    duals = [graded_dual(m) for m in cat]
    simples = [simple_rep(base, twist, window) for base in LABELS + ("0", "inf") for twist in (-1, 0, 1)]
    pairs = [(x, y) for objs in (cat, duals, simples) for x in objs for y in objs]
    pairs += [pair for m in cat + duals + simples for r in [rescaled(m)] for pair in ((m, r), (r, m))]
    same, other = assert_decides_as_the_basis_search(pairs)
    assert same >= 3 * len(cat + duals + simples) and other > 0


def test_the_decider_matches_the_basis_search_where_a_relation_breaks_or_a_carrying_arrow_is_singular():
    # both sides, one side or neither side breaks a relation; a carrying arrow of one side is singular in the other
    rng = random.Random(17)
    cat = [catalog_module(key, default_window(3)) for key in catalog_keys(3)]
    broken = [(b, m) for m in cat for b in (perturbed(m, rng) for _ in range(3)) if validate(b)]
    singular = [(m, with_a_singular_carrying_arrow(m)) for m in cat if any(m.mats[a].rows for a in m.core_window()[4])]
    x, y = boundary_pair()
    pairs = [(b, b) for b, _ in broken] + [pair for b, m in broken for pair in ((b, m), (m, b))]
    pairs += [(b, z) for b, _ in broken for z in cat[:4]] + singular + [(z, m) for m, z in singular]
    pairs += [(x, y), (y, x), (x, x), (graded_dual(y), graded_dual(x))]
    same, other = assert_decides_as_the_basis_search(pairs)
    # an unbroken source against a broken copy with its core: the core map is invertible there and does not carry
    assert any(not validate(m) and m.core_window()[0] == b.core_window()[0] for b, m in broken)
    assert same >= len(broken) and other > 0


def test_the_decider_matches_the_basis_search_on_truncated_projectives():
    # plain representations: no transport, so the core basis is a basis of Hom and no relation is read
    rng = random.Random(13)
    pairs = []
    for _ in range(30):
        pres, leaving = random_nakayama(rng)
        objs = [truncated_projective(pres, leaving, start, n) for start in pres.nodes
                for n in range(1, len(nonzero_paths(pres, leaving, start, N_MAX + 1)) + 1)]
        pairs += [(x, y) for x in objs for y in objs]
    same, other = assert_decides_as_the_basis_search(pairs)
    assert same > 0 and other > 0


def test_unequal_cores_answer_no_without_a_hom_solve(monkeypatch):
    # a carrying arrow made singular moves the core and keeps every slot dimension
    cat = [catalog_module(key, default_window(3)) for key in catalog_keys(3)]
    pairs = [(m, with_a_singular_carrying_arrow(m)) for m in cat if any(m.mats[a].rows for a in m.core_window()[4])]
    pairs += [pair for pair in [boundary_pair()] for pair in (pair, pair[::-1])]
    pairs = [(x, y) for a, b in pairs for x, y in ((a, b), (b, a))]
    assert len(pairs) >= 8
    assert all(x.dims == y.dims and x.core_window()[0] != y.core_window()[0] for x, y in pairs)
    assert all(reference_find_isomorphism(x, y) is None for x, y in pairs)
    calls = []
    real = abcat._core_maps
    monkeypatch.setattr(abcat, "_core_maps", lambda *args: calls.append(args) or real(*args))
    assert [abcat._isomorphic(x, y) for x, y in pairs] == [False] * len(pairs)
    assert [abcat.find_isomorphism(x, y) for x, y in pairs] == [None] * len(pairs)
    assert calls == []


def test_verify_key_decides_the_match_on_the_core_and_evaluates_each_objects_relations_once(monkeypatch):
    events = []
    real_iso, real_eval = abcat._isomorphic, quiverrep.Rep._evaluate_relations
    monkeypatch.setattr(abcat, "_carry", lambda *args: events.append("carry"))
    monkeypatch.setattr(abcat, "_isomorphic", lambda x, y: events.append(("iso", x, y)) or real_iso(x, y))
    monkeypatch.setattr(quiverrep.Rep, "_evaluate_relations", lambda self: events.append(("eval", self)) or real_eval(self))
    assert verify_key(CatalogKey("euler", LABELS[0], None, 3), default_window(3)).ok
    assert "carry" not in events
    evaluated = [e[1] for e in events if e[0] == "eval"]
    assert len({id(x) for x in evaluated}) == len(evaluated)
    # the End guard and "catalog validates" evaluated both sides before the match read them
    (k, (_, built, cat)), = [(k, e) for k, e in enumerate(events) if e[0] == "iso"]
    assert {id(built), id(cat)} <= {id(e[1]) for e in events[:k] if e[0] == "eval"}
