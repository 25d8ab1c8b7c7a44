from dataclasses import replace

import pytest

from uniserial import abcat, species as species_mod, weylcat
from uniserial.gradedrep import simple_rep, twist_rep, validate
from uniserial.linalg import ZERO, Scalar, parse_scalar
from uniserial.quiverrep import QuiverPresentation, simple_at
from uniserial.weylcat import (
    CatalogKey,
    WindowTooSmallError,
    catalog_module,
    check_window,
    default_window,
    euler_tower_class,
    expected_factors,
    normalize_alpha,
    parse_weyl_label,
    required_window,
    verify_key,
    verify_theorem,
    weyl_label,
    weyl_simple_family,
)

HALF = parse_scalar("1/2")
MIXED = parse_scalar("1/3+1/2*i")
WORD = CatalogKey("word", None, "0", 2)


def test_labels_roundtrip():
    assert weyl_label(HALF, 0) == "1/2@0"
    assert weyl_label("inf", -1) == "inf@-1"
    assert parse_weyl_label("1/2@0") == (HALF, 0)
    assert parse_weyl_label("inf@-1") == ("inf", -1)
    assert parse_weyl_label("1/3+1/2*i@2") == (MIXED, 2)
    with pytest.raises(ValueError):
        parse_weyl_label("3/2@0")
    with pytest.raises(ValueError):
        parse_weyl_label("1/2")


def test_required_window_and_check():
    assert required_window([0], 3) == (-5, 5)
    check_window((-5, 5), [0], 3)
    with pytest.raises(WindowTooSmallError):
        check_window((-4, 5), [0], 3)


def test_catalog_key_validation():
    with pytest.raises(ValueError):
        CatalogKey("euler", Scalar(0), None, 1)
    with pytest.raises(ValueError):
        CatalogKey("euler", parse_scalar("3/2"), None, 1)
    with pytest.raises(ValueError):
        CatalogKey("word", None, "2", 1)
    with pytest.raises(ValueError):
        CatalogKey("word", None, "0", 0)
    with pytest.raises(ValueError):
        CatalogKey("other", None, None, 1)


def test_catalog_simple_cases():
    win = default_window(1)
    m = catalog_module(CatalogKey("euler", HALF, None, 1), win)
    assert m == simple_rep(HALF, 0, win)
    z = catalog_module(CatalogKey("word", None, "0", 1), win)
    assert z == simple_rep("0", 0, win)
    i = catalog_module(CatalogKey("word", None, "inf", 1), win)
    assert i == simple_rep("inf", 0, win)


def test_catalog_euler_square_matches_realized_extension():
    win = default_window(2)
    m = simple_rep(HALF, 0, win)
    (cls,) = abcat.ext1_basis(m, m)
    z, _, _ = abcat.realize_extension(cls)
    cat = catalog_module(CatalogKey("euler", HALF, None, 2), win)
    assert abcat.are_isomorphic(z, cat)


def test_catalog_window_too_small():
    with pytest.raises(WindowTooSmallError):
        catalog_module(CatalogKey("euler", HALF, None, 3), (-3, 3))


def test_catalog_per_weight_dimension():
    win = default_window(3)
    m = catalog_module(CatalogKey("euler", MIXED, None, 3), win)
    assert all(m.dims[w] == 3 for w in m.slot_ids())
    assert validate(m) == []


def test_catalog_twist_changes_iso_class():
    win = (-8, 8)
    a = catalog_module(CatalogKey("euler", HALF, None, 2, twist=0), win)
    b = catalog_module(CatalogKey("euler", HALF, None, 2, twist=1), (-7, 9))
    shifted = twist_rep(a, 1)
    assert shifted == b
    b_on_win = catalog_module(CatalogKey("euler", HALF, None, 2, twist=1), win)
    assert not abcat.are_isomorphic(a, b_on_win)


def test_expected_factors_euler():
    key = CatalogKey("euler", HALF, None, 3, twist=2)
    assert expected_factors(key) == ("1/2@2", "1/2@2", "1/2@2")


def test_expected_factors_words_alternate_at_constant_twist():
    assert expected_factors(CatalogKey("word", None, "0", 2, twist=0)) == ("0@0", "inf@0")
    assert expected_factors(CatalogKey("word", None, "inf", 2, twist=0)) == ("inf@0", "0@0")
    assert expected_factors(CatalogKey("word", None, "0", 4, twist=1)) == (
        "0@1",
        "inf@1",
        "0@1",
        "inf@1",
    )


def test_catalog_word_factors_match_composition_series():
    win = default_window(2)
    fam = weyl_simple_family(["0", "inf"], [0], win)
    for beta in ("0", "inf"):
        key = CatalogKey("word", None, beta, 2)
        cat = catalog_module(key, win)
        series = abcat.composition_series(cat, fam)
        assert series.factors == expected_factors(key), beta


def test_normalize_alpha():
    a, tw = normalize_alpha(parse_scalar("3/2"))
    assert a == HALF and tw == -1
    a, tw = normalize_alpha(parse_scalar("-1/2"))
    assert a == HALF and tw == 1
    a, tw = normalize_alpha(HALF)
    assert a == HALF and tw == 0
    with pytest.raises(ValueError):
        normalize_alpha(Scalar(2))


def test_normalized_label_gives_isomorphic_module():
    from uniserial.gradedrep import ideal_quotient_rep
    from uniserial.weyl import euler_power

    # the module for 3/2 is the module for 1/2 twisted by -1
    win = (-8, 8)
    a, tw = normalize_alpha(parse_scalar("3/2"))
    normalized = simple_rep(a, tw, win)
    raw = ideal_quotient_rep(euler_power(parse_scalar("3/2"), 1), win)
    assert abcat.are_isomorphic(normalized, raw)


def test_euler_tower_class_nonzero():
    for n in (2, 3):
        win = default_window(n)
        cls = euler_tower_class(HALF, n, win)
        assert not cls.is_zero(), n


def test_verify_key_passes():
    win = default_window(2)
    res = verify_key(CatalogKey("word", None, "inf", 2), win)
    assert res.ok, res.checks


def test_verify_theorem_n1_trivial():
    report = verify_theorem(1)
    assert report.ok
    assert len(report.results) == 3  # one alpha + two boundary starts


def test_verify_theorem_n2_passes():
    report = verify_theorem(2, alphas=(HALF,))
    assert report.ok, [r.checks for r in report.failures()]


def test_verify_theorem_window_too_small():
    with pytest.raises(WindowTooSmallError):
        verify_theorem(3, window=(-2, 2))


def test_negative_control_wrong_catalog_detected():
    # comparing the classifier output against a twisted catalog module must fail
    win = (-8, 8)
    fam = weyl_simple_family([HALF], [0], win)
    from uniserial.species import classify, species_of

    s = species_of(fam)
    (item,) = classify(s, fam, 2, start="1/2@0")
    wrong = catalog_module(CatalogKey("euler", HALF, None, 2, twist=1), win)
    assert not abcat.are_isomorphic(item.obj, wrong)


def test_each_object_is_certified_once(monkeypatch):
    certified = []
    real = abcat.end_algebra_dims

    def counting(x):
        certified.append(x)
        return real(x)

    monkeypatch.setattr(abcat, "end_algebra_dims", counting)
    assert verify_key(CatalogKey("euler", HALF, None, 2), default_window(2)).ok
    # the classified object only: the catalog module is matched to it, not certified
    assert len(certified) == 1
    certified.clear()
    a4 = QuiverPresentation(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    family = tuple((v, simple_at(a4, v)) for v in a4.nodes)
    out = species_mod.classify(species_mod.species_of(family), family, 1)
    assert len(out) == 4
    # the pairwise non-isomorphism check certifies nothing again
    assert certified == [item.obj for item in out]


def test_catalog_module_is_built_once_per_key(monkeypatch):
    built = []
    real = weylcat.ideal_quotient_rep

    def counting(p, window):
        built.append((p, window))
        return real(p, window)

    monkeypatch.setattr(weylcat, "ideal_quotient_rep", counting)
    assert verify_key(CatalogKey("euler", HALF, None, 3), default_window(3)).ok
    # the catalog module, which the tower reuses, and the length-2 quotient
    assert len(built) == len(set(built)) == 2
    # the tower of a twisted key is built on that key's catalog module
    built.clear()
    assert verify_key(CatalogKey("euler", MIXED, None, 2, twist=1), (-5, 7)).ok
    assert len(built) == 2


def test_simple_is_built_once_per_family_member(monkeypatch):
    calls = []
    real = weylcat.simple_rep

    def counting(base, twist, window):
        calls.append((base, twist))
        return real(base, twist, window)

    monkeypatch.setattr(weylcat, "simple_rep", counting)
    win = default_window(3)
    assert verify_key(CatalogKey("euler", HALF, None, 3), win).ok
    # the tower takes its simple from the family
    assert len(calls) == len(weyl_simple_family([HALF, "0", "inf"], [0], win)) == 3


def slot_dims(x):
    return tuple(x.slot_dim(s) for s in x.slot_ids())


def failed(result):
    return {name: detail for name, ok, detail in result.checks if not ok}


def test_passing_checks_carry_no_witness():
    for key in (CatalogKey("euler", MIXED, None, 3), WORD):
        res = verify_key(key, default_window(key.n))
        assert res.ok
        assert {detail for name, _, detail in res.checks if name not in ("unique class", "factors")} == {""}


def test_split_tower_witness_gives_the_two_ranks(monkeypatch):
    real = weylcat._tower_cocycle
    seen = []

    def split(*args):
        space, vec = real(*args)
        seen.append(space)
        return space, tuple([ZERO] * len(vec))

    monkeypatch.setattr(weylcat, "_tower_cocycle", split)
    got = failed(verify_key(CatalogKey("euler", HALF, None, 2), default_window(2)))
    (space,) = seen
    r = space._rank_d0
    assert r > 0
    assert got == {"tower non-split": "rank [d0 | c] = %d, rank d0 = %d" % (r, r)}


def test_isomorphism_witness_gives_the_slot_dimensions(monkeypatch):
    real = weylcat.catalog_module
    win = default_window(2)
    short = real(replace(WORD, n=1), win)
    monkeypatch.setattr(weylcat, "catalog_module", lambda key, window, margin=2: short)
    got = failed(verify_key(WORD, win))
    assert set(got) == {"isomorphic to catalog", "factors"}
    assert got["isomorphic to catalog"] == "slot dimensions %r and %r" % (slot_dims(real(WORD, win)), slot_dims(short))


def test_isomorphism_and_socle_witnesses_on_a_split_catalog(monkeypatch):
    win = default_window(2)
    split = abcat.direct_sum(simple_rep("0", 0, win), simple_rep("inf", 0, win)).obj
    monkeypatch.setattr(weylcat, "catalog_module", lambda key, window, margin=2: split)
    got = failed(verify_key(WORD, win))
    assert set(got) == {"isomorphic to catalog", "catalog uniserial", "factors"}
    # Hom(built, S_0 + S_inf) is the one map onto the top factor S_0, which is singular
    assert got["isomorphic to catalog"] == "none of the 1 Hom(built, cat) basis maps is invertible"
    assert got["catalog uniserial"] == "stage 0 (dim %d): Hom counts %r" % (
        abcat.total_dim(split),
        (("0@0", 1), ("inf@0", 1)),
    )


def test_classifier_factors_witness_gives_the_two_series(monkeypatch):
    monkeypatch.setattr(weylcat, "expected_factors", lambda key: ("inf@0", "0@0"))
    got = failed(verify_key(WORD, default_window(2)))
    assert got == {
        "factors": "got ('0@0', 'inf@0') expected ('inf@0', '0@0')",
        "classifier factors": "got ('0@0', 'inf@0') expected ('inf@0', '0@0')",
    }
