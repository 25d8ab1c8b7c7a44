import pytest

from conftest import realize_vector_other_basis
from uniserial import abcat
from uniserial.itext import extension_classes
from uniserial.linalg import Matrix, Scalar, parse_scalar, solve_matrix
from uniserial.quiverrep import KRONECKER, QuiverPresentation, simple_at
from uniserial.species import (
    CriterionError,
    FamilyError,
    Species,
    admissible_paths,
    classify,
    realize_vector,
    species_from_text,
    species_of,
    species_to_text,
    uc_check,
)
from uniserial.weylcat import default_window, weyl_simple_family

HALF = parse_scalar("1/2")
WINDOW = (-5, 5)

A3 = QuiverPresentation(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])


def a3_family():
    return tuple((n, simple_at(A3, n)) for n in ("1", "2", "3"))


def kronecker_family():
    return tuple((n, simple_at(KRONECKER, n)) for n in ("1", "2"))


def test_species_of_kronecker():
    s = species_of(kronecker_family())
    assert s.dim("1", "2") == 2
    assert s.dim("2", "1") == 0
    assert s.dim("1", "1") == 0


def test_species_of_single_node_no_loops():
    one = QuiverPresentation(["1"], [])
    s = species_of(((("1"), simple_at(one, "1")),))
    assert s.table == ()


def test_species_of_weyl_matches_expected_table():
    fam = weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)
    s = species_of(fam)
    assert s.dim("1/2@0", "1/2@0") == 1
    assert s.dim("0@0", "inf@0") == 1
    assert s.dim("inf@0", "0@0") == 1
    assert s.dim("1/2@0", "0@0") == 0
    assert s.dim("0@0", "1/2@0") == 0
    assert s.dim("0@0", "0@0") == 0
    assert s.dim("inf@0", "inf@0") == 0


def test_species_of_rejects_duplicate_object():
    fam = (("x", simple_at(KRONECKER, "1")), ("y", simple_at(KRONECKER, "1")))
    with pytest.raises(FamilyError):
        species_of(fam)


def test_species_of_rejects_non_point():
    ds = abcat.direct_sum(simple_at(KRONECKER, "1"), simple_at(KRONECKER, "1"))
    with pytest.raises(FamilyError):
        species_of((("s", ds.obj),))


def test_species_of_checks_the_diagonal_before_orthogonality():
    s1 = simple_at(KRONECKER, "1")
    ds = abcat.direct_sum(s1, s1).obj
    # maps x -> s exist as well, but the diagonal is checked first
    with pytest.raises(FamilyError, match="^endomorphisms of s are not one-dimensional$"):
        species_of((("x", s1), ("s", ds)))
    with pytest.raises(FamilyError, match="^family is not orthogonal: maps x -> y exist$"):
        species_of((("x", s1), ("y", s1), ("z", simple_at(KRONECKER, "2"))))


def test_uc_check_weyl_uniserial():
    fam = weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)
    assert uc_check(species_of(fam)).ok


def test_uc_check_double_arrow():
    verdict = uc_check(species_of(kronecker_family()))
    assert not verdict.ok
    assert verdict.pattern[0] == "double arrow"


def test_uc_check_fan_out():
    s = Species(("a", "b", "c"), (("a", "b", 1), ("a", "c", 1)))
    verdict = uc_check(s)
    assert not verdict.ok
    assert verdict.pattern[0] == "fan-out"


def test_uc_check_fan_in():
    s = Species(("a", "b", "c"), (("a", "c", 1), ("b", "c", 1)))
    verdict = uc_check(s)
    assert not verdict.ok
    assert verdict.pattern[0] == "fan-in"


def test_admissible_paths_a3():
    s = species_of(a3_family())
    assert admissible_paths(s, 1) == [("1",), ("2",), ("3",)]
    assert admissible_paths(s, 2) == [("1", "2"), ("2", "3")]
    assert admissible_paths(s, 3) == [("1", "2", "3")]
    assert admissible_paths(s, 4) == []


def test_admissible_paths_requires_criterion():
    with pytest.raises(CriterionError):
        admissible_paths(species_of(kronecker_family()), 2)


def test_admissible_paths_no_arrows():
    one = QuiverPresentation(["1"], [])
    s = species_of(((("1"), simple_at(one, "1")),))
    assert admissible_paths(s, 2) == []
    assert admissible_paths(s, 1) == [("1",)]


def test_admissible_paths_weyl_unique_per_start():
    fam = weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)
    s = species_of(fam)
    for n in (1, 2, 3):
        paths = admissible_paths(s, n)
        starts = [p[0] for p in paths]
        assert sorted(starts) == sorted(s.labels), n
        assert len(paths) == len(s.labels)


def test_realize_vector_weyl_matches_ideal_quotient():
    from uniserial.gradedrep import ideal_quotient_rep
    from uniserial.weyl import euler_power

    fam = weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)
    ext = realize_vector(("1/2@0", "1/2@0"), fam)
    assert ext is not None
    target = ideal_quotient_rep(euler_power(HALF, 2), WINDOW)
    assert abcat.are_isomorphic(ext.x, target)


def test_realize_vector_rejects_unknown_label():
    fam = weyl_simple_family([HALF], [0], WINDOW)
    with pytest.raises(KeyError):
        realize_vector(("nope",), fam)


def test_realize_vector_unreachable_step_none():
    s = a3_family()
    # no arrow from 2 to 1, so the extension space is zero and no step class exists
    ext = realize_vector(("2", "1"), s)
    assert ext is None


def test_realize_vector_two_runs_isomorphic():
    fam = weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)
    e1 = realize_vector(("0@0", "inf@0", "0@0"), fam)
    e2 = realize_vector_other_basis(("0@0", "inf@0", "0@0"), fam)
    assert e1 is not None and e2 is not None
    assert abcat.are_isomorphic(e1.x, e2.x)
    assert e1.order_vector == e2.order_vector


def test_realize_vector_classes_nonzero():
    fam = a3_family()
    ext = realize_vector(("1", "2", "3"), fam)
    xis, taus = extension_classes(ext)
    assert all(not xi.is_zero() for xi in xis)
    assert all(not tau.is_zero() for tau in taus)


def fiber_product_class(ext, i):
    """Class of 0 -> S_i -> P -> S_{i-1} -> 0 for the fiber product P of fs[i] and kernel_monos[i-1].

    The restriction of the i-th class to the previous kernel, built
    without pullback_extension: S_i -> P is the map that (kernel_monos[i], 0)
    induces, solved slot by slot on the stacked projections of P.
    """
    kmono = ext.kernel_monos[i]
    obj, p1, p2 = abcat.fiber_product(ext.fs[i], ext.kernel_monos[i - 1])
    inj = {}
    for s in obj.slot_ids():
        stacked = Matrix.block([[p1.mats[s]], [p2.mats[s]]], [p1.mats[s].rows, p2.mats[s].rows], [obj.slot_dim(s)])
        rhs = Matrix.block([[kmono.mats[s]], [None]], [kmono.mats[s].rows, p2.mats[s].rows], [kmono.src.slot_dim(s)])
        inj[s] = solve_matrix(stacked, rhs)
    return abcat.extract_class(abcat.Morphism(kmono.src, obj, inj), p2)


@pytest.mark.parametrize("other_basis", [0, 1])
def test_realize_vector_rescales_the_pulled_back_class(other_basis):
    # each step realizes its class rescaled so that the restriction tau has
    # first nonzero coordinate one; the class of the fiber product of fs[i]
    # and the previous kernel has the coordinates of tau
    weyl = weyl_simple_family([HALF, parse_scalar("1/3+1/2*i"), "0", "inf"], [0], WINDOW)
    cases = [
        (("1", "2", "3"), a3_family()),
        (("0@0", "inf@0", "0@0", "inf@0"), weyl),
        (("1/2@0", "1/2@0", "1/2@0"), weyl),
        (("1/3+1/2*i@0", "1/3+1/2*i@0"), weyl),
    ]
    for v, fam in cases:
        ext = (realize_vector, realize_vector_other_basis)[other_basis](v, fam)
        _, taus = extension_classes(ext)
        assert len(taus) == len(v) - 1
        for i, tau in enumerate(taus, start=1):
            assert fiber_product_class(ext, i).coords == tau.coords, (v, i)
            # scaled so that the first nonzero coordinate is one
            assert next(c for c in tau.coords if c) == Scalar(1)


@pytest.mark.parametrize("other_basis", [0, 1])
def test_realize_vector_builds_one_space_per_label_pair(monkeypatch, other_basis):
    # on (α, α, α) the step-1 space and both restrictions are the one pair space (α, α); the only other space is
    # step 2's Ext(X_2, S_α)
    fam = weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)
    alpha = dict(fam)["1/2@0"]
    built, real = [], abcat.ExtSpace.__init__
    monkeypatch.setattr(abcat.ExtSpace, "__init__", lambda self, x, y: built.append((x, y)) or real(self, x, y))
    ext = (realize_vector, realize_vector_other_basis)[other_basis](("1/2@0",) * 3, fam)
    assert ext is not None and len(built) == 2
    assert built[0][0] is alpha and built[0][1] is alpha and built[1] == (ext.cs[1], alpha)


def test_restriction_map_bijective_along_realization():
    # with the criterion and nonzero classes, restricting extensions of the
    # partial object to its deepest kernel is a bijection on every simple
    fam = weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)
    ext = realize_vector(("0@0", "inf@0", "0@0"), fam)
    for i in (1, 2):
        c_prev = ext.cs[i]
        mono = ext.kernel_monos[i]
        for lbl, simple in fam:
            space_big = abcat.ExtSpace(c_prev, simple)
            space_small = abcat.ExtSpace(mono.src, simple)
            assert space_big.dim() == space_small.dim(), (i, lbl)
            images = []
            for cls in space_big.basis():
                images.append(abcat.pullback_extension(cls, mono).coords)
            if space_big.dim():
                from uniserial.linalg import Matrix, rank

                m = Matrix.from_columns(images, space_small.dim())
                assert rank(m.transpose()) == space_big.dim()


def test_classify_a3():
    fam = a3_family()
    s = species_of(fam)
    for n, expected in ((1, 3), (2, 2), (3, 1)):
        out = classify(s, fam, n)
        assert len(out) == expected
        for item in out:
            ok, _ = abcat.is_indecomposable(item.obj)
            assert ok


def test_classify_weyl_start():
    fam = weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)
    s = species_of(fam)
    out = classify(s, fam, 2, start="inf@0")
    assert len(out) == 1
    assert out[0].order_vector == ("inf@0", "0@0")


SQUARE_ZERO_LOOP = QuiverPresentation(
    ["1"],
    [("x", "1", "1")],
    [("1", "1", ((Scalar(1), ("x", "x")),))],
)


def square_zero_family():
    return (("1", simple_at(SQUARE_ZERO_LOOP, "1")),)


def test_realize_vector_hits_genuine_obstruction():
    # over the square-zero loop the simple extends itself once (the regular
    # module) but not twice: the length-3 candidate passes the arrow
    # condition yet no step class restricts nontrivially
    fam = square_zero_family()
    s = species_of(fam)
    assert s.dim("1", "1") == 1
    assert admissible_paths(s, 3) == [("1", "1", "1")]
    two = realize_vector(("1", "1"), fam)
    assert two is not None
    ok, _ = abcat.is_indecomposable(two.x)
    assert ok
    three = realize_vector(("1", "1", "1"), fam)
    assert three is None


def test_classify_respects_obstruction():
    fam = square_zero_family()
    s = species_of(fam)
    assert len(classify(s, fam, 1)) == 1
    out2 = classify(s, fam, 2)
    assert len(out2) == 1
    assert out2[0].order_vector == ("1", "1")
    assert classify(s, fam, 3) == []


A4_ZERO_RELATION = QuiverPresentation(
    ["1", "2", "3", "4"],
    [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
    [("1", "3", ((Scalar(1), ("a", "b")),))],
)


def _weyl_case(bases, twists, n):
    lo, hi = default_window(n)
    return weyl_simple_family(bases, twists, (lo + min(twists), hi + max(twists))), n


ORACLE_CASES = {
    "a3": [(a3_family(), n) for n in (1, 2, 3)],
    "square-zero-loop": [(square_zero_family(), n) for n in (1, 2, 3)],
    "a4-zero-relation": [(tuple((v, simple_at(A4_ZERO_RELATION, v)) for v in "1234"), n) for n in (1, 2, 3, 4)],
    "weyl-1/2": [_weyl_case([HALF, "0", "inf"], [0], n) for n in (1, 2, 3)],
    "weyl-nonreal": [_weyl_case([parse_scalar("1/3+1/2*i"), "0", "inf"], [0], n) for n in (1, 2)],
    "weyl-twisted": [_weyl_case([HALF, "0", "inf"], [0, 1], n) for n in (1, 2)],
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_classify_objects_are_uniserial_and_pairwise_non_isomorphic(case):
    # classify certifies uniseriality by the non-split-steps lemma alone; the
    # peel and the isomorphism search are the oracle here
    for fam, n in ORACLE_CASES[case]:
        out = classify(species_of(fam), fam, n)
        for item in out:
            assert abcat.is_uniserial(item.obj, fam) == (True, item.order_vector)
        for i, x in enumerate(out):
            for y in out[i + 1:]:
                assert abcat.find_isomorphism(x.obj, y.obj) is None, (x.order_vector, y.order_vector)


FAN_OUT = QuiverPresentation(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")])


def test_realize_vector_skips_a_class_that_splits_over_the_socle():
    # the arrow 1 -> 3 gives [1 over 2] an extension by S_3, but its pullback
    # to the socle S_2 is zero; taking it would build a non-uniserial object
    fam = tuple((v, simple_at(FAN_OUT, v)) for v in ("1", "2", "3"))
    two = realize_vector(("1", "2"), fam)
    assert abcat.ExtSpace(two.x, dict(fam)["3"]).dim() == 1
    assert realize_vector(("1", "2", "3"), fam) is None


def test_classify_n1_returns_simples():
    fam = a3_family()
    s = species_of(fam)
    out = classify(s, fam, 1)
    assert [o.order_vector for o in out] == [("1",), ("2",), ("3",)]


def test_species_text_roundtrip():
    s = species_of(kronecker_family())
    text = species_to_text(s)
    assert text.startswith("specfile species v1\n")
    back = species_from_text(text)
    assert back == s
    assert species_to_text(back) == text


def test_species_text_rejects():
    with pytest.raises(ValueError):
        species_from_text("label a\n")
    with pytest.raises(ValueError):
        species_from_text("specfile species v1\next a b 1\n")


def test_species_text_rejects_duplicate_label():
    with pytest.raises(ValueError, match="duplicate label"):
        species_from_text("specfile species v1\nlabel a\nlabel b\nlabel a\next a b 1\n")


def test_species_text_rejects_a_repeated_ext_line():
    # the repeat used to parse as a second entry, which uc_check read as a fan-out
    text = "specfile species v1\nlabel a\nlabel b\next a b 1\n"
    assert uc_check(species_from_text(text)).ok
    for line in ("ext a b 1", "ext a b 0", "ext a b 2"):
        with pytest.raises(ValueError, match="duplicate ext"):
            species_from_text(text + line + "\n")
