import pytest

from uniserial import abcat
from uniserial.linalg import Scalar, parse_scalar
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
from uniserial.weylcat import weyl_simple_family

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
    e2 = realize_vector(("0@0", "inf@0", "0@0"), fam, basis_choice=1)
    assert e1 is not None and e2 is not None
    assert abcat.are_isomorphic(e1.x, e2.x)
    assert e1.order_vector == e2.order_vector


def test_realize_vector_classes_nonzero():
    fam = a3_family()
    ext = realize_vector(("1", "2", "3"), fam)
    xis, taus = ext._classes
    assert all(not xi.is_zero() for xi in xis)
    assert all(not tau.is_zero() for tau in taus)


@pytest.mark.parametrize("basis_choice", [0, 1])
def test_realize_vector_rescales_the_pulled_back_class(basis_choice):
    # each step's tau is its first pullback rescaled, not pulled back again;
    # a fresh pullback of the rescaled class must give the same vector and coordinates
    weyl = weyl_simple_family([HALF, parse_scalar("1/3+1/2*i"), "0", "inf"], [0], WINDOW)
    cases = [
        (("1", "2", "3"), a3_family()),
        (("0@0", "inf@0", "0@0", "inf@0"), weyl),
        (("1/2@0", "1/2@0", "1/2@0"), weyl),
        (("1/3+1/2*i@0", "1/3+1/2*i@0"), weyl),
    ]
    for v, fam in cases:
        ext = realize_vector(v, fam, basis_choice)
        xis, taus = ext._classes
        assert len(taus) == len(v) - 1
        for xi, tau, mono in zip(xis, taus, ext.kernel_monos):
            fresh = abcat.pullback_extension(xi, mono)
            assert (fresh.vector, fresh.coords) == (tau.vector, tau.coords), v
            # scaled so that the first nonzero coordinate is one
            assert next(c for c in tau.coords if c) == Scalar(1)


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
            assert item.uniserial_series == item.order_vector
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
    assert out2[0].uniserial_series == ("1", "1")
    assert classify(s, fam, 3) == []


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
