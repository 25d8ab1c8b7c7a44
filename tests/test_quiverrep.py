import pytest

from conftest import from_rows
from uniserial.gradedrep import simple_rep, validate
from uniserial.linalg import Matrix, Scalar, parse_scalar
from uniserial.quiverrep import (
    KRONECKER,
    QuiverPresentation,
    QuiverRep,
    RelationViolation,
    parse_presentation,
    simple_at,
    to_text,
)


def M(rows):
    return from_rows([[Scalar(e) for e in r] for r in rows])


LOOP = QuiverPresentation(["1"], [("x", "1", "1")], [("1", "1", ((Scalar(1), ("x", "x")),))])


def test_zero_maps_always_valid():
    r = QuiverRep(LOOP, {"1": 2}, {})
    assert r.dims == {"1": 2}
    assert r.mats["x"].is_zero()


def test_kronecker_rep():
    r = QuiverRep(KRONECKER, {"1": 1, "2": 1}, {"a": M([[1]]), "b": M([[0]])})
    assert r.slot_dim("1") == 1
    assert r.edge_matrix("a") == M([[1]])


def test_loop_relation_enforced():
    good = QuiverRep(LOOP, {"1": 2}, {"x": M([[0, 1], [0, 0]])})
    assert good.mats["x"][0, 1] == Scalar(1)
    with pytest.raises(RelationViolation):
        QuiverRep(LOOP, {"1": 2}, {"x": Matrix.identity(2)})


def test_the_two_relation_policies():
    # a quiver representation checks its relations on every construction,
    # with_matrices included; a graded module leaves them to validate
    zero = QuiverRep(LOOP, {"1": 2}, {})
    with pytest.raises(RelationViolation, match="x.x"):
        zero.with_matrices({"1": 2}, {"x": Matrix.identity(2)})
    m = simple_rep(parse_scalar("1/2"), 0, (-2, 2))
    bad = m.with_matrices(m.dims, {**m.mats, ("t", 0): M([[7]])})
    assert validate(bad) == ["commutation identity fails at weight 0", "commutation identity fails at weight 1"]


def test_shape_check():
    with pytest.raises(ValueError):
        QuiverRep(KRONECKER, {"1": 1, "2": 2}, {"a": M([[1]])})


def test_simple_at():
    s1 = simple_at(KRONECKER, "1")
    s2 = simple_at(KRONECKER, "2")
    assert s1.dims == {"1": 1, "2": 0}
    assert s2.dims == {"1": 0, "2": 1}
    assert s1.dims != s2.dims
    with pytest.raises(ValueError):
        simple_at(KRONECKER, "3")


def test_relation_composability_checked():
    with pytest.raises(ValueError):
        QuiverPresentation(
            ["1", "2"],
            [("a", "1", "2")],
            [("1", "2", ((Scalar(1), ("a", "a")),))],
        )


def test_identity_terms():
    # projector relation x^2 - x = 0 written with an identity term times zero
    pres = QuiverPresentation(
        ["1"],
        [("x", "1", "1")],
        [("1", "1", ((Scalar(1), ("x", "x")), (Scalar(-1), ("x",))))],
    )
    QuiverRep(pres, {"1": 2}, {"x": M([[1, 0], [0, 0]])})
    with pytest.raises(RelationViolation):
        QuiverRep(pres, {"1": 2}, {"x": M([[0, 1], [0, 0]])})


def test_text_roundtrip_presentation_only():
    pres = QuiverPresentation(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3")],
        [("1", "3", ((Scalar(1), ("a", "b")),))],
    )
    text = to_text(pres)
    parsed, parsed_rep = parse_presentation(text)
    assert parsed == pres
    assert parsed_rep is None
    assert to_text(parsed) == text


def test_text_roundtrip_with_rep():
    r = QuiverRep(KRONECKER, {"1": 1, "2": 2}, {"a": M([[1], [0]]), "b": M([[0], [1]])})
    text = to_text(KRONECKER, r)
    parsed, parsed_rep = parse_presentation(text)
    assert parsed == KRONECKER
    assert parsed_rep == r
    assert to_text(parsed, parsed_rep) == text


def test_parse_rejects_untagged():
    with pytest.raises(ValueError):
        parse_presentation("node 1\n")


@pytest.mark.parametrize("line", ["rep dim 1 2", "rep map a 1x1 3"])
def test_parse_rejects_a_repeated_rep_line(line):
    text = "specfile quiver v1\nnode 1\nnode 2\narrow a 1 2\nrep dim 1 1\nrep dim 2 1\nrep map a 1x1 1\n"
    assert parse_presentation(text)[1].dims == {"1": 1, "2": 1}
    with pytest.raises(ValueError, match="duplicate rep"):
        parse_presentation(text + line + "\n")


@pytest.mark.parametrize("term", ["a*b", "e(1)*a", "a*e(2)", "2*a.b*b", "e(1)*e(1)"])
def test_parse_rejects_a_term_with_two_path_factors(term):
    text = "specfile quiver v1\nnode 1\nnode 2\narrow a 1 2\narrow b 2 2\nrelation %s\n"
    # one path factor, with or without coefficients, still parses
    assert parse_presentation(text % "2*a.b*(1/2)")[0].relation_list == (("1", "2", ((Scalar(1), ("a", "b")),)),)
    with pytest.raises(ValueError, match="two path factors"):
        parse_presentation(text % term)


def test_relation_with_gaussian_coefficient_roundtrips():
    pres = QuiverPresentation(
        ["1"],
        [("x", "1", "1"), ("y", "1", "1")],
        [("1", "1", ((parse_scalar("1/2+1/3*i"), ("x", "y")), (parse_scalar("-2*i"), ("y", "x"))))],
    )
    text = to_text(pres)
    parsed, _ = parse_presentation(text)
    assert parsed == pres
    assert to_text(parsed) == text


def test_relation_violation_reports_culprit():
    try:
        QuiverRep(LOOP, {"1": 2}, {"x": Matrix.identity(2)})
    except RelationViolation as exc:
        assert "x.x" in str(exc)
    else:
        raise AssertionError("expected RelationViolation")
