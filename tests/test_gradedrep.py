import random
from fractions import Fraction

import pytest

from conftest import from_rows, graded_dual, reference_ideal_quotient_rep, reference_validate
from uniserial import gradedrep
from uniserial.gradedrep import (
    GradedRep,
    from_text,
    ideal_quotient_rep,
    in_alpha_range,
    simple_rep,
    to_text,
    twist_rep,
    validate,
)
from uniserial.linalg import Matrix, ONE, Scalar, parse_scalar
from uniserial.weyl import WeylElement, alternating_word, euler_power
from uniserial.weylcat import CatalogKey, catalog_module, default_window

HALF = parse_scalar("1/2")
MIXED = parse_scalar("1/3+1/2*i")


def eigval(m, w):
    e = m.edge_matrix(("t", w - 1)) * m.edge_matrix(("p", w))
    assert e.rows == e.cols == 1
    return e[0, 0]


def test_alpha_range():
    assert in_alpha_range(HALF)
    assert in_alpha_range(MIXED)
    assert in_alpha_range(parse_scalar("i"))  # re = 0 but nonzero
    assert not in_alpha_range(Scalar(0))
    assert not in_alpha_range(parse_scalar("3/2"))
    assert not in_alpha_range(parse_scalar("-1/2"))


def test_simple_alpha_all_weights():
    m = simple_rep(HALF, 0, (-3, 3))
    assert all(m.dims[w] == 1 for w in range(-3, 4))
    assert validate(m) == []
    for w in range(-2, 4):
        assert eigval(m, w) == HALF + Scalar(w)
    # raising and lowering never vanish off the integers
    for w in range(-3, 3):
        assert m.edge_matrix(("t", w))[0, 0]
    for w in range(-2, 4):
        assert m.edge_matrix(("p", w))[0, 0]


def test_simple_alpha_agrees_with_ideal_quotient():
    a = simple_rep(HALF, 0, (-2, 2))
    b = ideal_quotient_rep(euler_power(HALF, 1), (-2, 2))
    assert a == b


def test_simple_zero_half_line():
    m = simple_rep("0", 0, (-3, 3))
    assert [m.dims[w] for w in range(-3, 4)] == [0, 0, 0, 1, 1, 1, 1]
    assert validate(m) == []
    # d acts as t^w -> w t^(w-1)
    for w in range(1, 4):
        assert m.edge_matrix(("p", w))[0, 0] == Scalar(w)
    for w in range(0, 3):
        assert m.edge_matrix(("t", w))[0, 0] == ONE


def test_simple_inf_half_line_below_zero():
    m = simple_rep("inf", 0, (-3, 3))
    assert [m.dims[w] for w in range(-3, 4)] == [1, 1, 1, 0, 0, 0, 0]
    assert validate(m) == []
    z = simple_rep("0", 0, (-3, 3))
    top_inf = max(w for w in range(-3, 4) if m.dims[w])
    bottom_zero = min(w for w in range(-3, 4) if z.dims[w])
    assert top_inf < bottom_zero


def test_simple_rejects_bad_labels():
    with pytest.raises(ValueError):
        simple_rep(Scalar(0), 0, (-2, 2))
    with pytest.raises(ValueError):
        simple_rep(parse_scalar("3/2"), 0, (-2, 2))
    with pytest.raises(ValueError):
        simple_rep("oo", 0, (-2, 2))
    with pytest.raises(ValueError):
        simple_rep(HALF, 0, (2, -2))


def test_twist():
    m = simple_rep("0", 0, (-3, 3))
    assert twist_rep(m, 0) == m
    shifted = twist_rep(m, 1)
    direct = simple_rep("0", 1, (-2, 4))
    assert shifted == direct
    assert twist_rep(twist_rep(m, 2), -2) == m


def test_ideal_quotient_square():
    m = ideal_quotient_rep(euler_power(HALF, 2), (-2, 2))
    assert all(m.dims[w] == 2 for w in range(-2, 3))
    assert validate(m) == []
    for w in range(-1, 3):
        e = m.edge_matrix(("t", w - 1)) * m.edge_matrix(("p", w))
        n = e - Matrix.identity(2).scale(HALF + Scalar(w))
        assert not n.is_zero()
        assert (n * n).is_zero()


def test_ideal_quotient_constant_dims_for_interior_alpha():
    m = ideal_quotient_rep(euler_power(MIXED, 3), (-4, 4))
    assert all(m.dims[w] == 3 for w in range(-4, 5))
    assert validate(m) == []


def test_ideal_quotient_word():
    m = ideal_quotient_rep(alternating_word("0", 2), (-3, 3))
    assert all(m.dims[w] == 1 for w in range(-3, 4))
    assert validate(m) == []


def test_ideal_quotient_rejects():
    with pytest.raises(ValueError):
        ideal_quotient_rep(WeylElement.zero(), (-2, 2))
    with pytest.raises(ValueError):
        ideal_quotient_rep(WeylElement.gen_t() + WeylElement.gen_d(), (-2, 2))


def random_homogeneous(rng):
    """A nonzero element of weight -3..3 with 1-3 monomials and Gaussian-rational coefficients."""
    w = rng.randint(-3, 3)
    low = max(0, -w)
    terms = {}
    for b in rng.sample(range(low, low + 4), rng.randint(1, 3)):
        coef = Scalar(0)
        while not coef:
            coef = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        terms[(b + w, b)] = coef
    return WeylElement(terms)


def quotient_generators():
    gens = [euler_power(parse_scalar(a), n) for a in ("1/2", "2/3", "1/3+1/2*i") for n in range(1, 5)]
    gens += [alternating_word(beta, n) for beta in ("0", "inf") for n in range(1, 5)]
    gens += [WeylElement.monomial(1, 1) - WeylElement.monomial(0, 0, HALF), WeylElement.gen_d(), WeylElement.gen_t()]
    rng = random.Random(20)
    return gens + [random_homogeneous(rng) for _ in range(30)]


@pytest.mark.parametrize("window", [(-9, 9), (3, 9), (-9, -3), (0, 0)])
def test_ideal_quotient_matches_the_weight_by_weight_products(window):
    for p in quotient_generators():
        m = ideal_quotient_rep(p, window)
        ref = reference_ideal_quotient_rep(p, window)
        assert m.dims == ref.dims, p
        assert m.mats.keys() == ref.mats.keys()
        for arrow, mat in ref.mats.items():
            assert m.mats[arrow] == mat, (p, arrow)


@pytest.mark.parametrize(
    "p, window",
    [
        (WeylElement.zero(), (-2, 2)),
        (WeylElement.zero(), (2, -2)),
        (WeylElement.gen_t() + WeylElement.gen_d(), (-2, 2)),
        (WeylElement.gen_t() + WeylElement.gen_d(), (2, -2)),
        (WeylElement.gen_t(), (2, -2)),
    ],
)
def test_ideal_quotient_raises_the_reference_errors(p, window):
    with pytest.raises(ValueError) as ref:
        reference_ideal_quotient_rep(p, window)
    with pytest.raises(ValueError) as got:
        ideal_quotient_rep(p, window)
    assert str(got.value) == str(ref.value)


def test_ideal_quotient_takes_one_theta_form_and_no_weyl_product(monkeypatch):
    factorings = []
    products = []
    real_form = gradedrep.to_theta_form
    real_mul = WeylElement.__mul__

    def form(p):
        factorings.append(p)
        return real_form(p)

    def mul(x, y):
        products.append((x, y))
        return real_mul(x, y)

    p = euler_power(MIXED, 3)
    monkeypatch.setattr(gradedrep, "to_theta_form", form)
    monkeypatch.setattr(WeylElement, "__mul__", mul)
    m = ideal_quotient_rep(p, (-9, 9))
    monkeypatch.undo()
    assert factorings == [p]
    assert products == []
    assert m == reference_ideal_quotient_rep(p, (-9, 9))


SIMPLE_LABELS = tuple(parse_scalar(a) for a in ("1/2", "2/3", "1/3", "1/3+1/2*i", "1/3+1/3*i")) + ("0", "inf")


def reference_shifted(gen, offset, window):
    """reference_ideal_quotient_rep of gen on the window moved down by offset, twisted back up by it."""
    return twist_rep(reference_ideal_quotient_rep(gen, (window[0] - offset, window[1] - offset)), offset)


def reference_simple(label, twist, window):
    """simple_rep through reference_ideal_quotient_rep: t d - alpha, d or t, 'inf' one weight lower."""
    if label == "0":
        return reference_shifted(WeylElement.gen_d(), twist, window)
    if label == "inf":
        return reference_shifted(WeylElement.gen_t(), twist - 1, window)
    return reference_shifted(WeylElement.monomial(1, 1) - WeylElement.monomial(0, 0, label), twist, window)


def shapes(m):
    """(rows, cols) of every arrow matrix of m."""
    return {(a.rows, a.cols) for a in m.mats.values()}


@pytest.mark.parametrize("window", [(-7, 7), (-9, -3), (3, 9), (0, 0), (-1, -1), (-1, 0)])
def test_simples_match_the_reference_builder_on_every_window(window):
    # every label at twists -2..2; off their support the boundary simples have zero-dimensional weights
    seen = set()
    for label in SIMPLE_LABELS:
        for twist in range(-2, 3):
            m = simple_rep(label, twist, window)
            assert m == reference_simple(label, twist, window), (label, twist)
            seen |= shapes(m)
    if window[0] < window[1]:
        assert (1, 1) in seen
    if window[0] < 0 <= window[1]:
        # a one-row map out of a zero-dimensional weight, and a one-column map into one
        assert {(1, 0), (0, 1)} <= seen


@pytest.mark.parametrize("window", [(-9, 9), (-2, 2), (0, 0), (4, 4)])
def test_generators_up_to_length_5_match_the_reference_builder(window):
    gens = [euler_power(a, n) for a in SIMPLE_LABELS[:5] for n in range(1, 6)]
    gens += [alternating_word(beta, n) for beta in ("0", "inf") for n in range(1, 6)]
    for p in gens:
        assert ideal_quotient_rep(p, window) == reference_ideal_quotient_rep(p, window), p


def test_catalog_modules_up_to_length_5_match_the_reference_builder():
    for n in range(1, 6):
        window = default_window(n)
        for twist in (-1, 0, 1):
            keys = [CatalogKey("euler", a, None, n, twist) for a in SIMPLE_LABELS[:5]]
            keys += [CatalogKey("word", None, beta, n, twist) for beta in ("0", "inf")]
            for key in keys:
                wide = (window[0] - 1, window[1] + 1)
                gen = euler_power(key.alpha, n) if key.kind == "euler" else alternating_word(key.beta, n)
                offset = twist - 1 if key.beta == "inf" else twist
                assert catalog_module(key, wide) == reference_shifted(gen, offset, wide), key


def test_validate_zero_rep():
    z = GradedRep((-2, 2), {}, {}, {})
    assert validate(z) == []


def test_validate_negative_control():
    m = simple_rep(HALF, 0, (-2, 2))
    corrupted = m.with_matrices(m.dims, {**m.mats, ("t", 0): from_rows([[Scalar(7)]])})
    bad = validate(corrupted)
    assert bad and all("weight" in v for v in bad)
    weights = {int(v.split()[-1]) for v in bad}
    assert weights <= {0, 1}


def test_validate_matches_the_hand_written_commutator():
    # the shared relation evaluator against p t - t p = 1 written out, on the
    # catalog modules, their duals and seeded copies with one entry perturbed
    rng = random.Random(15)
    keys = [CatalogKey("euler", a, None, n) for a in (HALF, MIXED) for n in (1, 2, 3)]
    keys += [CatalogKey("word", None, b, n) for b in ("0", "inf") for n in (1, 2, 3)]
    broken = 0
    for key in keys:
        cat = catalog_module(key, default_window(key.n))
        for m in (cat, graded_dual(cat)):
            assert validate(m) == reference_validate(m) == [], key
            for _ in range(3):
                edge = rng.choice([e for e, mat in m.mats.items() if mat.rows and mat.cols])
                mat = m.edge_matrix(edge)
                i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
                rows = [list(mat.row(r)) for r in range(mat.rows)]
                rows[i][j] = rows[i][j] + Scalar(rng.choice([-2, -1, 1, 3]))
                bad = m.with_matrices(m.dims, {**m.mats, edge: from_rows(rows)})
                assert validate(bad) == reference_validate(bad), (key, edge)
                broken += bool(validate(bad))
    assert broken > 50


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GradedRep((-1, 1), {-1: 1, 0: 1, 1: 1}, {0: Matrix.zero(2, 1)}, {})


def test_serialization_roundtrip():
    for m in (
        simple_rep(MIXED, 1, (-3, 3)),
        simple_rep("inf", 0, (-3, 3)),
        ideal_quotient_rep(euler_power(HALF, 2), (-2, 2)),
        GradedRep((-1, 1), {}, {}, {}),
    ):
        text = to_text(m)
        assert text.startswith("specfile gradedrep v1\n")
        assert from_text(text) == m
        assert to_text(from_text(text)) == text


def test_from_text_rejects_untagged():
    with pytest.raises(ValueError):
        from_text("window -1 1\n")


def test_from_text_skips_comment_lines_before_the_tag_only():
    m = ideal_quotient_rep(euler_power(HALF, 2), (-2, 2))
    text = to_text(m)
    header = "# euler (E - 1/2)^2\n#\n"
    assert from_text(header + text) == m
    tag, rest = text.split("\n", 1)
    with pytest.raises(ValueError, match="unknown line"):
        from_text("%s\n# comment\n%s" % (tag, rest))
    with pytest.raises(ValueError, match="unknown line"):
        from_text(text + "# trailing comment\n")


def test_from_text_rejects_unknown_map_kind():
    text = "specfile gradedrep v1\nwindow -1 1\ndim 0 1\ndim 1 1\nmap q 0 1x1 1\n"
    with pytest.raises(ValueError, match="map kind"):
        from_text(text)
    assert from_text(text.replace("map q", "map t")).edge_matrix(("t", 0)) == from_rows([[ONE]])


@pytest.mark.parametrize(
    "line",
    ["dim 2 1", "dim -2 1", "map t 1 0x0", "map t -2 0x0", "map p -1 0x0", "map p 2 0x0"],
)
def test_from_text_rejects_weights_outside_window(line):
    with pytest.raises(ValueError, match="outside the window"):
        from_text("specfile gradedrep v1\nwindow -1 1\n%s\n" % line)


@pytest.mark.parametrize(
    "line",
    ["window -1 1", "dim 0 2", "map t 0 1x1 2", "map p 1 1x1 2"],
)
def test_from_text_rejects_a_repeated_line(line):
    text = "specfile gradedrep v1\nwindow -1 1\ndim 0 1\ndim 1 1\nmap t 0 1x1 1\nmap p 1 1x1 0\n"
    from_text(text)
    with pytest.raises(ValueError, match="duplicate"):
        from_text(text + line + "\n")
