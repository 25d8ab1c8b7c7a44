import random

import pytest

from conftest import polynomial_mod, rewrite_oracle, words_up_to
from uniserial.linalg import ONE, ZERO, Scalar, parse_scalar
from uniserial.weyl import (
    EulerPolynomial,
    WeylElement,
    alternating_word,
    euler,
    euler_power,
    format_weyl,
    normal_form,
    parse_weyl,
    theta,
    theta_product,
    theta_times,
    to_theta_form,
)


def test_normal_form_matches_rewriting_oracle_all_short_words():
    for w in words_up_to(6):
        assert normal_form([(1, w)]) == rewrite_oracle(w), w


def test_commutation_relation():
    t = WeylElement.gen_t()
    d = WeylElement.gen_d()
    assert d * t - t * d == WeylElement.one()


def test_normal_form_rejects_bad_letters():
    with pytest.raises(ValueError):
        normal_form([(1, "tx")])


def test_normal_form_examples():
    assert normal_form([(1, "dt")]) == WeylElement({(1, 1): ONE, (0, 0): ONE})
    assert normal_form([(1, "td")]) == WeylElement({(1, 1): ONE})
    # d(dt) = d(td + 1) = td^2 + 2d
    assert normal_form([(1, "ddt")]) == WeylElement({(1, 2): ONE, (0, 1): Scalar(2)})


def test_mul_examples():
    t = WeylElement.gen_t()
    d = WeylElement.gen_d()
    assert d * t == WeylElement({(1, 1): ONE, (0, 0): ONE})
    p = normal_form([(1, "tdtd"), (Scalar(1, 1), "dd")])
    assert p * WeylElement.one() == p
    assert euler() * euler() == normal_form([(1, "tdtd")])
    assert euler() * euler() == WeylElement({(2, 2): ONE, (1, 1): ONE})


def test_mul_associative_randomized():
    rng = random.Random(3)
    pool = [normal_form([(rng.randint(-2, 2) or 1, w)]) for w in words_up_to(4) if w]
    for _ in range(40):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_weight():
    assert WeylElement.monomial(3, 1).weight() == 2
    assert euler().weight() == 0
    assert (WeylElement.gen_t() + WeylElement.gen_d()).weight() is None
    assert WeylElement.zero().weight() is None


def test_weight_additive_on_homogeneous():
    rng = random.Random(5)
    homos = [p for p in (normal_form([(1, w)]) for w in words_up_to(5) if w) if p.weight() is not None]
    for _ in range(30):
        p, q = rng.choice(homos), rng.choice(homos)
        assert (p * q).weight() == p.weight() + q.weight()


def test_euler_power():
    alpha = parse_scalar("1/2")
    assert euler_power(alpha, 1) == euler() - WeylElement.monomial(0, 0, alpha)
    assert euler_power(Scalar(0), 2) == euler() * euler()
    e_half = euler() - WeylElement.monomial(0, 0, alpha)
    assert euler_power(alpha, 2) == e_half * e_half
    with pytest.raises(ValueError):
        euler_power(alpha, 0)


def test_alternating_word():
    assert alternating_word("0", 1) == WeylElement.gen_d()
    assert alternating_word("inf", 1) == WeylElement.gen_t()
    assert alternating_word("0", 2) == euler()
    assert alternating_word("inf", 2) == normal_form([(1, "dt")])
    assert alternating_word("0", 3) == normal_form([(1, "dtd")])
    assert alternating_word("inf", 4) == normal_form([(1, "dtdt")])
    with pytest.raises(ValueError):
        alternating_word("0", 0)
    with pytest.raises(ValueError):
        alternating_word("2", 1)


def test_falling_factorial_identity():
    for b in range(1, 6):
        assert EulerPolynomial.falling(b).to_weyl() == WeylElement.monomial(b, b)


def test_to_theta_form_examples():
    d, g = to_theta_form(euler())
    assert d == 0 and g == EulerPolynomial([ZERO, ONE])
    d, g = to_theta_form(WeylElement.monomial(2, 2))
    assert d == 0 and g == EulerPolynomial([Scalar(0), Scalar(-1), ONE])
    # expansion oracle fixes the orientation: t^2 * E = t^3 d
    d, g = to_theta_form(WeylElement.monomial(3, 1))
    assert d == 2 and g == EulerPolynomial([ZERO, ONE])
    assert theta_times(d, g) == WeylElement.monomial(3, 1)


def test_to_theta_form_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        to_theta_form(WeylElement.gen_t() + WeylElement.gen_d())


def test_theta_roundtrip_randomized():
    rng = random.Random(9)
    for _ in range(40):
        w = rng.randint(-4, 4)
        coeffs = [Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(rng.randint(1, 4))]
        g = EulerPolynomial(coeffs)
        p = theta_times(w, g)
        if p.is_zero():
            continue
        d2, g2 = to_theta_form(p)
        assert d2 == w
        assert g2 == g
        assert theta_times(d2, g2) == p


def test_theta_negative_weight():
    # d^2: theta_-2 * 1
    d, g = to_theta_form(WeylElement.monomial(0, 2))
    assert d == -2 and g == EulerPolynomial.one()
    # t d^2 = d (E - 1)
    d, g = to_theta_form(WeylElement.monomial(1, 2))
    assert d == -1 and g == EulerPolynomial([Scalar(-1), ONE])
    assert theta_times(d, g) == WeylElement.monomial(1, 2)


def test_theta_product_matches_the_algebra_product():
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert theta_product(a, b) == to_theta_form(theta(a) * theta(b))[1], (a, b)


def horner_shift(g, s):
    """g(E) -> g(E + s) by Horner's rule in E + s: the reference for the shifted falling run."""
    var = EulerPolynomial([Scalar(s), ONE])
    acc = EulerPolynomial.zero()
    for c in reversed(g.coeffs):
        acc = acc * var + EulerPolynomial([c])
    return acc


def test_shifted_falling_run_matches_the_horner_shift():
    for k in range(7):
        for s in range(-6, 7):
            assert EulerPolynomial.falling(k, s) == horner_shift(EulerPolynomial.falling(k), s), (k, s)


def test_euler_polynomial_mod_and_shift():
    g = EulerPolynomial.falling(2)  # E^2 - E
    assert horner_shift(g, 1) == EulerPolynomial([Scalar(0), ONE, ONE])
    # E^2 - E = (E - 1)E, so both linear factors divide it exactly
    assert polynomial_mod(g, EulerPolynomial([Scalar(-1), ONE])) == EulerPolynomial.zero()
    assert polynomial_mod(g, EulerPolynomial([ZERO, ONE])) == EulerPolynomial.zero()
    # remainder mod (E - 2) is the value at 2
    assert polynomial_mod(g, EulerPolynomial([Scalar(-2), ONE])) == EulerPolynomial([Scalar(2)])


def test_parse_format_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = Scalar(rng.randint(-3, 3), rng.randint(-2, 2))
        p = WeylElement(terms)
        assert parse_weyl(format_weyl(p)) == p
    assert parse_weyl("3*t^2*d^1") == WeylElement.monomial(2, 1, Scalar(3))
    assert parse_weyl("t*d + 1") == normal_form([(1, "dt")])
    assert parse_weyl("(1/2+1/3*i)*d") == WeylElement.monomial(0, 1, parse_scalar("1/2+1/3*i"))
    assert parse_weyl("i/3") == WeylElement.monomial(0, 0, parse_scalar("i/3"))
    assert parse_weyl("1/2") == WeylElement.monomial(0, 0, parse_scalar("1/2"))
    with pytest.raises(ValueError):
        parse_weyl("t^-1")
    with pytest.raises(ValueError):
        parse_weyl("x + 1")


def test_theta_helper():
    assert theta(3) == WeylElement.monomial(3, 0)
    assert theta(-2) == WeylElement.monomial(0, 2)
    assert theta(0) == WeylElement.one()
