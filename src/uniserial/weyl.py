"""Exact arithmetic in the first Weyl algebra k[t]<d> with d*t - t*d = 1.

Elements are kept in normal form sum c_ab * t^a * d^b (all t's left of all
d's).  The grading gives t weight +1 and d weight -1, so a monomial t^a d^b
has weight a - b.  Homogeneous elements of weight w factor uniquely as
theta_w * g(E), where theta_w = t^w (w >= 0) or d^(-w) (w < 0) and E = t*d
is the Euler operator; that factorization drives all per-weight module
computations downstream.  Two theta factors multiply to one up to an Euler
polynomial, theta_a * theta_b = theta_(a+b) * c_ab(E), and c_ab is a run of
consecutive linear factors in closed form (theta_product), so the theta
form of theta_a * p is read off that of p without a product in the algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import ONE, ZERO, Scalar, format_scalar, parse_int, parse_scalar


def _binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


class WeylElement:
    """Normal-form element of the first Weyl algebra over Gaussian rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for (a, b), c in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError("negative exponent in Weyl monomial")
            if c:
                clean[(a, b)] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    @staticmethod
    def zero() -> "WeylElement":
        return WeylElement({})

    @staticmethod
    def one() -> "WeylElement":
        return WeylElement({(0, 0): ONE})

    @staticmethod
    def gen_t() -> "WeylElement":
        return WeylElement({(1, 0): ONE})

    @staticmethod
    def gen_d() -> "WeylElement":
        return WeylElement({(0, 1): ONE})

    @staticmethod
    def monomial(a: int, b: int, coef: Scalar = ONE) -> "WeylElement":
        return WeylElement({(a, b): coef})

    def terms(self):
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "WeylElement") -> "WeylElement":
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return WeylElement(out)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def __neg__(self) -> "WeylElement":
        return WeylElement({k: -c for k, c in self._terms.items()})

    def scale(self, c: Scalar) -> "WeylElement":
        if not c:
            return WeylElement.zero()
        return WeylElement({k: c * v for k, v in self._terms.items()})

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # t^a1 d^b1 * t^a2 d^b2 =
        #   sum_k C(b1,k) (a2)_k t^(a1+a2-k) d^(b1+b2-k)
        out = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                c = c1 * c2
                for k in range(min(b1, a2) + 1):
                    f = _binomial(b1, k) * _falling(a2, k)
                    key = (a1 + a2 - k, b1 + b2 - k)
                    add = c * Scalar(f)
                    s = out.get(key)
                    out[key] = add if s is None else s + add
        return WeylElement(out)

    def __pow__(self, n: int) -> "WeylElement":
        if n < 0:
            raise ValueError("negative power")
        acc = WeylElement.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def weight(self):
        """a - b if all monomials share it (homogeneous), else None."""
        w = None
        for a, b in self._terms:
            if w is None:
                w = a - b
            elif a - b != w:
                return None
        return w

    def __repr__(self):
        return "WeylElement(%s)" % format_weyl(self)

    def __str__(self):
        return format_weyl(self)


def normal_form(words) -> "WeylElement":
    """Normal form of a sum of generator words.

    Each item is (coefficient, word) with the word a string over {t, d}
    (the unicode partial sign is accepted as an alias for d), read left to
    right as a product.  Equivalent to exhaustively rewriting dt -> td + 1.
    """
    total = WeylElement.zero()
    for coef, word in words:
        if not isinstance(coef, Scalar):
            coef = Scalar(coef)
        acc = WeylElement.one().scale(coef)
        for ch in word.replace("∂", "d"):
            if ch == "t":
                acc = acc * WeylElement.gen_t()
            elif ch == "d":
                acc = acc * WeylElement.gen_d()
            else:
                raise ValueError("letter %r not in alphabet {t, d}" % ch)
        total = total + acc
    return total


def euler() -> WeylElement:
    return WeylElement.monomial(1, 1)


def euler_power(alpha: Scalar, n: int) -> WeylElement:
    """Normal form of (E - alpha)^n, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = euler() - WeylElement.monomial(0, 0, alpha)
    return base ** n


def alternating_word(beta: str, n: int) -> WeylElement:
    """Normal form of the alternating n-letter word in t and d.

    The word ends (rightmost letter) in d for beta = "0" and in t for
    beta = "inf".
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if beta not in ("0", "inf"):
        raise ValueError("beta must be '0' or 'inf'")
    last = "d" if beta == "0" else "t"
    letters = []
    cur = last
    for _ in range(n):
        letters.append(cur)
        cur = "t" if cur == "d" else "d"
    return normal_form([(ONE, "".join(reversed(letters)))])


def theta(d: int) -> WeylElement:
    """t^d for d >= 0, d-power of the derivation for d < 0."""
    if d >= 0:
        return WeylElement.monomial(d, 0)
    return WeylElement.monomial(0, -d)


class EulerPolynomial:
    """Univariate polynomial g(E) over Gaussian rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("EulerPolynomial is immutable")

    @staticmethod
    def zero() -> "EulerPolynomial":
        return EulerPolynomial([])

    @staticmethod
    def one() -> "EulerPolynomial":
        return EulerPolynomial([ONE])

    @staticmethod
    def falling(k: int, s: int = 0) -> "EulerPolynomial":
        """(E+s)(E+s-1)...(E+s-k+1), k consecutive linear factors.

        With s = 0 it is the normal form of t^k d^k, and falling(k, s) is
        falling(k) with E replaced by E + s.  The coefficients are integers
        until the end.
        """
        cs = [1]
        for c in range(s, s - k, -1):
            # times (E + c)
            cs = [c * cs[0]] + [a + c * b for a, b in zip(cs, cs[1:])] + [1]
        return EulerPolynomial([Scalar(c) for c in cs])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, EulerPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [ZERO] * (n - len(other.coeffs))
        return EulerPolynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return EulerPolynomial([-c for c in self.coeffs])

    def scale(self, c: Scalar):
        return EulerPolynomial([c * x for x in self.coeffs])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return EulerPolynomial.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return EulerPolynomial(out)

    def monic(self) -> "EulerPolynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == ONE:
            return self
        return self.scale(ONE / lead)

    def to_weyl(self) -> WeylElement:
        """Expand g(E) as a normal-form Weyl element."""
        e = euler()
        acc = WeylElement.zero()
        power = WeylElement.one()
        for c in self.coeffs:
            if c:
                acc = acc + power.scale(c)
            power = power * e
        return acc

    def __repr__(self):
        return "EulerPolynomial(%s)" % (list(map(format_scalar, self.coeffs)),)


def to_theta_form(p: WeylElement):
    """Factor a homogeneous p as theta_d * g(E); returns (d, g).

    Uses t^b d^b = E(E-1)...(E-b+1): for weight d >= 0 a monomial
    t^(b+d) d^b contributes the falling factorial of length b, and for
    d < 0 the factor d^(-d) moves out to the left, shifting E by d.
    """
    d = p.weight()
    if d is None:
        raise ValueError("element is not homogeneous")
    g = EulerPolynomial.zero()
    for (a, b), c in p.terms():
        piece = EulerPolynomial.falling(b) if d >= 0 else EulerPolynomial.falling(a, d)
        g = g + piece.scale(c)
    return d, g


@lru_cache(maxsize=None)
def theta_product(a: int, b: int) -> EulerPolynomial:
    """c_ab with theta_a * theta_b = theta_(a+b) * c_ab(E), in closed form.

    c_ab is the run falling(k, s) = (E+s)(E+s-1)...(E+s-k+1): c = 1 when
    a and b have the same sign or one is 0; k = min(a, -b), s = min(0, a+b)
    when a > 0 > b; k = min(-a, b), s = b when a < 0 < b.  From E = t*d,
    d*t = E + 1, g(E)*t = t*g(E+1) and g(E)*d = d*g(E-1), with m = -b and
    n = -a: t^a d^m is t^(a-m) * t^m d^m = t^(a-m) * falling(m) when
    a >= m, and t^a d^a * d^(m-a) = d^(m-a) * falling(a, a+b) when a < m;
    d^n t^b is d^n t^n * t^(b-n) = t^(b-n) * falling(n, b) when b >= n,
    since d^n t^n = falling(n, n), and d^(n-b) * falling(b, b) when b < n.
    """
    if a > 0 > b:
        return EulerPolynomial.falling(min(a, -b), min(0, a + b))
    if a < 0 < b:
        return EulerPolynomial.falling(min(-a, b), b)
    return EulerPolynomial.one()


def theta_times(d: int, g: EulerPolynomial) -> WeylElement:
    """Expand theta_d * g(E) back into a normal-form Weyl element."""
    return theta(d) * g.to_weyl()


def format_weyl(p: WeylElement) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for (a, b), c in sorted(p._terms.items(), reverse=True):
        factors = []
        if a:
            factors.append("t" if a == 1 else "t^%d" % a)
        if b:
            factors.append("d" if b == 1 else "d^%d" % b)
        ctxt = format_scalar(c)
        if not factors:
            factors = ["(%s)" % ctxt if (c.re and c.im) else ctxt]
        elif c != ONE:
            needs_parens = bool(c.re and c.im)
            factors.insert(0, "(%s)" % ctxt if needs_parens else ctxt)
        parts.append("*".join(factors))
    return " + ".join(parts)


def parse_weyl(text: str) -> WeylElement:
    """Parse the textual Weyl-element format emitted by format_weyl.

    Terms are '+'/'-'-separated products of a scalar literal (parenthesized
    when it mixes real and imaginary parts), t^a and d^b.
    """
    t = text.strip().replace(" ", "").replace("∂", "d")
    if not t:
        raise ValueError("empty Weyl element literal")
    terms = []
    depth = 0
    start = 0
    for pos, ch in enumerate(t):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and pos > start and t[pos - 1] not in "+-*/^(":
            terms.append(t[start:pos])
            start = pos
    terms.append(t[start:])
    total = WeylElement.zero()
    for term in terms:
        total = total + _parse_weyl_term(term, text)
    return total


def _parse_weyl_term(term: str, orig: str) -> WeylElement:
    sign = ONE
    while term and term[0] in "+-":
        if term[0] == "-":
            sign = -sign
        term = term[1:]
    if not term:
        raise ValueError("empty term in %r" % orig)
    coef = sign
    a = b = 0
    for factor in _split_factors(term, orig):
        if not factor:
            raise ValueError("empty factor in %r" % orig)
        if factor[0] == "(":
            if not factor.endswith(")"):
                raise ValueError("unbalanced parentheses in %r" % orig)
            coef = coef * parse_scalar(factor[1:-1])
        elif factor[0] == "t":
            a += _parse_exponent(factor, orig)
        elif factor[0] == "d" and (len(factor) == 1 or factor[1] == "^"):
            b += _parse_exponent(factor, orig)
        else:
            coef = coef * parse_scalar(factor)
    return WeylElement.monomial(a, b, coef)


def _split_factors(term: str, orig: str):
    factors = []
    depth = 0
    start = 0
    for pos, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in %r" % orig)
        elif ch == "*" and depth == 0:
            # '*' inside a scalar like 2*i belongs to the coefficient
            if pos + 1 < len(term) and term[pos + 1] == "i":
                continue
            factors.append(term[start:pos])
            start = pos + 1
    if depth != 0:
        raise ValueError("unbalanced parentheses in %r" % orig)
    factors.append(term[start:])
    return factors


def _parse_exponent(factor: str, orig: str) -> int:
    if len(factor) == 1:
        return 1
    if factor[1] != "^":
        raise ValueError("bad generator factor %r in %r" % (factor, orig))
    try:
        e = parse_int(factor[2:])
    except ValueError:
        raise ValueError("bad exponent in %r" % orig) from None
    if e < 0:
        raise ValueError("negative exponent in %r" % orig)
    return e
