import operator
import random
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    apply,
    catalog_keys,
    dense_rref_rows,
    from_rows,
    reference_inverse,
    reference_product,
    reference_solve,
)
from uniserial import abcat, linalg
from uniserial.linalg import (
    I,
    MINUS_ONE,
    ONE,
    ZERO,
    Matrix,
    Scalar,
    _rank_rows,
    _rref_rows,
    algebra_radical,
    column_space_basis,
    extend_basis,
    format_scalar,
    in_span,
    inverse,
    kernel_basis,
    parse_int,
    parse_matrix,
    parse_scalar,
    rank,
    rank_rows,
    rref,
    solve,
    solve_matrix,
)
from uniserial.weylcat import catalog_module, default_window


def S(x, y=0):
    return Scalar(x, y)


def M(rows):
    return from_rows([[S(e) if not isinstance(e, Scalar) else e for e in r] for r in rows])


def test_scalar_arithmetic_exact():
    a = parse_scalar("1/2+1/3*i")
    b = parse_scalar("2/3-i")
    assert a + b == parse_scalar("7/6-2/3*i")
    assert a * b == parse_scalar("2/3-5/18*i")
    assert (a / b) * b == a
    assert -a == parse_scalar("-1/2-1/3*i")


class FractionPairScalar:
    """The Scalar that the integer triple replaced: a pair of Fractions re + im*i.

    Kept as the reference of the differential test below; format_scalar
    reads only .re and .im, so it formats either class.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, FractionPairScalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return FractionPairScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPairScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPairScalar(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionPairScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        if not other.re and not other.im:
            raise ZeroDivisionError("division by zero Scalar")
        c, d = other.re, other.im
        n = c * c + d * d
        a, b = self.re, self.im
        return FractionPairScalar((a * c + b * d) / n, (b * c - a * d) / n)


# components: 0, small and huge integers of either sign, and fractions
_PART = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=12),
    st.fractions(max_denominator=10**15),
)
# real, pure imaginary and general Gaussian rationals as (re, im)
_GAUSSIAN = st.one_of(
    st.tuples(_PART, st.just(0)),
    st.tuples(st.just(0), _PART),
    st.tuples(_PART, _PART),
)


def assert_matches_reference(s, ref):
    a, b, d = s._t
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert (s.re, s.im) == (ref.re, ref.im)
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert bool(s) == bool(ref)
    for n in (-1, 0, 1, 2, True, False):
        assert (s == n) == (ref == n)
        # Python's rule: values that compare equal hash equal
        assert hash(s) == hash(n) or s != n
    assert str(s) == format_scalar(s) == format_scalar(ref)
    assert parse_scalar(str(s)) == s


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_GAUSSIAN, _GAUSSIAN)
@example((0, 0), (0, 0))
@example((Fraction(1, 2), Fraction(-1, 3)), (0, 0))
@example((3, 0), (-6, 0))
@example((0, 1), (0, -1))
def test_scalar_triple_matches_fraction_pair_reference(x, y):
    s, t = Scalar(*x), Scalar(*y)
    rs, rt = FractionPairScalar(*x), FractionPairScalar(*y)
    assert_matches_reference(s, rs)
    assert_matches_reference(t, rt)
    assert (s == t) == (rs == rt)
    assert_matches_reference(-s, -rs)
    for op in (operator.add, operator.sub, operator.mul):
        assert_matches_reference(op(s, t), op(rs, rt))
    if rt:
        assert_matches_reference(s / t, rs / rt)
    else:
        with pytest.raises(ZeroDivisionError):
            s / t
        with pytest.raises(ZeroDivisionError):
            rs / rt


UNITS = (ZERO, ONE, MINUS_ONE)
# the shared units; the same values built other ways; reals; non-reals
UNIT_POOL = [
    ZERO, ONE, MINUS_ONE,
    parse_scalar("0"), parse_scalar("1"), parse_scalar("-1"), Scalar(Fraction(2, 2)), Scalar(-1, 0),
    Scalar(0, Fraction(0, 3)), ONE * ONE, -ONE, ONE - ONE, MINUS_ONE * MINUS_ONE,
    S(2), S(Fraction(-1, 3)), S(Fraction(7, 2)),
    I, -I, S(Fraction(1, 2), Fraction(-2, 3)), S(1, 1), S(-1, 1),
]


def assert_unit_is_shared(s):
    # the invariant the kernels' identity tests read: every 0, 1 and -1 is the shared object
    for unit in UNITS:
        assert (s == unit) == (s is unit), (s, unit)


def test_units_are_shared_and_every_operation_matches_the_fraction_pair_reference():
    refs = [FractionPairScalar(s.re, s.im) for s in UNIT_POOL]
    for s in UNIT_POOL:
        assert_unit_is_shared(s)
    for s, rs in zip(UNIT_POOL, refs):
        assert_matches_reference(-s, -rs)
        assert_unit_is_shared(-s)
        for t, rt in zip(UNIT_POOL, refs):
            for op in (operator.add, operator.sub, operator.mul):
                assert_matches_reference(op(s, t), op(rs, rt))
                assert_unit_is_shared(op(s, t))
            assert (s == t) == (rs == rt)
            if rt:
                assert_matches_reference(s / t, rs / rt)
                assert_unit_is_shared(s / t)
            else:
                with pytest.raises(ZeroDivisionError):
                    s / t


def test_units_pass_an_operand_through():
    for x in UNIT_POOL:
        assert ONE * x is x and x * ONE is x and x + ZERO is x and ZERO + x is x and x - ZERO is x and x / ONE is x
        assert x * ZERO is ZERO and ZERO * x is ZERO and x == x
        assert ZERO - x == -x and x - x is ZERO
    for zero in (ZERO, Scalar(0), parse_scalar("0"), ONE - ONE, Scalar(Fraction(0), Fraction(0))):
        assert zero is ZERO
        for x in UNIT_POOL:
            with pytest.raises(ZeroDivisionError):
                x / zero
    assert Scalar(1)._t == (1, 0, 1) and MINUS_ONE._t == (-1, 0, 1) and ZERO._t == (0, 0, 1) and -MINUS_ONE is ONE


def test_scalar_hashes_as_the_int_it_equals():
    for n in (-(10**30), -2, -1, 0, 1, 2, 7, 10**30):
        assert hash(Scalar(n)) == hash(n) == hash(Scalar(Fraction(2 * n, 2)))
    assert len({ONE, 1}) == 1 and len({ZERO, 0, Scalar(0, 0)}) == 1
    assert {1: "x"}.get(ONE) == "x" and {ONE: "x"}.get(1) == "x"
    # equal non-integer values have equal triples, so equal hashes
    assert hash(parse_scalar("1/2+i")) == hash(Scalar(Fraction(3, 6), Fraction(4, 4)))
    assert len({I, Scalar(0, 1), ONE}) == 2


def test_scalar_constructors_and_immutability():
    assert Scalar(Fraction(3, -6)) == Scalar(Fraction(-1, 2)) == parse_scalar("-1/2")
    assert Scalar(0, Fraction(1)) == I and Scalar(0, Fraction(-2, 6)) == parse_scalar("-1/3*i")
    assert Scalar(Fraction(1, 6), Fraction(-3, 4))._t == (2, -9, 12)
    s = parse_scalar("1/2+i")
    for name in ("re", "im", "_t", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    assert s._t == (1, 2, 2)


@pytest.mark.parametrize(
    "text",
    ["0", "1", "-2", "1/2", "-7/3", "i", "-i", "2*i", "-5/3*i", "i/3", "1/2+1/3*i", "1/2-i", "3+2*i"],
)
def test_scalar_parse_format_roundtrip(text):
    s = parse_scalar(text)
    assert parse_scalar(format_scalar(s)) == s


@pytest.mark.parametrize(
    "bad", ["", "1.5", "x", "i+i", "1+2", "1/0", "++1", "1_0/3", "1_0", "2*i_1", "\u0661/2", "i/\u0662", "1/2/3"]
)
def test_scalar_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_integer_literals_and_scalar_triples_take_no_fraction(monkeypatch):
    # the plain path builds the literal's Fraction; the fast one reads int() alone, and formats from the triple
    texts = ["0", "-0", "+7", " 12 ", "1 2", "007", "-" + "9" * 40, " - 3"]
    expected = [Scalar(Fraction(t.strip().replace(" ", ""))) for t in texts]
    scalars = [S(3), S(-4), S(Fraction(6, 4)), S(Fraction(-1, 3), 2), S(0, Fraction(-3, 6)), S(Fraction(1, 6), Fraction(3, 4))]
    texts_out = [format_scalar(FractionPairScalar(x.re, x.im)) for x in scalars]
    monkeypatch.setattr(linalg, "_Q", lambda *args: pytest.fail("a Fraction was built"))
    assert [parse_scalar(t) for t in texts] == expected
    assert [format_scalar(x) for x in scalars] == texts_out == ["3", "-4", "3/2", "-1/3+2*i", "-1/2*i", "1/6+3/4*i"]


def test_rank_of_one_row_or_one_column_is_the_rank_of_its_rows():
    pool = [ZERO, ZERO, ONE, MINUS_ONE, I, S(Fraction(1, 2), 1), S(-3)]
    rng = random.Random(50)
    shapes = [(1, 0), (0, 1), (1, 1)] + [(1, n) for n in range(2, 6)] + [(n, 1) for n in range(2, 6)]
    seen = set()
    for rows, cols in shapes:
        for _ in range(12):
            m = Matrix(rows, cols, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])
            sparse = [{j: x for j, x in enumerate(r) if x is not ZERO} for r in (m.row(i) for i in range(rows))]
            expected = _rank_rows(sparse, cols)
            assert rank(m) == expected, (rows, cols)
            # a column with two nonzeros has rank 1, not 2
            seen.add((expected, sum(x is not ZERO for i in range(rows) for x in m.row(i)) > 1))
    assert seen == {(0, False), (1, False), (1, True)}


def test_inverse_of_a_1x1_matrix_is_one_division():
    for a in (ONE, MINUS_ONE, I, S(Fraction(1, 2), 1)):
        m = Matrix(1, 1, [[a]])
        inv = inverse(m)
        assert inv == reference_inverse(m) == Matrix(1, 1, [[ONE / a]]) and m * inv == Matrix.identity(1)
    assert inverse(Matrix(1, 1, [[ZERO]])) is None and reference_inverse(Matrix(1, 1, [[ZERO]])) is None
    assert inverse(Matrix(1, 1, [[MINUS_ONE]]))[0, 0] is MINUS_ONE


def test_parse_int_takes_only_signed_ascii_digits():
    assert [parse_int(t) for t in ("0", "7", "-12", "+3", "007")] == [0, 7, -12, 3, 7]
    # int() reads the first seven of these
    for bad in ("1_0", "-1_0", " 3", "3 ", "\u0661", "-\u0667", "\uff11", "", "-", "+", "1e3", "0x10"):
        with pytest.raises(ValueError):
            parse_int(bad)


def test_rref_identity():
    r, pivots = rref(Matrix.identity(2))
    assert r == Matrix.identity(2)
    assert pivots == [0, 1]


def test_rref_zero():
    z = Matrix.zero(3, 3)
    r, pivots = rref(z)
    assert r == z
    assert pivots == []


def test_rref_rank_one():
    # hand elimination: r2 <- r2 - 2*r1
    r, pivots = rref(M([[1, 2], [2, 4]]))
    assert r == M([[1, 2], [0, 0]])
    assert pivots == [0]


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_zero_full():
    basis = kernel_basis(Matrix.zero(2, 2))
    assert len(basis) == 2
    assert basis[0] == (ONE, ZERO)
    assert basis[1] == (ZERO, ONE)


def test_kernel_row():
    m = M([[1, 1]])
    (v,) = kernel_basis(m)
    assert apply(m, v) == (ZERO,)
    assert v[0] == -v[1]


def test_solve_identity():
    b = (S(3), S(1, 2))
    assert solve(Matrix.identity(2), b) == b


def test_solve_underdetermined():
    a = M([[1, 1]])
    x = solve(a, (S(1),))
    assert apply(a, x) == (S(1),)


def test_solve_inconsistent():
    assert solve(M([[1], [1]]), (S(1), S(2))) is None


def test_solve_rejects_bad_shape():
    with pytest.raises(ValueError):
        solve(M([[1], [1]]), (S(1),))


def test_radical_scalars_semisimple():
    assert algebra_radical([Matrix.identity(2)]) == []


def test_radical_dual_numbers():
    n = M([[0, 1], [0, 0]])
    rad = algebra_radical([Matrix.identity(2), n])
    assert len(rad) == 1
    # trace-form kernel is spanned by the nilpotent generator
    assert rad[0].column(1)[0] and rad[0].column(0) == (ZERO, ZERO)


def test_radical_full_matrix_algebra():
    e = [M([[1, 0], [0, 0]]), M([[0, 1], [0, 0]]), M([[0, 0], [1, 0]]), M([[0, 0], [0, 1]])]
    assert algebra_radical(e) == []


def test_radical_rejects_nonsquare():
    with pytest.raises(ValueError):
        algebra_radical([Matrix.zero(2, 3)])


def test_radical_elements_nilpotent():
    # upper triangular 3x3 algebra: radical = strictly upper part, all nilpotent
    basis = []
    for i in range(3):
        for j in range(i, 3):
            rows = [[S(1) if (r, c) == (i, j) else S(0) for c in range(3)] for r in range(3)]
            basis.append(from_rows(rows))
    rad = algebra_radical(basis)
    assert len(rad) == 3
    for n in rad:
        p = n
        for _ in range(2):
            p = p * n
        assert p.is_zero()


def test_rank_nullity_randomized():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = Matrix(rows, cols, [[S(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(cols)] for _ in range(rows)])
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == cols
        for v in ker:
            assert all(not e for e in apply(m, v))


def test_solve_verifies_by_substitution_randomized():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(rows, cols, [[S(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)])
        x0 = tuple(S(rng.randint(-2, 2)) for _ in range(cols))
        b = apply(m, x0)
        x = solve(m, b)
        assert x is not None
        assert apply(m, x) == b


def test_inverse_and_span_helpers():
    m = M([[1, 1], [0, 1]])
    mi = inverse(m)
    assert m * mi == Matrix.identity(2)
    assert inverse(M([[1, 1], [2, 2]])) is None
    basis = column_space_basis([(S(1), S(2)), (S(2), S(4)), (S(0), S(1))], 2)
    assert len(basis) == 2
    assert in_span(basis, (S(5), S(7)))
    assert not in_span([(S(1), S(0))], (S(0), S(1)))


def test_gaussian_entries_in_elimination():
    m = from_rows([[I, ONE], [ONE, parse_scalar("-i")]])
    # second row is -i times the first, so rank 1
    assert rank(m) == 1
    (v,) = kernel_basis(m)
    assert apply(m, v) == (ZERO, ZERO)


def random_matrix(rng, rows, cols):
    data = [[S(rng.randint(-2, 2), rng.choice((0, 0, 1))) for _ in range(cols)] for _ in range(rows)]
    return Matrix(rows, cols, data)


def test_nonzero_views_match_the_entries_and_are_kept():
    rng = random.Random(13)
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(20)]
    for rows, cols in shapes:
        # mostly zero Gaussian rationals with small denominators
        data = [[S(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-1, 1), rng.randint(1, 3)))
                 if rng.randint(0, 2) else ZERO for _ in range(cols)] for _ in range(rows)]
        m, twin = Matrix(rows, cols, data), Matrix(rows, cols, data)
        key = hash(twin)
        by_row, by_col = m.nonzero_rows(), m.nonzero_columns()
        assert by_row == tuple(tuple((j, m[i, j]) for j in range(cols) if m[i, j]) for i in range(rows))
        assert by_col == tuple(tuple((i, m[i, j]) for i in range(rows) if m[i, j]) for j in range(cols))
        # built once and kept
        assert m.nonzero_rows() is by_row and m.nonzero_columns() is by_col
        # a built view changes neither equality, nor the hash, nor immutability
        assert m == twin and twin == m and hash(m) == key == hash(twin)
        for name in ("rows", "_data", "_nz_rows", "_nz_cols"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
        assert m.nonzero_rows() is by_row and m == twin


def test_matrix_product_matches_the_triple_loop():
    # the shared units (the product's shortcuts), the same values built by Scalar(0) and Scalar(1),
    # -1 (sums that cancel) and Gaussian rationals, on seeded shapes with 0 x n and n x 0 factors
    rng = random.Random(29)
    pool = [ZERO, ZERO, ONE, ONE, S(0), S(1), S(-1), S(Fraction(2, 3), Fraction(-1, 2)), I, S(Fraction(-5, 4))]
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)] + [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(200)]
    for m, k, n in shapes:
        a, b = (Matrix(r, c, [[rng.choice(pool) for _ in range(c)] for _ in range(r)]) for r, c in ((m, k), (k, n)))
        assert a * b == reference_product(a, b), (a, b)
    with pytest.raises(ValueError):
        M([[1, 2]]) * M([[1, 2]])


def permutation(perm):
    n = len(perm)
    return Matrix(n, n, [[ONE if j == perm[i] else ZERO for j in range(n)] for i in range(n)])


def test_matrix_product_passes_identities_through():
    rng = random.Random(48)
    identities = [Matrix.identity(n) for n in range(5)]
    identities += [Matrix.from_columns([[S(int(i == j)) for i in range(n)] for j in range(n)], n) for n in (1, 2, 3)]
    identities += [parse_matrix("1x1 1"), parse_matrix("2x2 1,0;0,1"), parse_matrix("3x3 1,0,0;0,1,0;0,0,1"),
                   M([[1, 0], [0, 1]]), Matrix.identity(3) * Matrix.identity(3), inverse(Matrix.identity(2))]
    # square and unit-like, but no identity: each is multiplied
    others = [Matrix.identity(2).scale(S(2)), -Matrix.identity(2), -Matrix.identity(3), M([[1, 1], [0, 1]]),
              M([[1, 0], [1, 1]]), M([[1, 0, 0], [0, 1, 0], [0, 1, 1]]), M([[1, 0], [0, 0]]), M([[0, 0], [0, 1]]),
              M([[1, 0], [0, -1]]), permutation((1, 0)), permutation((2, 0, 1)), permutation((0, 2, 1))]
    others += [M([[v]]) for v in (0, 2, -1)] + [Matrix(1, 1, [[x]]) for x in (ZERO, MINUS_ONE, I, S(Fraction(2, 3), 1))]
    pool = [ZERO, ONE, MINUS_ONE, S(2), I, S(Fraction(-1, 2), 3)]
    for a in identities:
        assert a == Matrix.identity(a.rows)
    for a in others:
        assert a.rows == a.cols and a != Matrix.identity(a.rows)
    for a in identities + others:
        n = a.rows
        for k in (0, 1, 2, 3):
            b = Matrix(n, k, [[rng.choice(pool) for _ in range(k)] for _ in range(n)])
            c = Matrix(k, n, [[rng.choice(pool) for _ in range(n)] for _ in range(k)])
            assert a * b == reference_product(a, b) and c * a == reference_product(c, a), (a, b, c)
            # an identity factor passes the other through; a 1 x 1 by 1 x 1 product is one scalar product,
            # and of two identities the right one is returned
            if a in identities and n * k != 1:
                assert a * b is b and (c * a is c or c == Matrix.identity(k))
        for b in identities + others:
            if b.rows == n:
                assert a * b == reference_product(a, b), (a, b)
    for a in others:
        b = Matrix(a.rows, 2, [[S(3 * i + j + 1) for j in range(2)] for i in range(a.rows)])
        assert a * b is not b and a * b == reference_product(a, b)
    # the shape check runs before any pass-through
    for a, b in ((Matrix.identity(2), Matrix.zero(3, 1)), (Matrix.zero(1, 3), Matrix.identity(2)),
                 (Matrix.identity(0), Matrix.zero(1, 1)), (Matrix.identity(1), Matrix.identity(2)),
                 (M([[1]]), M([[1, 2]]).transpose().transpose().transpose())):
        with pytest.raises(ValueError):
            a * b


def test_full_range_submatrix_is_the_matrix():
    for m in (M([[1, 2], [3, 4]]), Matrix.zero(0, 3), Matrix.zero(2, 0), Matrix.identity(3)):
        assert m.submatrix(0, m.rows, 0, m.cols) is m
        assert m.submatrix(0, m.rows, 0, m.cols) == Matrix(m.rows, m.cols, [m.row(i) for i in range(m.rows)])
    m = M([[1, 2], [3, 4]])
    assert m.submatrix(0, 2, 0, 1) == M([[1], [3]]) and m.submatrix(1, 2, 0, 2) == M([[3, 4]])


def test_shortcut_constructors_build_the_checked_tables():
    # zero, identity, from_columns and transpose skip Matrix's copy and checks, so each is compared with it
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        assert Matrix.zero(rows, cols) == Matrix(rows, cols, [[ZERO] * cols for _ in range(rows)])
        m = Matrix(rows, cols, [[S(3 * i + j) for j in range(cols)] for i in range(rows)])
        assert m.transpose() == Matrix(cols, rows, [[m[i, j] for i in range(rows)] for j in range(cols)])
        assert Matrix.from_columns(m.columns(), rows) == m
    for n in (0, 1, 3):
        assert Matrix.identity(n) == Matrix(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def test_from_columns_rejects_a_column_of_the_wrong_length():
    assert Matrix.from_columns([(ONE, ONE)], 2) == M([[1], [1]])
    for cols in ([(ONE, ONE, ONE)], [(ONE,)], [(ONE, ONE), (ONE,)], [()]):
        with pytest.raises(ValueError):
            Matrix.from_columns(cols, 2)


def test_block_and_submatrix_split_and_reassemble():
    rng = random.Random(5)
    for _ in range(40):
        row_sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        col_sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        m = random_matrix(rng, sum(row_sizes), sum(col_sizes))
        ro = list(accumulate(row_sizes, initial=0))
        co = list(accumulate(col_sizes, initial=0))
        grid = [
            [m.submatrix(ro[i], ro[i + 1], co[j], co[j + 1]) for j in range(len(col_sizes))]
            for i in range(len(row_sizes))
        ]
        assert Matrix.block(grid, row_sizes, col_sizes) == m
        for i, row in enumerate(grid):
            for j, b in enumerate(row):
                assert (b.rows, b.cols) == (row_sizes[i], col_sizes[j])
                assert all(b[r, c] == m[ro[i] + r, co[j] + c] for r in range(b.rows) for c in range(b.cols))
        # None is a zero block
        checker = [[None if (i + j) % 2 else b for j, b in enumerate(row)] for i, row in enumerate(grid)]
        z = Matrix.block(checker, row_sizes, col_sizes)
        for i in range(len(row_sizes)):
            for j in range(len(col_sizes)):
                b = z.submatrix(ro[i], ro[i + 1], co[j], co[j + 1])
                assert b.is_zero() if (i + j) % 2 else b == grid[i][j]


def test_block_and_submatrix_reject_bad_shapes():
    m = M([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Matrix.block([[m, None]], [2], [1, 2])
    with pytest.raises(ValueError):
        Matrix.block([[m]], [2, 1], [2])
    with pytest.raises(ValueError):
        m.submatrix(0, 3, 0, 1)
    with pytest.raises(ValueError):
        m.submatrix(1, 0, 0, 1)
    assert m.submatrix(2, 2, 0, 2) == Matrix.zero(0, 2)


def test_extend_basis_matches_inline_pivot_selection():
    rng = random.Random(9)

    def vec(dim):
        return tuple(S(rng.choice((0, 0, 1, -1, 2))) for _ in range(dim))

    for _ in range(60):
        dim = rng.randint(0, 4)
        inner = column_space_basis([vec(dim) for _ in range(rng.randint(0, 3))], dim)
        outer = [vec(dim) for _ in range(rng.randint(0, 4))]
        _, pivots = rref(Matrix.from_columns(inner + outer, dim))
        expected = [outer[p - len(inner)] for p in pivots if p >= len(inner)]
        chosen = extend_basis(inner, outer, dim)
        assert chosen == expected
        # inner plus the chosen columns is a basis of the joint span
        assert rank(Matrix.from_columns(inner + chosen, dim)) == len(inner) + len(chosen) == len(pivots)


def test_solve_matrix_matches_per_column_solve():
    """solve, solve_matrix, inverse and in_span against the dense references of conftest."""
    rng = random.Random(13)

    def mat(rows, cols):
        return Matrix(rows, cols, [[S(rng.choice((0, 0, 1, -1, 2))) for _ in range(cols)] for _ in range(rows)])

    seen = {True: 0, False: 0}
    for trial in range(120):
        rows, cols, rhs = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
        a = mat(rows, cols)
        b = a * mat(cols, rhs) if trial % 2 else mat(rows, rhs)
        sols = [reference_solve(a, b.column(j)) for j in range(rhs)]
        assert [solve(a, b.column(j)) for j in range(rhs)] == sols, trial
        expected = None if None in sols else Matrix.from_columns(sols, cols)
        got = solve_matrix(a, b)
        assert got == expected, trial
        if got is not None:
            assert a * got == b
        seen[got is not None] += 1
        vectors = a.columns()
        for j in range(rhs):
            assert in_span(vectors, b.column(j)) == (sols[j] is not None), trial
        sq = mat(rows, rows)
        assert inverse(sq) == reference_inverse(sq), trial
    assert seen[True] >= 20 and seen[False] >= 20, seen
    # singular and empty shapes
    for sq in (M([[1, 2], [2, 4]]), M([[0, 0], [0, 0]]), M([[1, 0, 1], [0, 1, 1], [1, 1, 2]]), Matrix.zero(0, 0)):
        assert inverse(sq) == reference_inverse(sq)
    assert inverse(M([[1, 2], [2, 4]])) is None and inverse(Matrix.zero(0, 0)) == Matrix.zero(0, 0)
    for cols in (0, 3):
        a = Matrix.zero(0, cols)
        assert solve(a, ()) == reference_solve(a, ()) == (ZERO,) * cols
        assert solve_matrix(a, Matrix.zero(0, 2)) == Matrix.zero(cols, 2)
    # no vectors: only a zero v is in their span
    assert in_span([], (ZERO, ZERO)) and in_span([], ()) and not in_span([], (ZERO, ONE))
    with pytest.raises(ValueError):
        solve_matrix(mat(2, 2), mat(3, 1))
    with pytest.raises(ValueError):
        solve(mat(2, 2), (ONE,))
    with pytest.raises(ValueError):
        inverse(mat(2, 3))


@st.composite
def elimination_systems(draw):
    """Random Gaussian-rational systems in the shapes the package eliminates.

    Plain, rank-deficient (extra rows that combine drawn ones), [A | B] as
    solve_matrix builds it and [A | I] as inverse builds it; entries are
    mostly zero, and either all real or complex.
    """
    q = st.fractions(-3, 3, max_denominator=4)
    nonzero = st.builds(Scalar, q, st.just(0) if draw(st.booleans()) else q)
    cell = st.one_of(st.just(ZERO), st.just(ZERO), nonzero)
    shape = draw(st.sampled_from(("plain", "deficient", "solve", "inverse")))
    m = draw(st.integers(0, 6))
    n = m if shape == "inverse" else draw(st.integers(0, 6))
    rows = [[draw(cell) for _ in range(n)] for _ in range(m)]
    if shape == "deficient" and rows:
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(nonzero), draw(cell)
            rows.insert(draw(st.integers(0, len(rows))), [s * x + t * y for x, y in zip(a, b)])
    elif shape == "solve":
        k = draw(st.integers(0, 3))
        rows = [r + [draw(cell) for _ in range(k)] for r in rows]
    elif shape == "inverse":
        rows = [r + [ONE if i == j else ZERO for j in range(m)] for i, r in enumerate(rows)]
    return rows, len(rows[0]) if rows else n


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(elimination_systems())
@example(([], 0))
@example(([], 3))
@example(([[], [], []], 0))
@example(([[ZERO] * 4 for _ in range(3)], 4))
def test_sparse_kernel_matches_dense_gauss_jordan(system):
    rows, cols = system
    before = [list(r) for r in rows]
    expected = [list(r) for r in rows]
    pivots = dense_rref_rows(expected, cols)
    got = _rref_rows(rows, cols)
    assert [p for p, _ in got] == pivots
    # each pivot row is the dict of nonzeros of its rref row; zero rows are not returned
    assert [row for _, row in got] == [{j: x for j, x in enumerate(r) if x} for r in expected[: len(pivots)]]
    assert all(type(x) is Scalar for _, row in got for x in row.values())
    # the kernel only reads its input
    assert rows == before


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(elimination_systems())
@example(([], 0))
@example(([], 3))
@example(([[], [], []], 0))
@example(([[ZERO] * 4 for _ in range(3)], 4))
def test_rank_by_forward_elimination_matches_dense_gauss_jordan(system):
    rows, cols = system
    expected = len(dense_rref_rows([list(r) for r in rows], cols))
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    before = [dict(r) for r in sparse]
    assert rank_rows(sparse, cols) == expected
    # rank_rows only reads its rows; the kernel under it consumes fresh copies
    assert sparse == before
    assert _rank_rows([dict(r) for r in sparse], cols) == expected
    assert rank(Matrix(len(rows), cols, rows)) == expected


def catalog_systems(pad):
    """The full-window δ¹ and δ⁰ systems of catalog pairs with n <= 4, and the [A | I] systems of their transport arrows.

    For each n, on the default window widened by pad: an Euler module
    against a word module, a word module against itself and a word module
    against an Euler module, and for n <= 2 an Euler module against the
    other label's.  The rows are dense lists, as the kernel's callers hand
    them over.
    """
    systems = []
    for n in range(1, 5):
        lo, hi = default_window(n)
        euler, mixed, word0, word_inf = [catalog_module(key, (lo - pad, hi + pad)) for key in catalog_keys(n)[-4:]]
        pairs = [(euler, word0), (word_inf, word_inf), (word_inf, euler)] + [(euler, mixed)] * (n <= 2)
        for x, y in pairs:
            edges = abcat._edge_layout(x, y, x.edge_ids())
            slots = abcat._slot_layout(x, y, x.slot_ids())
            for rows, cols in ((abcat._relation_rows(x, y, edges, x.relations()), len(edges)),
                               (abcat._differential(x, y, slots, x.edge_ids()), len(slots))):
                systems.append(([[row.get(j, ZERO) for j in range(cols)] for row in rows], cols))
            for e in x.core_window()[4]:
                a = x.edge_matrix(e)
                unit = [[ONE if i == j else ZERO for j in range(a.rows)] for i in range(a.rows)]
                systems.append(([list(a.row(i)) + unit[i] for i in range(a.rows)], 2 * a.cols))
    return systems


@pytest.mark.parametrize("pad", [0, 6])
def test_sparse_kernel_matches_dense_gauss_jordan_on_the_catalog_systems(pad):
    # long pivot chains, which the small random systems never build: the forward pass and back substitution run over many pivots
    ranks = []
    for rows, cols in catalog_systems(pad):
        expected = [list(r) for r in rows]
        pivots = dense_rref_rows(expected, cols)
        got = _rref_rows(rows, cols)
        assert [p for p, _ in got] == pivots
        assert [row for _, row in got] == [{j: x for j, x in enumerate(r) if x} for r in expected[: len(pivots)]]
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        assert rank_rows(sparse, cols) == _rank_rows(sparse, cols) == len(pivots)
        ranks.append(len(pivots))
    assert max(ranks) >= 120 and any(0 < r < 5 for r in ranks)
