"""Exact linear algebra over Gaussian rationals.

Every computation in the package reduces to the primitives here: reduced
row echelon form, ranks, kernel bases, linear solves and the trace-form
radical of a matrix algebra.  Matrices are dense and immutable, and keep
their nonzero entries per row and per column once asked (nonzero_rows,
nonzero_columns).  Every 0, 1 and -1 is one shared object, ZERO, ONE and
MINUS_ONE, so an identity test finds every unit.  A product checks the
shapes, then returns the other factor as it is when one factor is an
identity of shared units, takes a 1x1 by 1x1 product as one scalar
product, and otherwise skips zero factors, takes a factor that is ONE as
the other one and stores an entry's first term as it is; a full-range
submatrix is the matrix itself;
zero, identity, from_columns, block and transpose build their row tuples
without Matrix()'s checked copy, block by concatenating its blocks' row
tuples once it has checked each block's shape against its grid cell.
Both elimination kernels run one forward pass, _forward, on {column:
Scalar} dict rows: Markowitz's pivot rule, and only the rows not yet used
as pivots reduced, each by one _eliminate, the one row reduction.  A rank,
_rank_rows, is the number of its pivots.  _rref_rows, which only reads its
dense rows, then scales the pivot rows and back-substitutes through
_eliminate in reverse pivot order, and returns the (pivot column, sparse
row) pairs of the rref, which is unique, so the order of the reductions
changes the work and not the result.  rank_rows ranks rows in that form,
rank a Matrix; the rank of a one-row or one-column matrix is a nonzero
test, with no kernel call.  solve, inverse and in_span are each one
solve_matrix, except the inverse of a 1x1 matrix, one division built
without the checked copy.  No floating point anywhere: a scalar is one
reduced triple of Python ints (a, b, d) meaning (a + b*i)/d, and its
arithmetic is integer products and one gcd per result, or no arithmetic
at all when an operand is a unit that passes the other through.
fractions.Fraction appears only at the edges, in parsing a literal that
is not an integer and in the re and im components; format_scalar reads a
Scalar's triple.
"""

from __future__ import annotations

import re
from fractions import Fraction as _Q
from math import gcd


class Scalar:
    """A Gaussian rational (a + b*i)/d stored as the int triple (a, b, d).

    The triple is canonical, d > 0 and gcd(a, b, d) == 1, so equal values
    have equal triples.  The values 0, 1 and -1 are each one shared
    object, ZERO, ONE and MINUS_ONE: the constructor and every operation
    build their results through _reduced, which returns those three for
    their values, or return an operand as it is.  So a value is a unit
    exactly when it is the unit object.  1*x, x*1, 0*x and x*0, 0 + x,
    x + 0, x - 0 and x/1 return an operand with no arithmetic, and == is
    True at once for one object; division by zero still raises.  Otherwise
    +, -, * and / cost a few integer products and one gcd: sums over a
    shared denominator skip the cross products, and a real factor or
    divisor skips the imaginary terms.  re and im are the components as
    Fractions.  An integer n hashes as hash(n), since it compares equal to
    n; any other value hashes its triple.
    """

    __slots__ = ("_t",)

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _reduced(re, im, 1)
        re, im = _Q(re), _Q(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        return _reduced(re.numerator * (d // p), im.numerator * (d // q), d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self):
        a, _, d = self._t
        return _Q(a, d)

    @property
    def im(self):
        _, b, d = self._t
        return _Q(b, d)

    def __bool__(self):
        return self._t != (0, 0, 1)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Scalar):
            return self._t == other._t
        if isinstance(other, int):
            return self._t == (other, 0, 1)
        return NotImplemented

    def __hash__(self):
        a, b, d = t = self._t
        return hash(a) if d == 1 and not b else hash(t)

    def __add__(self, other):
        if other is ZERO:
            return self
        if self is ZERO:
            return other
        a, b, d = self._t
        c, e, f = other._t
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other):
        if other is ZERO:
            return self
        a, b, d = self._t
        c, e, f = other._t
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __neg__(self):
        a, b, d = self._t
        return _reduced(-a, -b, d)

    def __mul__(self, other):
        if self is ONE or other is ZERO:
            return other
        if other is ONE or self is ZERO:
            return self
        a, b, d = self._t
        c, e, f = other._t
        if not e:
            return _reduced(a * c, b * c, d * f)
        if not b:
            return _reduced(a * c, a * e, d * f)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def __truediv__(self, other):
        # (a + b*i)/d / ((c + e*i)/f) = f*(a + b*i)*(c - e*i) / (d*(c*c + e*e))
        if other is ONE:
            return self
        a, b, d = self._t
        c, e, f = other._t
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            if c < 0:
                c, f = -c, -f
            return _reduced(a * f, b * f, d * c)
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __repr__(self):
        return "Scalar(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


_set = Scalar._t.__set__
_new = object.__new__


def _unit(a):
    """The one Scalar of the integer a in (0, 1, -1), built once at import."""
    s = _new(Scalar)
    _set(s, (a, 0, 1))
    return s


# _UNITS[a] is the shared unit a, for a in (0, 1, -1)
ZERO, ONE, MINUS_ONE = _UNITS = _unit(0), _unit(1), _unit(-1)


def _reduced(a, b, d):
    """The Scalar (a + b*i)/d for ints a, b and d > 0, in lowest terms; 0, 1 and -1 are the shared units."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    if d == 1 and not b and -1 <= a <= 1:
        return _UNITS[a]
    s = _new(Scalar)
    _set(s, (a, b, d))
    return s


I = Scalar(0, 1)


def format_scalar(s: Scalar) -> str:
    """Canonical text form: 0, 1/2, -2, i, -i, 1/3*i, 1/2-1/3*i.

    A Scalar is formatted from its triple (a, b, d), each nonzero
    component the text fractions.Fraction gives a/d or b/d; anything else
    reads s.re and s.im once each.
    """
    if type(s) is Scalar:
        a, b, d = s._t
        if not b:
            return _ratio(a, d)
        real, imag = (_ratio(a, d) if a else ""), _ratio(b, d)
    else:
        re_q, im_q = s.re, s.im
        if not im_q:
            return str(re_q)
        real, imag = (str(re_q) if re_q else ""), str(im_q)
    imtxt = "i" if imag == "1" else "-i" if imag == "-1" else imag + "*i"
    if not real:
        return imtxt
    sign = "" if imtxt.startswith("-") else "+"
    return real + sign + imtxt


def _ratio(n, d):
    """The text of the Fraction n/d for ints n and d > 0: reduced by one gcd, 'n' when the denominator is 1."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else "%d/%d" % (n, d)


def parse_scalar(text: str) -> Scalar:
    """Parse an exact Gaussian-rational literal.

    Accepts rationals (``2``, ``-1/3``), pure imaginaries (``i``, ``-i``,
    ``2*i``, ``i/3``) and sums such as ``1/2+1/3*i`` or ``1/2-i``.
    Raises ValueError on anything else; no floats.  An integer literal is
    read by int() alone, with no Fraction.
    """
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty scalar literal")
    if _INT_LITERAL.fullmatch(t):
        return Scalar(int(t))
    # split into at most two signed terms at a top-level + or - (not the leading sign)
    terms = []
    start = 0
    for pos in range(1, len(t)):
        if t[pos] in "+-" and t[pos - 1] not in "+-*/":
            terms.append(t[start:pos])
            start = pos
    terms.append(t[start:])
    if len(terms) > 2:
        raise ValueError("bad scalar literal: %r" % text)
    re_q = _Q(0)
    im_q = _Q(0)
    seen_im = seen_re = False
    for term in terms:
        if "i" in term:
            if seen_im:
                raise ValueError("bad scalar literal: %r" % text)
            seen_im = True
            im_q = _parse_imag_term(term, text)
        else:
            if seen_re:
                raise ValueError("bad scalar literal: %r" % text)
            seen_re = True
            re_q = _parse_q(term, text)
    return Scalar(re_q, im_q)


_INT_LITERAL = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """Parse a strict integer literal: an optional sign, then ASCII digits.

    The one integer lexer of every parser and option.  Unlike int(), it
    rejects '_' separators, surrounding whitespace and non-ASCII digits.
    """
    if not _INT_LITERAL.fullmatch(text):
        raise ValueError("bad integer literal %r" % text)
    return int(text)


def format_matrix(m: Matrix) -> str:
    """Matrix text form: '<rows>x<cols>' then the rows, ';'-separated, entries ','-separated."""
    return "%dx%d %s" % (
        m.rows,
        m.cols,
        ";".join(",".join(format_scalar(m[i, j]) for j in range(m.cols)) for i in range(m.rows)),
    )


def parse_matrix(text: str) -> Matrix:
    head, _, body = text.strip().partition(" ")
    rows_s, _, cols_s = head.partition("x")
    rows, cols = parse_int(rows_s), parse_int(cols_s)
    if rows == 0 or cols == 0:
        if body:
            raise ValueError("empty %s matrix has entries %r" % (head, body))
        return Matrix.zero(rows, cols)
    data = [[parse_scalar(e) for e in line.split(",")] for line in body.split(";")]
    return Matrix(rows, cols, data)


def _parse_q(term: str, orig: str):
    num, sep, den = term.partition("/")
    try:
        return _Q(parse_int(num), parse_int(den)) if sep else _Q(parse_int(num))
    except (ValueError, ZeroDivisionError):
        raise ValueError("bad rational literal %r in %r" % (term, orig)) from None


def _parse_imag_term(term: str, orig: str):
    sign = _Q(1)
    if term.startswith("-"):
        sign = _Q(-1)
        term = term[1:]
    elif term.startswith("+"):
        term = term[1:]
    if term == "i":
        return sign
    if term.endswith("*i"):
        return sign * _parse_q(term[:-2], orig)
    if term.startswith("i/"):
        den = _parse_q(term[2:], orig)
        if not den:
            raise ValueError("bad imaginary literal %r in %r" % (term, orig))
        return sign / den
    raise ValueError("bad imaginary literal %r in %r" % (term, orig))


class Matrix:
    """Immutable dense matrix of Scalars; supports 0-row/0-column shapes."""

    __slots__ = ("rows", "cols", "_data", "_nz_rows", "_nz_cols")

    def __init__(self, rows: int, cols: int, data):
        entries = tuple(map(tuple, data))
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry table does not match %dx%d" % (rows, cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return _matrix(rows, cols, ((ZERO,) * cols,) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix(n, n, tuple((ZERO,) * i + (ONE,) + (ZERO,) * (n - 1 - i) for i in range(n)))

    @staticmethod
    def from_columns(cols, rows: int) -> "Matrix":
        cols = list(cols)
        if any(len(c) != rows for c in cols):
            raise ValueError("column lengths %s do not match %d rows" % ([len(c) for c in cols], rows))
        return _matrix(rows, len(cols), tuple(zip(*cols)) if cols else ((),) * rows)

    @staticmethod
    def block(grid, row_sizes, col_sizes) -> "Matrix":
        """Block matrix from a grid of Matrix blocks; None is a zero block.

        Block (i, j) must be row_sizes[i] x col_sizes[j]; sizes may be 0.
        Each row of a block row is the concatenation of its blocks' row
        tuples, a zero block standing as one shared row of ZEROs.
        """
        data = []
        for blocks, h in zip(grid, row_sizes, strict=True):
            pieces = [((),) * h]  # every row starts empty, so a grid row with no columns still has h rows
            for b, w in zip(blocks, col_sizes, strict=True):
                if b is None:
                    pieces.append(((ZERO,) * w,) * h)
                elif b.rows != h or b.cols != w:
                    raise ValueError("block is %dx%d, its grid cell %dx%d" % (b.rows, b.cols, h, w))
                else:
                    pieces.append(b._data)
            data.extend(sum(r, ()) for r in zip(*pieces))
        return _matrix(sum(row_sizes), sum(col_sizes), tuple(data))

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(r[j] for r in self._data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def nonzero_rows(self):
        """((column, entry), ...) of the nonzero entries of each row, built once."""
        if not hasattr(self, "_nz_rows"):
            view = tuple(tuple([(j, a) for j, a in enumerate(r) if a is not ZERO]) for r in self._data)
            object.__setattr__(self, "_nz_rows", view)
        return self._nz_rows

    def nonzero_columns(self):
        """((row, entry), ...) of the nonzero entries of each column, built once."""
        if not hasattr(self, "_nz_cols"):
            object.__setattr__(self, "_nz_cols", self.transpose().nonzero_rows())
        return self._nz_cols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __add__(self, other):
        self._check_shape(other, same=True)
        return Matrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)],
        )

    def __sub__(self, other):
        self._check_shape(other, same=True)
        return Matrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)],
        )

    def __neg__(self):
        return Matrix(self.rows, self.cols, [[-a for a in r] for r in self._data])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, [[c * a for a in r] for r in self._data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product; after the shape check an identity factor of shared units returns the other factor itself."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        od, n = other._data, other.cols
        if n == 1 and self.cols == 1 and self.rows == 1:
            return _matrix(1, 1, ((self._data[0][0] * od[0][0],),))
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        out = []
        for r in self._data:
            orow = [ZERO] * n
            for ok, a in zip(od, r):
                if a is not ZERO:
                    for j, b in enumerate(ok):
                        if b is not ZERO:
                            # a factor ONE and a first term are taken inline, with no Scalar method call
                            t = b if a is ONE else a if b is ONE else a * b
                            c = orow[j]
                            orow[j] = t if c is ZERO else c + t
            out.append(tuple(orow))
        return _matrix(self.rows, n, tuple(out))

    def transpose(self) -> "Matrix":
        return _matrix(self.cols, self.rows, tuple(zip(*self._data)) if self.rows else ((),) * self.cols)

    def is_zero(self) -> bool:
        return all(not a for r in self._data for a in r)

    def is_scalar(self, c: Scalar) -> bool:
        """Whether this is c times the identity, read off the entries without building it."""
        return self.rows == self.cols and all(
            r[i] == c and not any(r[:i]) and not any(r[i + 1 :]) for i, r in enumerate(self._data)
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix(self.rows, self.cols + other.cols, [ra + rb for ra, rb in zip(self._data, other._data)])

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0..r1-1 and columns c0..c1-1; either range may be empty, and the full range is this matrix."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError("submatrix [%d:%d, %d:%d] outside %dx%d" % (r0, r1, c0, c1, self.rows, self.cols))
        if r0 == c0 == 0 and r1 == self.rows and c1 == self.cols:
            return self
        return _matrix(r1 - r0, c1 - c0, tuple(r[c0:c1] for r in self._data[r0:r1]))

    def _check_shape(self, other, same=False):
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return "Matrix(%d, %d, %s)" % (
            self.rows,
            self.cols,
            [[format_scalar(a) for a in r] for r in self._data],
        )


def _matrix(rows, cols, entries):
    """The Matrix of a tuple of row tuples already of shape rows x cols, without the copy and checks of __init__."""
    m = _new(Matrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_data", entries)
    return m


def _is_identity(m):
    """Whether m is an identity of shared units: square, each diagonal entry ONE and every other entry ZERO."""
    n = m.rows
    if n != m.cols:
        return False
    for i, r in enumerate(m._data):
        if r[i] is not ONE or r.count(ZERO) != n - 1:
            return False
    return True


def _forward(sparse, cols):
    """Forward elimination of fresh {column: Scalar} rows, which it consumes: [(column, row, pivot entry), ...].

    The one elimination pass of both kernels.  An index maps each column to
    the rows with a nonzero there.  Pivot columns are taken left to right;
    for each, the pivot row is the unused row with the fewest nonzeros there
    (Markowitz's rule, ties to the lowest index).  It leaves the index, its
    pivot entry a is popped, nothing is scaled, and only the unused rows r
    are reduced, by r[c] * (-1/a) times the pivot row.  So a pivot row keeps
    only entries right of its pivot column.
    """
    where = [set() for _ in range(cols)]
    for i, r in enumerate(sparse):
        for j in r:
            where[j].add(i)
    pivots = []
    for c in range(cols):
        here = where[c]
        if not here:
            continue
        p = min(here, key=lambda i: (len(sparse[i]), i))
        pr = sparse[p]
        for j in pr:
            where[j].discard(p)
        a = pr.pop(c)
        if here:
            inv = -(ONE / a)
            for i in here:
                ri = sparse[i]
                _eliminate(ri, i, ri.pop(c) * inv, pr.items(), where)
        pivots.append((c, p, a))
        if len(pivots) == len(sparse):
            break
    return pivots


def _eliminate(ri, i, g, tail, where):
    """Add g times the pivot row's entries tail to the dict row ri, dropping entries that cancel.

    The one row reduction of both kernels.  The caller has popped ri's
    entry at the pivot column, which tail leaves out, and where, the column
    index, follows every entry row i gains or loses.
    """
    for j, x in tail:
        y = ri.get(j)
        if y is None:
            ri[j] = g * x
            where[j].add(i)
        else:
            y = y + g * x
            if y:
                ri[j] = y
            else:
                del ri[j]
                where[j].discard(i)


def _rank_rows(sparse, cols):
    """Rank of fresh {column: Scalar} rows, which it consumes: the number of pivots of _forward."""
    return len(_forward(sparse, cols))


def _rref_rows(rows, cols):
    """Rref of a list of rows, which are only read: [(pivot column, row), ...].

    One pair per nonzero row of the rref, in pivot order, each row a
    {column: Scalar} dict of its nonzeros; zero rows are not returned, so
    len() of the result is the rank.

    Three steps on sparse dict rows: _forward; each pivot row scaled as if
    its popped pivot entry were 1; then, in reverse pivot order, each pivot
    row, already clear of the later pivot columns, taken out of the earlier
    pivot rows with a nonzero at its column, and given its leading 1 back.
    A pivot row has no entry left of its pivot, so back-substitution adds
    fill only off the pivot columns, and the index of the pivot rows, built
    once, stays exact there.  Each row is reduced once per pivot that meets
    it instead of at every step of Gauss-Jordan (Duff, Erisman and Reid,
    Direct Methods for Sparse Matrices, ch. 5).  The rref and its pivots
    are unique for a fixed column order, so neither the row choice nor the
    order of the reductions changes the result, only the work.
    """
    # every zero is the shared ZERO, so the identity test is the zero test
    sparse = [{j: x for j, x in enumerate(r) if x is not ZERO} for r in rows]
    pivots = _forward(sparse, cols)
    where = [set() for _ in range(cols)]
    for _, p, a in pivots:
        pr = sparse[p]
        if a is not ONE:
            inv = ONE / a
            for j, x in pr.items():
                pr[j] = inv * x
        for j in pr:
            where[j].add(p)
    for c, p, _ in reversed(pivots):
        pr = sparse[p]
        for i in where[c]:
            ri = sparse[i]
            _eliminate(ri, i, -ri.pop(c), pr.items(), where)
        pr[c] = ONE
    return [(c, sparse[p]) for c, p, _ in pivots]


def rref(m: Matrix):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    pairs = _rref_rows(m._data, m.cols)
    data = [[row.get(j, ZERO) for j in range(m.cols)] for _, row in pairs]
    data.extend([(ZERO,) * m.cols] * (m.rows - len(pairs)))
    return Matrix(m.rows, m.cols, data), [p for p, _ in pairs]


def rank(m: Matrix) -> int:
    """The rank; of a one-row or one-column matrix, whether it has a nonzero entry."""
    if m.rows == 1 or m.cols == 1:
        # every zero is the shared ZERO, so the identity test is the zero test
        entries = m._data[0] if m.rows == 1 else (r[0] for r in m._data)
        return 0 if all(x is ZERO for x in entries) else 1
    return _rank_rows([{j: x for j, x in enumerate(r) if x is not ZERO} for r in m._data], m.cols)


def rank_rows(rows, cols: int) -> int:
    """Rank of {column: Scalar} rows that hold only nonzero entries; the rows are only read."""
    return _rank_rows([dict(r) for r in rows], cols)


def kernel_basis(m: Matrix):
    """Basis of the null space as a list of column vectors."""
    pairs = _rref_rows(m._data, m.cols)
    pivot_set = {p for p, _ in pairs}
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for p, row in pairs:
            x = row.get(f)
            if x is not None:
                v[p] = -x
        basis.append(tuple(v))
    return basis


def solve(a: Matrix, b):
    """Some x with a*x = b (column vector), or None if inconsistent."""
    if len(b) != a.rows:
        raise ValueError("rhs length %d != rows %d" % (len(b), a.rows))
    x = solve_matrix(a, Matrix.from_columns([b], a.rows))
    return None if x is None else x.column(0)


def solve_matrix(a: Matrix, b: Matrix):
    """Some X with a*X = b, or None if any column is inconsistent.

    One elimination of [a | b] serves every column: a pivot in the b part
    means an inconsistent column, and otherwise X is read off the b part
    of the pivot rows.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve_matrix")
    n = a.cols
    pairs = _rref_rows([r + br for r, br in zip(a._data, b._data)], n + b.cols)
    if pairs and pairs[-1][0] >= n:
        return None
    x = [(ZERO,) * b.cols] * n
    for p, row in pairs:
        x[p] = [row.get(n + j, ZERO) for j in range(b.cols)]
    return Matrix(n, b.cols, x)


def column_space_basis(vectors, dim: int):
    """Independent spanning subset of the given column vectors, in rref shape.

    Returns the canonical reduced basis of the span (rows of the rref of
    the stacked vectors, transposed back to columns), so equal subspaces
    yield identical bases.
    """
    return [tuple(row.get(j, ZERO) for j in range(dim)) for _, row in _rref_rows(list(vectors), dim)]


def extend_basis(inner, outer, dim: int):
    """The outer columns, in order, that rref pivoting over [inner | outer] picks.

    Together with an independent inner list they form a basis of the span
    of both; this is the one canonical complement choice of the package.
    """
    inner, outer = list(inner), list(outer)
    cols = inner + outer
    pairs = _rref_rows([[c[i] for c in cols] for i in range(dim)], len(cols))
    return [outer[p - len(inner)] for p, _ in pairs if p >= len(inner)]


def in_span(vectors, v) -> bool:
    """Whether column vector v lies in the span of the given vectors."""
    return solve(Matrix.from_columns(vectors, len(v)), v) is not None


def inverse(m: Matrix):
    """Inverse of a square matrix, or None if singular (a pivot then falls in the I of [m | I]).

    A 1x1 matrix is inverted by one division, its Matrix built without
    the checked copy.
    """
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    if m.rows == 1:
        a = m._data[0][0]
        return None if a is ZERO else _matrix(1, 1, ((ONE / a,),))
    return solve_matrix(m, Matrix.identity(m.rows))


def trace_product(a: Matrix, b: Matrix) -> Scalar:
    """trace(a*b) without forming the product; skips zero entries of a."""
    if a.cols != b.rows or a.rows != b.cols:
        raise ValueError("shape mismatch in trace_product")
    acc = ZERO
    for i in range(a.rows):
        row = a.row(i)
        for j in range(a.cols):
            x = row[j]
            if x:
                y = b[j, i]
                if y:
                    acc = acc + x * y
    return acc


def algebra_radical(basis):
    """Jacobson radical of a unital matrix algebra, via the trace form.

    The input spans a unital subalgebra of square matrices (closed under
    product); in characteristic zero the radical is the kernel of the
    bilinear form (x, y) -> trace(xy) restricted to the algebra.  Returns
    a basis of the radical as matrices.
    """
    basis = list(basis)
    if not basis:
        return []
    n = basis[0].rows
    for b in basis:
        if b.rows != b.cols:
            raise ValueError("algebra basis contains a non-square matrix")
        if b.rows != n:
            raise ValueError("algebra basis has inconsistent dimensions")
    gram = Matrix(
        len(basis),
        len(basis),
        [[trace_product(bi, bj) for bj in basis] for bi in basis],
    )
    rad = []
    for coeffs in kernel_basis(gram):
        acc = Matrix.zero(n, n)
        for c, b in zip(coeffs, basis):
            if c:
                acc = acc + b.scale(c)
        rad.append(acc)
    return rad
