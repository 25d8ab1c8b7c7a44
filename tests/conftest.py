import itertools
import random
import signal
from dataclasses import replace
from functools import cached_property

import pytest

from uniserial import abcat
from uniserial.abcat import DirectSum, Morphism
from uniserial.gradedrep import GradedRep
from uniserial.itext import IteratedExtension, PathAlgebra, splice
from uniserial.linalg import (
    ONE,
    ZERO,
    Matrix,
    Scalar,
    column_space_basis,
    extend_basis,
    inverse,
    parse_scalar,
    rank,
    rank_rows,
    solve_matrix,
)
from uniserial.quiverrep import QuiverPresentation, QuiverRep
from uniserial.weyl import EulerPolynomial, WeylElement, euler_power, theta, to_theta_form
from uniserial.species import realize_vector
from uniserial.weylcat import CatalogKey, catalog_module, weyl_simple_family

LABELS = (parse_scalar("1/2"), parse_scalar("1/3+1/2*i"))
HALF = parse_scalar("1/2")
WINDOW = (-5, 5)
TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test by name once it has run TEST_SECONDS of wall time, so a defect that loops fails instead of hanging.

    The limit is about 15 times the slowest test.  It arms the real-time
    timer (ITIMER_REAL, SIGALRM), which no test uses, and disarms it after.
    """

    def expire(signum, frame):
        pytest.fail("%s ran past the %d s limit of one test" % (request.node.nodeid, TEST_SECONDS), pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rewrite_oracle(word, coef=1):
    """Naive single-step rewriting d t -> t d + 1 on string words.

    Independent of the closed-form product: replaces one adjacent pair per
    step until every word is sorted, then collects monomials.
    """
    sums = {word: Scalar(coef)}
    while True:
        hit = None
        for w in sums:
            pos = w.find("dt")
            if pos >= 0:
                hit = (w, pos)
                break
        if hit is None:
            break
        w, pos = hit
        c = sums.pop(w)
        for repl in (w[:pos] + "td" + w[pos + 2 :], w[:pos] + w[pos + 2 :]):
            sums[repl] = sums.get(repl, Scalar(0)) + c
        sums = {w: c for w, c in sums.items() if c}
    out = {}
    for w, c in sums.items():
        a = w.count("t")
        b = w.count("d")
        assert w == "t" * a + "d" * b
        out[(a, b)] = out.get((a, b), Scalar(0)) + c
    return WeylElement(out)


def words_up_to(n):
    for length in range(n + 1):
        for letters in itertools.product("td", repeat=length):
            yield "".join(letters)


def apply(m, vec):
    """m times the column vector vec, as a tuple: one column of a matrix product."""
    return (m * Matrix.from_columns([vec], len(vec))).column(0)


def from_rows(data):
    """The Matrix whose rows are the given lists."""
    data = [list(r) for r in data]
    return Matrix(len(data), len(data[0]) if data else 0, data)


def reference_product(a, b):
    """a * b by the plain triple loop, every term multiplied and summed from Scalar(0): Matrix.__mul__ without its shortcuts."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch %dx%d * %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    return Matrix(a.rows, b.cols, [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Scalar(0))
                                    for j in range(b.cols)] for i in range(a.rows)])


def opposite_quiver(pres):
    """A^op: every arrow reversed, every relation u -> v read backwards as v -> u."""
    return QuiverPresentation(
        pres.nodes,
        [(a, t, s) for a, s, t in pres.arrows],
        [(v, u, tuple((coef, tuple(reversed(path))) for coef, path in terms)) for u, v, terms in pres.relation_list],
    )


def transpose_dual(x):
    """Dx, the representation of A^op with the dimensions of x and every arrow matrix transposed.

    Transposing a path product reverses it, so Dx satisfies the reversed
    relations; D is a duality, Hom_A(x, y) = Hom_{A^op}(Dy, Dx) and
    Ext^1_A(x, y) = Ext^1_{A^op}(Dy, Dx).
    """
    return QuiverRep(opposite_quiver(x.pres), x.dims, {a: m.transpose() for a, m in x.mats.items()})


def graded_dual(m):
    """D(M) on the negated window: D(M)_w = (M_{-w})*, t acting by (t_{-w-1})ᵀ and d by -(p_{-w+1})ᵀ.

    d t - t d = (p t - t p)ᵀ = 1, so D(M) is again a graded module; D is
    the transpose duality of the window quiver, so Hom(x, y) = Hom(Dy, Dx)
    and Ext^1(x, y) = Ext^1(Dy, Dx).
    """
    wmin, wmax = m.window
    return GradedRep(
        (-wmax, -wmin),
        {w: m.dims[-w] for w in range(-wmax, -wmin + 1)},
        {w: m.edge_matrix(("t", -w - 1)).transpose() for w in range(-wmax, -wmin)},
        {w: -m.edge_matrix(("p", -w + 1)).transpose() for w in range(-wmax + 1, -wmin + 1)},
    )


def fourier(m):
    """F(M) on the negated window: F(M)_w = M_{-w}, t acting by p_{-w} and d by -t_{-w}.

    F is M with the Weyl algebra acting through the Fourier automorphism
    t -> d, d -> -t, which keeps d t - t d = 1 and sends E = t d to
    -(E + 1).  It is a covariant self-equivalence of graded modules that
    negates weights, so Hom(Fx, Fy) = Hom(x, y) and Ext^1(Fx, Fy) =
    Ext^1(x, y); a map h is carried to (Fh)_w = h_{-w}.  It sends the
    Euler module of alpha at twist s to that of -1 - alpha at twist -s,
    and swaps the boundary labels 0 and inf with twist s -> 1 - s.
    """
    wmin, wmax = m.window
    return GradedRep(
        (-wmax, -wmin),
        {w: m.dims[-w] for w in range(-wmax, -wmin + 1)},
        {w: m.edge_matrix(("p", -w)) for w in range(-wmax, -wmin)},
        {w: -m.edge_matrix(("t", -w)) for w in range(-wmax + 1, -wmin + 1)},
    )


def catalog_keys(n_max, twists=(0,)):
    """The Euler keys on both labels and the two word keys, for n <= n_max at each twist."""
    keys = []
    for n in range(1, n_max + 1):
        for twist in twists:
            keys += [CatalogKey("euler", alpha, None, n, twist) for alpha in LABELS]
            keys += [CatalogKey("word", None, beta, n, twist) for beta in ("0", "inf")]
    return keys


def reference_hom_basis(x, y):
    """Hom(x, y) from the intertwining constraint rows, built directly."""
    index = {}
    for s in x.slot_ids():
        for i in range(y.slot_dim(s)):
            for j in range(x.slot_dim(s)):
                index[(s, i, j)] = len(index)
    nvars = len(index)
    rows = []
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        xe = x.edge_matrix(e)
        ye = y.edge_matrix(e)
        for i in range(y.slot_dim(v)):
            for j in range(x.slot_dim(u)):
                row = [ZERO] * nvars
                for k in range(x.slot_dim(v)):
                    c = xe[k, j]
                    if c:
                        row[index[(v, i, k)]] = row[index[(v, i, k)]] + c
                for k in range(y.slot_dim(u)):
                    c = ye[i, k]
                    if c:
                        row[index[(u, k, j)]] = row[index[(u, k, j)]] - c
                if any(row):
                    rows.append(row)
    out = []
    for vec in abcat.kernel_basis(Matrix(len(rows), nvars, rows)):
        mats = {}
        for s in x.slot_ids():
            dy, dx = y.slot_dim(s), x.slot_dim(s)
            mats[s] = Matrix(dy, dx, [[vec[index[(s, i, j)]] for j in range(dx)] for i in range(dy)])
        out.append(Morphism(x, y, mats, check=False))
    return out


def reference_find_isomorphism(x, y):
    """The first hom_basis(x, y) map that is invertible, or None.

    A map is invertible when every slot matrix is square of full rank.
    When x or y is indecomposable this decides x ≅ y: an isomorphism
    carries the basis onto a basis of the local algebra End, whose
    members cannot all lie in its radical, so some basis map is a unit.
    """
    abcat._check_pair(x, y)
    slots = x.slot_ids()
    if any(x.slot_dim(s) != y.slot_dim(s) for s in slots):
        return None
    for h in abcat.hom_basis(x, y):
        if all(rank(h.mats[s]) == x.slot_dim(s) for s in slots):
            return h
    return None


def core_ends(x):
    """(a, b): the first and last slot of the source's core window."""
    slots = x.core_window()[0]
    return slots[0], slots[-1]


def reference_core_window(x):
    """(slots, edges, relations, checks, transport) of the source's core window, found by scanning the whole quiver.

    The slots run from a to b of core_ends(x), the edges are the arrows
    with both ends among them, the relations those whose paths use those
    edges only, and the checks the other arrows that the transport (x's
    own) does not use, each in the quiver's order.  This is the scan
    Rep.core_window replaced.
    """
    transport = x.core_window()[4]
    a, b = core_ends(x)
    ids = x.slot_ids()
    slots = ids[ids.index(a) : ids.index(b) + 1]
    inside = set(slots)
    edges = tuple(e for e in x.edge_ids() if inside.issuperset(x.edge_ends(e)))
    inner = set(edges)
    relations = tuple(rel for rel in x.relations() if all(inner.issuperset(path) for _, path in rel[2]))
    skip = inner.union(transport)
    return slots, edges, relations, tuple(e for e in x.edge_ids() if e not in skip), transport


def polynomial_mod(p, divisor):
    """The remainder of the Euler polynomial p on division by a nonzero divisor, by long division."""
    if divisor.is_zero():
        raise ZeroDivisionError("polynomial modulo zero")
    d = divisor.monic()
    rem = list(p.coeffs)
    dd = d.degree()
    while len(rem) - 1 >= dd and rem:
        if not rem[-1]:
            rem.pop()
            continue
        lead = rem[-1]
        off = len(rem) - 1 - dd
        for i, c in enumerate(d.coeffs):
            rem[off + i] = rem[off + i] - lead * c
        rem.pop()
    return EulerPolynomial(rem)


def reference_ideal_quotient_rep(p, window):
    """ideal_quotient_rep by a Weyl-algebra product per weight, the construction the closed form replaced.

    q_w is the monic Euler polynomial of theta_(w-d) * p, factored back by
    to_theta_form; column j of the t (d) matrix is u_w(E) E^j (v_w(E) E^j)
    modulo the neighbouring q, with t . theta_w = theta_(w+1) u_w(E) and
    d . theta_w = theta_(w-1) v_w(E).
    """
    if p.is_zero():
        raise ValueError("zero element generates the unit ideal quotient ambiguously")
    d = p.weight()
    if d is None:
        raise ValueError("element is not homogeneous")
    wmin, wmax = window
    if wmin > wmax:
        raise ValueError("degenerate window %r" % (window,))
    qs = {}
    for w in range(wmin, wmax + 1):
        _, q = to_theta_form(theta(w - d) * p)
        qs[w] = q.monic()
    dims = {w: q.degree() for w, q in qs.items()}

    def raising(w):
        return EulerPolynomial.one() if w >= 0 else EulerPolynomial([Scalar(w + 1), ONE])

    def lowering(w):
        return EulerPolynomial([Scalar(w), ONE]) if w >= 1 else EulerPolynomial.one()

    def reduce_cols(w_src, w_dst, factor):
        rows = dims[w_dst]
        cols = []
        for j in range(dims[w_src]):
            rem = polynomial_mod(factor * EulerPolynomial([ZERO] * j + [ONE]), qs[w_dst])
            cols.append(tuple(rem.coeffs) + (ZERO,) * (rows - len(rem.coeffs)))
        return Matrix.from_columns(cols, rows)

    tm = {w: reduce_cols(w, w + 1, raising(w)) for w in range(wmin, wmax)}
    pm = {w: reduce_cols(w, w - 1, lowering(w)) for w in range(wmin + 1, wmax + 1)}
    return GradedRep(window, dims, tm, pm)


def reference_tower_cocycle(key, big, simple, window, margin):
    """weylcat._tower_cocycle by search, the route the closed form replaced.

    The reduction big -> small sends E^j to its remainder modulo the
    smaller module's monic q; the simple is found inside its kernel by
    find_isomorphism.
    """
    small = catalog_module(replace(key, n=key.n - 1), window, margin)
    _, qpoly = to_theta_form(euler_power(key.alpha, key.n - 1))
    qpoly = qpoly.monic()
    mats = {}
    for w in big.slot_ids():
        rows = small.slot_dim(w)
        rem = polynomial_mod(EulerPolynomial([ZERO] * rows + [ONE]), qpoly)
        top = tuple(rem.coeffs[i] if i < len(rem.coeffs) else ZERO for i in range(rows))
        mats[w] = Matrix.identity(rows).hstack(Matrix.from_columns([top], rows))
    surj = Morphism(big, small, mats)
    ker_obj, ker_incl = abcat.kernel(surj)
    iso = abcat.find_isomorphism(simple, ker_obj)
    if iso is None:
        raise RuntimeError("tower kernel is not the expected simple")
    return abcat._extension_cocycle(ker_incl * iso, surj)


def reference_extension_cocycle(inj, surj):
    """abcat._extension_cocycle on an exact sequence with one splitting per slot, none shared between slots."""
    y, z, x = inj.src, inj.dst, surj.dst
    bases = {}
    for s in z.slot_ids():
        u = inj.mats[s].hstack(solve_matrix(surj.mats[s], Matrix.identity(x.slot_dim(s))))
        bases[s] = (u, inverse(u))
    block = abcat.unglue(z, bases, {s: (y.slot_dim(s), x.slot_dim(s)) for s in z.slot_ids()})
    space = abcat.ExtSpace(x, y)
    return space, space.cocycle_vector({e: block(e, 0, 1) for e in z.edge_ids()})


class FullWindowExt:
    """The full-window class machinery ExtSpace ran before its class callers moved to the core.

    δ⁰ over every slot and edge of the window, its canonical column basis
    B, the representatives that extend_basis picks over all nvars entries,
    the class coordinates from one solve against [B | reps], and the
    verdict rank [δ⁰ | c] > rank δ⁰.  It shares the space's layout and its
    cocycles, the kernel of the full δ¹.
    """

    def __init__(self, space):
        x, y = space.x, space.y
        self.space = space
        slots = abcat._slot_layout(x, y, x.slot_ids())
        self.nslots = len(slots)
        self.d0 = abcat._differential(x, y, slots, x.edge_ids())

    @cached_property
    def rank_d0(self):
        return rank_rows(self.d0, self.nslots)

    @cached_property
    def cobounds(self):
        return column_space_basis(abcat._dense(self.d0, self.nslots).columns(), self.space.nvars)

    @cached_property
    def reps(self):
        return extend_basis(self.cobounds, self.space._cocycles, self.space.nvars)

    def coboundary(self, h):
        """δ⁰ h of the vector h of slot entries."""
        return tuple(sum((a * h[k] for k, a in row.items()), ZERO) for row in self.d0)

    def augmented_rank(self, vector):
        """rank [δ⁰ | vector], the vector appended as a column."""
        n = self.nslots
        return rank_rows([{**row, n: a} if a else row for row, a in zip(self.d0, vector)], n + 1)

    def class_coords(self, vectors):
        """The coordinates of each cocycle vector, from one solve against [B | reps]."""
        n, k = self.space.nvars, len(self.cobounds)
        sol = solve_matrix(Matrix.from_columns(self.cobounds + self.reps, n), Matrix.from_columns(vectors, n))
        if sol is None:
            raise ValueError("vector is not a cocycle for this extension space")
        return [tuple(sol.column(j)[k:]) for j in range(len(vectors))]


def reference_validate(m):
    """gradedrep.validate by the hand-written commutator: p t - t p against a built identity at each interior weight."""
    tmat = {w: mat for (kind, w), mat in m.mats.items() if kind == "t"}
    pmat = {w: mat for (kind, w), mat in m.mats.items() if kind == "p"}
    violations = []
    wmin, wmax = m.window
    for w in range(wmin + 1, wmax):
        lhs = pmat[w + 1] * tmat[w] - tmat[w - 1] * pmat[w]
        if lhs != Matrix.identity(m.dims[w]):
            violations.append("commutation identity fails at weight %d" % w)
    return violations


def reference_sub_object(x, subspaces):
    """sub_object by one solve per edge against the given columns, the construction unglue replaced.

    It does not check that the columns are independent.
    """
    bases = {}
    dims = {}
    for s in x.slot_ids():
        cols = list(subspaces.get(s, ()))
        bases[s] = Matrix.from_columns(cols, x.slot_dim(s))
        dims[s] = len(cols)
    mats = {}
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        m = solve_matrix(bases[v], x.edge_matrix(e) * bases[u])
        if m is None:
            raise ValueError("subspaces are not invariant under edge %r" % (e,))
        mats[e] = m
    sub = x.with_matrices(dims, mats)
    return sub, Morphism(sub, x, bases, check=False)


def reference_quotient_object(x, subspaces):
    """quotient_object by extend_basis and inverse, the construction one elimination replaced."""
    us = {}
    for s in x.slot_ids():
        d = x.slot_dim(s)
        cols = list(subspaces.get(s, ()))
        comp = extend_basis(cols, Matrix.identity(d).columns(), d)
        if len(comp) != d - len(cols):
            raise ValueError("subspace basis at slot %r is dependent" % (s,))
        u = Matrix.from_columns(cols + comp, d)
        us[s] = (u, inverse(u), len(cols))
    mats = {}
    for e in x.edge_ids():
        u_slot, v_slot = x.edge_ends(e)
        uu, _, ku = us[u_slot]
        _, vinv, kv = us[v_slot]
        w = vinv * x.edge_matrix(e) * uu
        if not w.submatrix(kv, w.rows, 0, ku).is_zero():
            raise ValueError("subspaces are not invariant under edge %r" % (e,))
        mats[e] = w.submatrix(kv, w.rows, ku, w.cols)
    quot = x.with_matrices({s: u.rows - k for s, (u, _, k) in us.items()}, mats)
    proj = {s: uinv.submatrix(k, uinv.rows, 0, uinv.cols) for s, (_, uinv, k) in us.items()}
    return quot, Morphism(x, quot, proj, check=False)


def reference_flag_adapted_basis(x, spaces):
    """Per-slot change of basis adapted to a descending filtration, for abcat.unglue.

    spaces is F_0 .. F_n (F_0 the whole space, F_n zero) and V_i
    complements F_i inside F_{i-1}, chosen by extend_basis.  Returns
    ({slot: (U, U⁻¹)}, {slot: block sizes}) with U = [V_n | ... | V_1],
    the subobject F_{n-1} first.
    """
    n = len(spaces) - 1
    bases, sizes = {}, {}
    for s in x.slot_ids():
        d = x.slot_dim(s)
        blocks = [extend_basis(spaces[i][s], spaces[i - 1][s], d) for i in range(n, 0, -1)]
        u = Matrix.from_columns([v for blk in blocks for v in blk], d)
        uinv = inverse(u)
        if uinv is None:
            raise ValueError("filtration levels do not assemble to a basis at slot %r" % (s,))
        bases[s] = (u, uinv)
        sizes[s] = [len(blk) for blk in blocks]
    return bases, sizes


def dense_rref_rows(rows, cols):
    """Plain dense Gauss-Jordan: of the rows with a nonzero in each column, the one with the fewest nonzeros pivots.

    The reference for the sparse kernel; it reduces in place and returns
    the pivot columns, leaving the rref rows first and the zero rows last.
    The rref is unique, so any choice of pivot row gives the same rows; the
    sparsest one keeps the fill, and the time, down on long pivot chains.
    """
    m = len(rows)
    piv = 0
    pivots = []
    for c in range(cols):
        candidates = [i for i in range(piv, m) if rows[i][c]]
        if not candidates:
            continue
        target = min(candidates, key=lambda i: sum(1 for x in rows[i] if x))
        rows[piv], rows[target] = rows[target], rows[piv]
        pr = rows[piv]
        inv = ONE / pr[c]
        nz = [j for j in range(c, cols) if pr[j]]
        for j in nz:
            pr[j] = inv * pr[j]
        for i in range(m):
            f = rows[i][c]
            if i != piv and f:
                for j in nz:
                    rows[i][j] = rows[i][j] - f * pr[j]
        pivots.append(c)
        piv += 1
    return pivots


def reference_solve(a, b):
    """solve by its own augmented system [a | b], eliminated by dense_rref_rows."""
    if len(b) != a.rows:
        raise ValueError("rhs length %d != rows %d" % (len(b), a.rows))
    if a.rows == 0:
        return tuple([ZERO] * a.cols)
    rows = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    pivots = dense_rref_rows(rows, a.cols + 1)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [ZERO] * a.cols
    for i, p in enumerate(pivots):
        x[p] = rows[i][a.cols]
    return tuple(x)


def reference_inverse(m):
    """inverse by its own system [m | I], eliminated by dense_rref_rows."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    rows = [list(m.row(i)) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    pivots = dense_rref_rows(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return Matrix(n, n, [r[n:] for r in rows])


# -- iterated extensions ---------------------------------------------------------


def weyl_family():
    """The Weyl simples of labels 1/2, 0 and inf at twist 0 on WINDOW."""
    return weyl_simple_family([HALF, "0", "inf"], [0], WINDOW)


def realize_vector_other_basis(v, family):
    """realize_vector(v, family) picking from every Ext basis reversed and doubled, other cocycle representatives."""
    basis = abcat.ExtSpace.basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abcat.ExtSpace, "basis", lambda self: [c.scale(ONE + ONE) for c in reversed(basis(self))])
        return realize_vector(v, family)


def random_splices():
    """(sub, quotient, splice) of six seeded splices of Weyl iterated extensions, along a class or split."""
    rng = random.Random(31)
    fam = weyl_family()
    pool = [
        realize_vector(("1/2@0",), fam),
        realize_vector(("1/2@0", "1/2@0"), fam),
        realize_vector(("0@0",), fam),
        realize_vector(("0@0", "inf@0"), fam),
        realize_vector(("inf@0", "0@0"), fam),
    ]
    for _ in range(6):
        e_sub = rng.choice(pool)
        e_quot = rng.choice(pool)
        classes = abcat.ext1_basis(e_quot.x, e_sub.x)
        if classes and rng.random() < 0.7:
            cls = rng.choice(classes)
            z, inj, surj = abcat.realize_extension(cls)
        else:
            ds = abcat.direct_sum(e_sub.x, e_quot.x)
            inj, surj = ds.inj1, ds.proj2
        yield e_sub, e_quot, splice(e_sub, e_quot, inj, surj)


def validate_iterated_extension(e):
    """The problems of an iterated extension: surjectivity, kernel dimensions and kernel embeddings."""
    problems = []
    for i in range(e.length):
        f = e.fs[i]
        mono = e.kernel_monos[i]
        if f.src != e.cs[i]:
            problems.append("level %d: surjection has wrong source" % (i + 1,))
            continue
        if i and f.dst != e.cs[i - 1]:
            problems.append("level %d: surjection has wrong target" % (i + 1,))
        if not f.is_surjective():
            problems.append("level %d: map is not surjective" % (i + 1,))
        if not mono.is_injective():
            problems.append("level %d: kernel embedding is not injective" % (i + 1,))
        if not (f * mono).is_zero():
            problems.append("level %d: embedded simple does not die" % (i + 1,))
        expected = dict(e.family)[e.order_vector[i]]
        if mono.src != expected:
            problems.append("level %d: kernel is not the standard simple" % (i + 1,))
        if abcat.total_dim(e.cs[i]) != abcat.total_dim(mono.src) + (abcat.total_dim(e.cs[i - 1]) if i else 0):
            problems.append("level %d: dimensions do not add" % (i + 1,))
    return problems


def reference_cofiltration_from_filtration(filt):
    """cofiltration_from_filtration by a quotient, a solve and a kernel search per level.

    This is the construction that the gluing of the flag's deformation data
    replaced.
    """
    x = filt.x
    n = len(filt.order_vector)
    fam = dict(filt.family)
    cs = []
    projs = []
    for i in range(n + 1):
        if i == n:
            cs.append(x)
            projs.append(abcat.identity_morphism(x))
            break
        quot, proj = abcat.quotient_object(x, filt.spaces[i])
        cs.append(quot)
        projs.append(proj)
    fs = []
    monos = []
    for i in range(1, n + 1):
        # induced surjection cs[i] -> cs[i-1] through the projections from x
        mats = {}
        for s in x.slot_ids():
            pi = projs[i].mats[s]
            pim1 = projs[i - 1].mats[s]
            ft = solve_matrix(pi.transpose(), pim1.transpose())
            if ft is None:
                raise ValueError("filtration levels are not nested at slot %r" % (s,))
            mats[s] = ft.transpose()
        f = Morphism(cs[i], cs[i - 1], mats)
        fs.append(f)
        ker_obj, ker_incl = abcat.kernel(f)
        iso = abcat.find_isomorphism(fam[filt.order_vector[i - 1]], ker_obj)
        if iso is None:
            raise ValueError("kernel at level %d is not the expected simple" % i)
        monos.append(ker_incl * iso)
    return IteratedExtension(filt.family, filt.order_vector, cs[1:], fs, monos)


# -- the hand-rolled block builders that abcat.glue replaced ---------------------


def reference_glue(parts, correction):
    """abcat.glue by a grid of blocks per edge, every correction taken first, then one Matrix.block."""
    first = parts[0]
    mats = {}
    for e in first.edge_ids():
        u, v = first.edge_ends(e)
        grid = [
            [p.edge_matrix(e) if i == j else correction(i, j, e) for j in range(len(parts))]
            for i, p in enumerate(parts)
        ]
        mats[e] = Matrix.block(grid, [p.slot_dim(v) for p in parts], [p.slot_dim(u) for p in parts])
    return first.with_matrices({s: sum(p.slot_dim(s) for p in parts) for s in first.slot_ids()}, mats)


def reference_direct_sum(x, y):
    """direct_sum with its own block grid and identity slicing."""
    dims = {s: x.slot_dim(s) + y.slot_dim(s) for s in x.slot_ids()}
    mats = {}
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        mats[e] = Matrix.block(
            [[x.edge_matrix(e), None], [None, y.edge_matrix(e)]],
            [x.slot_dim(v), y.slot_dim(v)],
            [x.slot_dim(u), y.slot_dim(u)],
        )
    z = x.with_matrices(dims, mats)
    inj1, inj2, proj1, proj2 = {}, {}, {}, {}
    for s in x.slot_ids():
        dx, d = x.slot_dim(s), dims[s]
        one = Matrix.identity(d)
        inj1[s] = one.submatrix(0, d, 0, dx)
        inj2[s] = one.submatrix(0, d, dx, d)
        proj1[s] = one.submatrix(0, dx, 0, d)
        proj2[s] = one.submatrix(dx, d, 0, d)
    return DirectSum(z, Morphism(x, z, inj1), Morphism(y, z, inj2), Morphism(z, x, proj1), Morphism(z, y, proj2))


def reference_realize_extension(xi):
    """realize_extension with its own block grid and identity slicing; the maps are checked."""
    x, y = xi.space.x, xi.space.y
    dims = {s: y.slot_dim(s) + x.slot_dim(s) for s in x.slot_ids()}
    mats = {}
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        mats[e] = Matrix.block(
            [[y.edge_matrix(e), xi.correction_matrix(e)], [None, x.edge_matrix(e)]],
            [y.slot_dim(v), x.slot_dim(v)],
            [y.slot_dim(u), x.slot_dim(u)],
        )
    z = y.with_matrices(dims, mats)
    inj, surj = {}, {}
    for s in x.slot_ids():
        dy, d = y.slot_dim(s), dims[s]
        one = Matrix.identity(d)
        inj[s] = one.submatrix(0, d, 0, dy)
        surj[s] = one.submatrix(dy, d, 0, d)
    return z, Morphism(y, z, inj), Morphism(z, x, surj)


def _reference_block_object(d, positions):
    order = d.gamma.order_vector
    template = d.factor_objects[0][1]
    simples = [d.factor(order[p - 1]) for p in positions]
    dims = {s: sum(sp.slot_dim(s) for sp in simples) for s in template.slot_ids()}
    mats = {}
    for edge in template.edge_ids():
        u, v = template.edge_ends(edge)
        grid = [[d.psi_matrix(pj, pi, edge) if pj < pi else None for pj in positions] for pi in positions]
        for bi, sp in enumerate(simples):
            grid[bi][bi] = sp.edge_matrix(edge)
        mats[edge] = Matrix.block(grid, [sp.slot_dim(v) for sp in simples], [sp.slot_dim(u) for sp in simples])
    obj = template.with_matrices(dims, mats)
    assert not obj.violations()
    return obj, simples


def reference_from_deformation(d):
    """from_deformation with a block grid per stage and identity slicing; the maps are checked."""
    order = d.gamma.order_vector
    cs, fs, monos = [], [], []
    prev = None
    for m in range(1, len(order) + 1):
        obj, simples = _reference_block_object(d, list(range(1, m + 1)))
        cs.append(obj)
        ones = {s: Matrix.identity(obj.slot_dim(s)) for s in obj.slot_ids()}
        if m == 1:
            fs.append(abcat.zero_morphism(obj, abcat.zero_like(obj)))
        else:
            keep = {s: one.submatrix(0, prev.slot_dim(s), 0, one.cols) for s, one in ones.items()}
            fs.append(Morphism(obj, prev, keep))
        simple = simples[-1]
        last = {s: one.submatrix(0, one.rows, one.cols - simple.slot_dim(s), one.cols) for s, one in ones.items()}
        monos.append(Morphism(simple, obj, last))
        prev = obj
    return IteratedExtension(d.factor_objects, order, cs, fs, monos)


def reference_deformation_total_object(d):
    """deformation_total_object with its own block grid over the path-algebra components."""
    algebra = PathAlgebra(d.gamma)
    order = d.gamma.order_vector
    n = len(order)
    template = d.factor_objects[0][1]
    comps = algebra.basis
    comp_simple = [d.factor(algebra.target(b)) for b in comps]

    def corrections(b):
        out = []
        positions = [i for i in range(1, n + 1) if order[i - 1] == b[1]] if b[0] == "e" else [b[2]]
        for i in positions:
            for j in range(i + 1, n + 1):
                target = ("run", i + 1, j) if b[0] == "e" else ("run", b[1], j)
                if target in algebra.index:
                    out.append((i, j, algebra.index[target]))
        return out

    dims = {s: sum(sp.slot_dim(s) for sp in comp_simple) for s in template.slot_ids()}
    mats = {}
    for edge in template.edge_ids():
        u, v = template.edge_ends(edge)
        grid = [[None] * len(comps) for _ in comps]
        for bi, b in enumerate(comps):
            grid[bi][bi] = comp_simple[bi].edge_matrix(edge)
            for (i, j, tgt_idx) in corrections(b):
                grid[tgt_idx][bi] = d.psi_matrix(i, j, edge)
        mats[edge] = Matrix.block(grid, [sp.slot_dim(v) for sp in comp_simple], [sp.slot_dim(u) for sp in comp_simple])
    total = template.with_matrices(dims, mats)
    assert not total.violations()
    return total, algebra
