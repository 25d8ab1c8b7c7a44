import itertools

from uniserial.abcat import Morphism
from uniserial.linalg import ONE, ZERO, Matrix, Scalar, extend_basis, inverse
from uniserial.quiverrep import QuiverPresentation, QuiverRep
from uniserial.weyl import WeylElement


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


def dense_rref_rows(rows, cols):
    """Plain dense Gauss-Jordan: the first row with a nonzero in each column pivots.

    The reference for the sparse kernel; it reduces in place and returns
    the pivot columns, leaving the rref rows first and the zero rows last.
    """
    m = len(rows)
    piv = 0
    pivots = []
    for c in range(cols):
        target = next((i for i in range(piv, m) if rows[i][c]), None)
        if target is None:
            continue
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
