import itertools

from uniserial.abcat import Morphism
from uniserial.linalg import Matrix, Scalar, extend_basis, inverse
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
