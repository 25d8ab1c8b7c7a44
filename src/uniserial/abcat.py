"""Generic exact-category engine over the two matrix backends.

Objects are anything implementing the small backend protocol shared by
GradedRep and QuiverRep: ordered slots with dimensions, named edges with
matrices, and linear relations (paths with optional identity terms).
Morphisms are per-slot matrices intertwining the edge matrices; on the
graded backend these are exactly the degree-0 maps.

Hom and Ext^1 of a pair (x, y) are read off one standard complex (Ringel,
Representations of K-species and bimodules, 1976):

    ⊕_s Hom(x_s, y_s) --δ⁰--> ⊕_e Hom(x_u, y_v) --δ¹--> ⊕_rel Hom(x_u, y_v)

δ⁰(h) = (h_v X_e − Y_e h_u)_e over the edges e: u -> v, and δ¹ linearizes
the relations at the split extension, whose correction c = (c_e) gives the
edge matrices [[Y_e, c_e], [0, X_e]].  Hom(x, y) = ker δ⁰, the coboundaries
B = im δ⁰ come from conjugating by [[1, h], [0, 1]], the cocycles are
Z = ker δ¹, and Ext^1(x, y) = Z / B.  _differential and _relation_rows
build the two maps; hom_basis and ExtSpace both read δ⁰ from the first.
Since B lies in Z, dim Ext^1 and dim Hom are two ranks, of δ¹ and δ⁰,
and a cocycle c has zero class iff rank [δ⁰ | c] = rank δ⁰; ExtSpace
builds Z and B themselves only on first use, for its class callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    Matrix,
    ONE,
    ZERO,
    column_space_basis,
    extend_basis,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_matrix,
    trace_product,
)


class BackendMismatchError(ValueError):
    """Operands live over different backends or incompatible spaces."""


class NotFiniteLengthError(ValueError):
    """A nonzero object admits no map from any simple in the family."""


def _check_pair(x, y):
    if type(x) is not type(y) or not x.same_space(y):
        raise BackendMismatchError("objects live over different backends or windows/presentations")


def zero_like(x):
    return x.with_matrices({s: 0 for s in x.slot_ids()}, {})


def total_dim(x) -> int:
    return sum(x.slot_dim(s) for s in x.slot_ids())


class Morphism:
    """Structure-preserving map given by one matrix per slot."""

    __slots__ = ("src", "dst", "mats")

    def __init__(self, src, dst, mats, check=True):
        _check_pair(src, dst)
        full = {}
        for s in src.slot_ids():
            m = mats.get(s)
            if m is None:
                m = Matrix.zero(dst.slot_dim(s), src.slot_dim(s))
            if m.rows != dst.slot_dim(s) or m.cols != src.slot_dim(s):
                raise ValueError("morphism matrix at slot %r has wrong shape" % (s,))
            full[s] = m
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "mats", full)
        if check:
            for e in src.edge_ids():
                u, v = src.edge_ends(e)
                lhs = full[v] * src.edge_matrix(e)
                rhs = dst.edge_matrix(e) * full[u]
                if lhs != rhs:
                    raise ValueError("matrices do not intertwine edge %r" % (e,))

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.src == other.src
            and self.dst == other.dst
            and self.mats == other.mats
        )

    def __mul__(self, other: "Morphism") -> "Morphism":
        """Composition self(other(.)); other is applied first."""
        if other.dst != self.src:
            raise ValueError("composition mismatch")
        return Morphism(
            other.src,
            self.dst,
            {s: self.mats[s] * other.mats[s] for s in self.src.slot_ids()},
            check=False,
        )

    def __add__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.src, self.dst, {s: self.mats[s] + other.mats[s] for s in self.mats}, check=False)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return Morphism(self.src, self.dst, {s: self.mats[s] - other.mats[s] for s in self.mats}, check=False)

    def __neg__(self) -> "Morphism":
        return Morphism(self.src, self.dst, {s: -m for s, m in self.mats.items()}, check=False)

    def scale(self, c) -> "Morphism":
        return Morphism(self.src, self.dst, {s: m.scale(c) for s, m in self.mats.items()}, check=False)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_injective(self) -> bool:
        return all(rank(m) == m.cols for m in self.mats.values())

    def is_surjective(self) -> bool:
        return all(rank(m) == m.rows for m in self.mats.values())

    def __repr__(self):
        return "Morphism(%r -> %r)" % (self.src, self.dst)


def identity_morphism(x) -> Morphism:
    return Morphism(x, x, {s: Matrix.identity(x.slot_dim(s)) for s in x.slot_ids()}, check=False)


def zero_morphism(x, y) -> Morphism:
    return Morphism(x, y, {}, check=False)


def change_basis(x, us):
    """Conjugate all edge matrices by invertible per-slot matrices us."""
    inv = {s: inverse(us[s]) for s in x.slot_ids()}
    if any(v is None for v in inv.values()):
        raise ValueError("basis change must be invertible")
    mats = {}
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        mats[e] = us[v] * x.edge_matrix(e) * inv[u]
    return x.with_matrices({s: x.slot_dim(s) for s in x.slot_ids()}, mats)


# -- the standard complex of a pair ---------------------------------------------


def _slot_layout(x, y):
    """Index of each unknown (slot, i, j) of a per-slot map x -> y: the columns of δ⁰."""
    index = {}
    for s in x.slot_ids():
        for i in range(y.slot_dim(s)):
            for j in range(x.slot_dim(s)):
                index[(s, i, j)] = len(index)
    return index


def _edge_layout(x, y):
    """Index of each entry (e, i, j) of the edge blocks Hom(x_u, y_v): the rows of δ⁰."""
    index = {}
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        for i in range(y.slot_dim(v)):
            for j in range(x.slot_dim(u)):
                index[(e, i, j)] = len(index)
    return index


def _differential(x, y, slots, edges):
    """δ⁰: h -> (h_v X_e - Y_e h_u)_e as dense rows, row edges[(e, i, j)] for entry (i, j) at e.

    Column (s, i, j) is the coboundary of the unit map at (s, i, j).
    """
    rows = [[ZERO] * len(slots) for _ in edges]
    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        xe = x.edge_matrix(e)
        ye = y.edge_matrix(e)
        for i in range(y.slot_dim(v)):
            for j in range(x.slot_dim(u)):
                row = rows[edges[(e, i, j)]]
                for k in range(x.slot_dim(v)):
                    c = xe[k, j]
                    if c:
                        row[slots[(v, i, k)]] = row[slots[(v, i, k)]] + c
                for k in range(y.slot_dim(u)):
                    c = ye[i, k]
                    if c:
                        row[slots[(u, k, j)]] = row[slots[(u, k, j)]] - c
    return rows


def _relation_rows(x, y, edges):
    """δ¹ as its nonzero dense rows, one per entry (i, j) of each relation u -> v.

    A path p = e_1 ... e_n of the relation changes, to first order in the
    corrections, by the sum over positions of Y_{e_n} ... c_{e_pos} ... X_{e_1},
    so entry (i, j) gets coef * suf[i, r] * pre[c, j] at the unknown (e_pos, r, c).
    The prefix and suffix products are built once per term, None standing
    for an identity, and only their nonzero entries are visited.
    """
    out = []
    for (u, v, terms) in x.relations():
        dxu = x.slot_dim(u)
        dyv = y.slot_dim(v)
        if not dxu or not dyv:
            continue
        rows = [[ZERO] * len(edges) for _ in range(dyv * dxu)]
        unit = [[(k, ONE)] for k in range(max(dxu, dyv))]
        for coef, path in terms:
            pres = [None]
            for name in path[:-1]:
                xe = x.edge_matrix(name)
                pres.append(xe if pres[-1] is None else xe * pres[-1])
            sufs = [None]
            for name in reversed(path[1:]):
                ye = y.edge_matrix(name)
                sufs.append(ye if sufs[-1] is None else sufs[-1] * ye)
            sufs.reverse()
            for edge, pre, suf in zip(path, pres, sufs):
                pre_cols = unit[:dxu] if pre is None else _nonzeros(pre.columns())
                suf_rows = unit[:dyv] if suf is None else _nonzeros(map(suf.row, range(dyv)))
                for i, entries in enumerate(suf_rows):
                    for r, sc in entries:
                        f = coef * sc
                        for j, col in enumerate(pre_cols):
                            row = rows[i * dxu + j]
                            for c, pc in col:
                                k = edges[(edge, r, c)]
                                row[k] = row[k] + f * pc
        out.extend(row for row in rows if any(row))
    return out


def _nonzeros(vectors):
    """[(position, entry), ...] of the nonzero entries of each vector."""
    return [[(k, a) for k, a in enumerate(vec) if a] for vec in vectors]


# -- Hom ---------------------------------------------------------------------


def hom_basis(x, y):
    """Basis of the space of structure-preserving maps x -> y: ker δ⁰."""
    _check_pair(x, y)
    slots = _slot_layout(x, y)
    rows = [row for row in _differential(x, y, slots, _edge_layout(x, y)) if any(row)]
    sols = kernel_basis(Matrix(len(rows), len(slots), rows))
    out = []
    for vec in sols:
        mats = {}
        for s in x.slot_ids():
            dy, dx = y.slot_dim(s), x.slot_dim(s)
            mats[s] = Matrix(dy, dx, [[vec[slots[(s, i, j)]] for j in range(dx)] for i in range(dy)])
        out.append(Morphism(x, y, mats, check=False))
    return out


def find_isomorphism(x, y):
    """The first hom_basis(x, y) map that is invertible, or None.

    A map is invertible when every slot matrix is square of full rank.
    When x or y is indecomposable this decides x ≅ y: an isomorphism
    carries the basis onto a basis of the local algebra End, whose
    members cannot all lie in its radical, so some basis map is a unit.
    """
    _check_pair(x, y)
    slots = x.slot_ids()
    if any(x.slot_dim(s) != y.slot_dim(s) for s in slots):
        return None
    for h in hom_basis(x, y):
        if all(rank(h.mats[s]) == x.slot_dim(s) for s in slots):
            return h
    return None


# -- direct sums, subobjects, quotients --------------------------------------


@dataclass(frozen=True)
class DirectSum:
    obj: object
    inj1: Morphism
    inj2: Morphism
    proj1: Morphism
    proj2: Morphism


def direct_sum(x, y) -> DirectSum:
    _check_pair(x, y)
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
    inj1 = {}
    inj2 = {}
    proj1 = {}
    proj2 = {}
    for s in x.slot_ids():
        dx, d = x.slot_dim(s), dims[s]
        one = Matrix.identity(d)
        inj1[s] = one.submatrix(0, d, 0, dx)
        inj2[s] = one.submatrix(0, d, dx, d)
        proj1[s] = one.submatrix(0, dx, 0, d)
        proj2[s] = one.submatrix(dx, d, 0, d)
    return DirectSum(
        z,
        Morphism(x, z, inj1, check=False),
        Morphism(y, z, inj2, check=False),
        Morphism(z, x, proj1, check=False),
        Morphism(z, y, proj2, check=False),
    )


def sub_object(x, subspaces):
    """Subobject spanned by per-slot column bases; returns (object, inclusion).

    The given spans must be invariant under the edge matrices, otherwise
    the defining solves are inconsistent and a ValueError is raised.
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
        pushed = x.edge_matrix(e) * bases[u]
        m = solve_matrix(bases[v], pushed)
        if m is None:
            raise ValueError("subspaces are not invariant under edge %r" % (e,))
        mats[e] = m
    sub = x.with_matrices(dims, mats)
    incl = Morphism(sub, x, bases, check=False)
    return sub, incl


def quotient_object(x, subspaces):
    """Quotient by the span of per-slot columns; returns (object, projection).

    One elimination per slot, of [cols | I]: the columns are independent
    when they are its first pivots, and the identity columns it picks are
    the complement (the extend_basis choice).  Its pivot columns
    u = [cols | complement] reduce to the identity in order, so the I part
    of the rref is u⁻¹, whose bottom rows are the projection.
    """
    us = {}
    ks = {}
    projs = {}
    for s in x.slot_ids():
        d = x.slot_dim(s)
        cols = list(subspaces.get(s, ()))
        k = ks[s] = len(cols)
        one = Matrix.identity(d)
        red, pivots = rref(Matrix.from_columns(cols, d).hstack(one))
        if pivots[:k] != list(range(k)):
            raise ValueError("subspace basis at slot %r is dependent" % (s,))
        us[s] = Matrix.from_columns(cols + [one.column(p - k) for p in pivots[k:]], d)
        projs[s] = red.submatrix(k, d, k, k + d)
    mats = {}
    for e in x.edge_ids():
        u_slot, v_slot = x.edge_ends(e)
        ku = ks[u_slot]
        w = projs[v_slot] * x.edge_matrix(e) * us[u_slot]
        # invariance: the sub block must not leak into the quotient rows
        if not w.submatrix(0, w.rows, 0, ku).is_zero():
            raise ValueError("subspaces are not invariant under edge %r" % (e,))
        mats[e] = w.submatrix(0, w.rows, ku, w.cols)
    quot = x.with_matrices({s: p.rows for s, p in projs.items()}, mats)
    return quot, Morphism(x, quot, projs, check=False)


def kernel(f: Morphism):
    """Kernel subobject with its inclusion into f.src."""
    spaces = {s: kernel_basis(f.mats[s]) for s in f.src.slot_ids()}
    return sub_object(f.src, spaces)


def image(f: Morphism):
    """Image subobject with its inclusion into f.dst."""
    spaces = {}
    for s in f.src.slot_ids():
        spaces[s] = column_space_basis(f.mats[s].columns(), f.dst.slot_dim(s))
    return sub_object(f.dst, spaces)


def fiber_product(g1: Morphism, g2: Morphism):
    """Pullback of g1: e1 -> u and g2: e2 -> u inside e1 + e2."""
    if g1.dst != g2.dst:
        raise BackendMismatchError("fiber product needs a shared codomain")
    ds = direct_sum(g1.src, g2.src)
    h = (g1 * ds.proj1) - (g2 * ds.proj2)
    obj, incl = kernel(h)
    return obj, ds.proj1 * incl, ds.proj2 * incl


def amalgamated_sum(f1: Morphism, f2: Morphism):
    """Pushout of injective f1: u -> e1 and f2: u -> e2."""
    if f1.src != f2.src:
        raise BackendMismatchError("amalgamated sum needs a shared domain")
    if not f1.is_injective() or not f2.is_injective():
        raise ValueError("amalgamated sum requires injective maps")
    ds = direct_sum(f1.dst, f2.dst)
    h = (ds.inj1 * f1) - (ds.inj2 * f2)
    spaces = {s: column_space_basis(h.mats[s].columns(), ds.obj.slot_dim(s)) for s in ds.obj.slot_ids()}
    obj, proj = quotient_object(ds.obj, spaces)
    return obj, proj * ds.inj1, proj * ds.inj2


# -- Ext^1 by extension classification ---------------------------------------


class ExtSpace:
    """The space of extensions of x by y, with a chosen cocycle basis.

    The constructor builds the two maps of the standard complex (see the
    module docstring) and eliminates nothing.  B = im δ⁰ lies inside
    Z = ker δ¹, since conjugating the split extension keeps every
    relation, so dim() = dim Z - dim B = nvars - rank δ¹ - rank δ⁰, and by
    rank-nullity hom_dim() = dim Hom(x, y) = nslots - rank δ⁰: two ranks,
    each taken once.  The vectors are built on first use, by basis,
    class_coords or class_from_coords: the cocycles `_cocycles` (kernel
    basis of δ¹), the canonical coboundary basis `cobounds` (of the columns
    of δ⁰) and the class representatives `reps` (the cocycles that complete
    B, picked by extend_basis).  Whether a cocycle's class is zero is one
    more rank, augmented_rank, and needs none of them.
    """

    def __init__(self, x, y):
        _check_pair(x, y)
        self.x = x
        self.y = y
        slots = _slot_layout(x, y)
        self.nslots = len(slots)
        self.index = _edge_layout(x, y)
        self.nvars = len(self.index)
        rows = _relation_rows(x, y, self.index)
        self._d1 = Matrix(len(rows), self.nvars, rows)
        self._d0 = Matrix(self.nvars, self.nslots, _differential(x, y, slots, self.index))

    @cached_property
    def _rank_d1(self):
        return rank(self._d1)

    @cached_property
    def _rank_d0(self):
        return rank(self._d0)

    @cached_property
    def _cocycles(self):
        return kernel_basis(self._d1)

    @cached_property
    def cobounds(self):
        return column_space_basis(self._d0.columns(), self.nvars)

    @cached_property
    def reps(self):
        """The cocycles, in order, that complete the coboundary basis: one per class."""
        return extend_basis(self.cobounds, self._cocycles, self.nvars)

    def dim(self) -> int:
        return self.nvars - self._rank_d1 - self._rank_d0

    def hom_dim(self) -> int:
        return self.nslots - self._rank_d0

    def augmented_rank(self, vector) -> int:
        """rank [δ⁰ | vector], the vector appended as a column.

        It exceeds rank δ⁰ exactly when the vector is not a coboundary, so
        on a cocycle it decides whether the class is nonzero without
        building Z, B or the class representatives.
        """
        return rank(self._d0.hstack(Matrix.from_columns([vector], self.nvars)))

    def class_coords(self, vector):
        """Coordinates of a cocycle vector in the chosen Ext basis."""
        if not any(vector):
            return tuple([ZERO] * self.dim())
        aug = Matrix.from_columns(list(self.cobounds) + list(self.reps), self.nvars)
        sol = solve(aug, tuple(vector))
        if sol is None:
            raise ValueError("vector is not a cocycle for this extension space")
        return tuple(sol[len(self.cobounds) :])

    def cocycle_vector(self, blocks):
        """The vector whose correction block at each edge is blocks[edge]."""
        vec = [ZERO] * self.nvars
        for (e, i, j), k in self.index.items():
            vec[k] = blocks[e][i, j]
        return tuple(vec)

    def class_from_coords(self, coords) -> "ExtClass":
        vec = [ZERO] * self.nvars
        for c, rep in zip(coords, self.reps):
            if c:
                for k, v in enumerate(rep):
                    if v:
                        vec[k] = vec[k] + c * v
        return ExtClass(self, tuple(vec), tuple(coords))

    def basis(self):
        n = len(self.reps)
        out = []
        for k in range(n):
            coords = tuple(ONE if i == k else ZERO for i in range(n))
            out.append(ExtClass(self, tuple(self.reps[k]), coords))
        return out


@dataclass(frozen=True)
class ExtClass:
    """An extension class with a chosen cocycle representative."""

    space: ExtSpace
    vector: tuple
    coords: tuple

    def is_zero(self) -> bool:
        return not any(self.coords)

    def scale(self, c) -> "ExtClass":
        return self.space.class_from_coords(tuple(c * v for v in self.coords))

    def correction_matrix(self, edge) -> Matrix:
        x, y = self.space.x, self.space.y
        u, v = x.edge_ends(edge)
        dy, dx = y.slot_dim(v), x.slot_dim(u)
        return Matrix(dy, dx, [[self.vector[self.space.index[(edge, i, j)]] for j in range(dx)] for i in range(dy)])


def ext1_basis(x, y):
    """Basis of the space of extensions of x by y, as ExtClass objects."""
    return ExtSpace(x, y).basis()


def realize_extension(xi: ExtClass):
    """Middle object of the extension with its inclusion and surjection."""
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
    inj = {}
    surj = {}
    for s in x.slot_ids():
        dy, d = y.slot_dim(s), dims[s]
        one = Matrix.identity(d)
        inj[s] = one.submatrix(0, d, 0, dy)
        surj[s] = one.submatrix(dy, d, 0, d)
    return z, Morphism(y, z, inj, check=False), Morphism(z, x, surj, check=False)


def _extension_cocycle(inj: Morphism, surj: Morphism):
    """(ExtSpace(x, y), cocycle vector) of a short exact sequence inj, surj.

    Verifies exactness (inj injective, surj surjective, composition zero,
    dimensions add), then reads the correction blocks off a k-linear
    splitting.  Builds no Z, B or class representatives.
    """
    y, z, x = inj.src, inj.dst, surj.dst
    if surj.src != z:
        raise ValueError("inj and surj do not share the middle object")
    if not inj.is_injective():
        raise ValueError("inclusion is not injective")
    if not surj.is_surjective():
        raise ValueError("surjection is not surjective")
    if not (surj * inj).is_zero():
        raise ValueError("composition is not zero")
    for s in z.slot_ids():
        if z.slot_dim(s) != x.slot_dim(s) + y.slot_dim(s):
            raise ValueError("dimensions do not add at slot %r" % (s,))
    us = {}
    uinvs = {}
    for s in z.slot_ids():
        section = solve_matrix(surj.mats[s], Matrix.identity(x.slot_dim(s)))
        if section is None:
            raise ValueError("no linear section at slot %r" % (s,))
        u = inj.mats[s].hstack(section)
        uinv = inverse(u)
        if uinv is None:
            raise ValueError("splitting is singular at slot %r" % (s,))
        us[s] = u
        uinvs[s] = uinv
    space = ExtSpace(x, y)
    blocks = {}
    for e in z.edge_ids():
        u_slot, v_slot = z.edge_ends(e)
        w = uinvs[v_slot] * z.edge_matrix(e) * us[u_slot]
        dy = y.slot_dim(v_slot)
        ky = y.slot_dim(u_slot)
        # sanity: lower-left block must vanish
        if not w.submatrix(dy, w.rows, 0, ky).is_zero():
            raise ValueError("inclusion image is not invariant under edge %r" % (e,))
        blocks[e] = w.submatrix(0, dy, ky, w.cols)
    return space, space.cocycle_vector(blocks)


def extract_class(inj: Morphism, surj: Morphism) -> ExtClass:
    """Extension class of a short exact sequence given by inj and surj.

    The cocycle that _extension_cocycle reads off a splitting, after the
    same exactness checks, with its coordinates in the chosen Ext basis.
    """
    space, vec = _extension_cocycle(inj, surj)
    return ExtClass(space, vec, space.class_coords(vec))


def pullback_extension(xi: ExtClass, mono: Morphism) -> ExtClass:
    """Restrict an extension of x by y along an injective mono: x' -> x."""
    if not mono.is_injective():
        raise ValueError("pullback needs an injective map")
    if mono.dst != xi.space.x:
        raise ValueError("mono does not land in the extension base")
    x2 = mono.src
    space2 = ExtSpace(x2, xi.space.y)
    x = xi.space.x
    blocks = {e: xi.correction_matrix(e) * mono.mats[x.edge_ends(e)[0]] for e in x.edge_ids()}
    vec = space2.cocycle_vector(blocks)
    return ExtClass(space2, vec, space2.class_coords(vec))


# -- socle, series, indecomposability ----------------------------------------


@dataclass(frozen=True)
class SocleResult:
    obj: object
    inclusion: Morphism
    multiplicities: tuple  # ((label, count), ...) over the supplied family


def _maps_from(family, x):
    """((label, basis of Hom(simple, x)), ...) over the family (label, simple) pairs."""
    return [(label, hom_basis(simple, x)) for label, simple in family]


def socle(x, family) -> SocleResult:
    """Largest semisimple subobject over the family (label, simple) pairs."""
    spans = {s: [] for s in x.slot_ids()}
    mults = []
    for label, homs in _maps_from(family, x):
        mults.append((label, len(homs)))
        for phi in homs:
            for s in x.slot_ids():
                spans[s].extend(phi.mats[s].columns())
    spaces = {s: column_space_basis(spans[s], x.slot_dim(s)) for s in x.slot_ids()}
    obj, incl = sub_object(x, spaces)
    return SocleResult(obj, incl, tuple(mults))


@dataclass(frozen=True)
class SeriesStep:
    label: object
    mono: Morphism  # simple -> current stage
    proj: Morphism  # current stage -> next stage
    stage: object  # the object this step peeled from


@dataclass(frozen=True)
class CompositionSeries:
    factors: tuple  # labels in cofiltration order (top factor first)
    steps: tuple  # extraction order: first step peels the deepest factor

    def multiplicities(self):
        out = {}
        for f in self.factors:
            out[f] = out.get(f, 0) + 1
        return out


def _peel(x, family):
    """Peel x one simple subobject at a time: yields (SeriesStep, socle is simple).

    Each stage lists every basis map simple -> stage over the family and
    quotients by the image of the first one.  The socle is simple exactly
    when one map was found, and then its span is that image.
    """
    current = x
    while total_dim(current) > 0:
        found = [(label, phi) for label, homs in _maps_from(family, current) for phi in homs]
        if not found:
            raise NotFiniteLengthError("nonzero object admits no simple subobject from the family")
        label, phi = found[0]
        spaces = {s: column_space_basis(phi.mats[s].columns(), current.slot_dim(s)) for s in current.slot_ids()}
        quot, proj = quotient_object(current, spaces)
        yield SeriesStep(label, phi, proj, current), len(found) == 1
        current = quot


def composition_series(x, family) -> CompositionSeries:
    """Peel simple subobjects repeatedly; factors come back in
    cofiltration order (the last-peeled top factor first)."""
    steps = tuple(step for step, _ in _peel(x, family))
    return CompositionSeries(tuple(step.label for step in reversed(steps)), steps)


def _slot_trace(x, a, b):
    """Slot-summed tr(a∘b) for endomorphisms a, b of x."""
    return sum((trace_product(a.mats[s], b.mats[s]) for s in x.slot_ids()), ZERO)


def end_algebra_dims(x):
    """(dim End, dim rad End); rad End is the kernel of the trace form.

    In characteristic zero the Jacobson radical of a matrix algebra is the
    radical of (f, g) -> tr(f∘g), so dim rad = dim End - rank of its Gram
    matrix on the hom_basis(x, x) basis.
    """
    endos = hom_basis(x, x)
    gram = Matrix(len(endos), len(endos), [[_slot_trace(x, f, g) for g in endos] for f in endos])
    return len(endos), len(endos) - rank(gram)


def is_indecomposable(x):
    """(verdict, certificate) with certificate = (dim End, dim rad)."""
    if total_dim(x) == 0:
        raise ValueError("zero object")
    dim_end, dim_rad = end_algebra_dims(x)
    return dim_end - dim_rad == 1, (dim_end, dim_rad)


def are_isomorphic(x, y) -> bool:
    """Decide y ≅ x for an indecomposable x by the Hom-basis search.

    End(x) is local (Fitting's lemma), so if y ≅ x some map in the
    hom_basis(x, y) basis is invertible: composing with an isomorphism
    turns that basis into a basis of End(x), and not every member of a
    basis lies in rad End(x).  Conversely an invertible map is an
    isomorphism.  This holds over any field (Auslander–Reiten–Smalø,
    Representation Theory of Artin Algebras, §II).  Only x is certified:
    y may be any object on the same backend.
    """
    _check_pair(x, y)
    ok, _ = is_indecomposable(x)
    if not ok:
        raise ValueError("are_isomorphic requires an indecomposable first argument")
    return find_isomorphism(x, y) is not None


def is_uniserial(x, family):
    """(verdict, series) where series lists factor labels top-first.

    Stops at the first stage whose socle over the family is not simple.
    """
    series = []
    for step, simple_socle in _peel(x, family):
        if not simple_socle:
            return False, None
        series.append(step.label)
    return True, tuple(reversed(series))
