"""Generic exact-category engine over the two matrix backends.

Objects are Reps (quiverrep.Rep), representations of a quiver with
relations; both backends, GradedRep and QuiverRep, subclass it.  The
engine reads them through ordered slots with dimensions, named edges
with matrices, and linear relations (paths with optional identity terms).
Morphisms are per-slot matrices intertwining the edge matrices; on the
graded backend these are exactly the degree-0 maps.  glue sets parts on
the block diagonal and corrections off it; unglue, its inverse, reads an
object back in per-slot bases, the subobject first, so the blocks below
the diagonal vanish.  Subobjects, quotients, cocycles and itext's
deformation blocks read through it; _split builds every basis adapted to
a chain of subspaces, with its inverse, by one elimination per distinct
slot (its dimension and the subspaces' columns there).

Hom and Ext^1 of a pair (x, y) are read off one standard complex (Ringel,
Representations of K-species and bimodules, 1976):

    ⊕_s Hom(x_s, y_s) --δ⁰--> ⊕_e Hom(x_u, y_v) --δ¹--> ⊕_rel Hom(x_u, y_v)

δ⁰(h) = (h_v X_e − Y_e h_u)_e over the edges e: u -> v, and δ¹ linearizes
the relations at the split extension, whose correction c = (c_e) gives the
edge matrices [[Y_e, c_e], [0, X_e]].  Hom(x, y) = ker δ⁰, the coboundaries
B = im δ⁰ come from conjugating by [[1, h], [0, 1]], the cocycles are
Z = ker δ¹, and Ext^1(x, y) = Z / B.  _differential and _relation_rows
build the two maps as {column: Scalar} rows of their nonzeros, reading
each edge matrix through its kept nonzero views, over the slots, edges
and relations they are given.  Ranks and solves read the complex of the
source's core window, which the source states once with the transport
that carries a map outward from it (Rep.core_window): hom_basis solves
δ⁰ there and carries every map outward, find_isomorphism one, and the
End certificate and the isomorphism decider (_isomorphic) none; since B
lies in Z, dim Ext^1 and dim Hom are two ranks (rank_rows) of the core's
δ¹ and δ⁰; and a cocycle, restricted to the core edges, has zero class
iff rank [δ⁰ | c] = rank δ⁰ there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .linalg import (
    Matrix,
    ONE,
    ZERO,
    _matrix,
    column_space_basis,
    extend_basis,
    inverse,
    kernel_basis,
    rank,
    rank_rows,
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
        """Whether every slot matrix has full column rank; each distinct matrix is ranked once."""
        return all(rank(m) == m.cols for m in dict.fromkeys(self.mats.values()))

    def is_surjective(self) -> bool:
        """Whether every slot matrix has full row rank; each distinct matrix is ranked once."""
        return all(rank(m) == m.rows for m in dict.fromkeys(self.mats.values()))

    def __repr__(self):
        return "Morphism(%r -> %r)" % (self.src, self.dst)


def identity_morphism(x) -> Morphism:
    return Morphism(x, x, {s: Matrix.identity(x.slot_dim(s)) for s in x.slot_ids()}, check=False)


def zero_morphism(x, y) -> Morphism:
    return Morphism(x, y, {}, check=False)


def change_basis(x, us):
    """Conjugate all edge matrices by invertible per-slot matrices us: X_e becomes us_v X_e us_u⁻¹."""
    inv = {s: inverse(us[s]) for s in x.slot_ids()}
    if any(v is None for v in inv.values()):
        raise ValueError("basis change must be invertible")
    block = unglue(x, {s: (inv[s], us[s]) for s in inv}, {s: (x.slot_dim(s),) for s in inv})
    return x.with_matrices({s: x.slot_dim(s) for s in x.slot_ids()}, {e: block(e, 0, 0) for e in x.edge_ids()})


# -- the standard complex of a pair ---------------------------------------------


def _slot_layout(x, y, ids):
    """Index of each unknown (slot, i, j) of a per-slot map x -> y over the slots ids: the columns of δ⁰."""
    index = {}
    for s in ids:
        for i in range(y.slot_dim(s)):
            for j in range(x.slot_dim(s)):
                index[(s, i, j)] = len(index)
    return index


def _edge_layout(x, y, edges):
    """Index of each entry (e, i, j) of the edge blocks Hom(x_u, y_v) over the edges: the rows of δ⁰."""
    index = {}
    for e in edges:
        u, v = x.edge_ends(e)
        for i in range(y.slot_dim(v)):
            for j in range(x.slot_dim(u)):
                index[(e, i, j)] = len(index)
    return index


def _differential(x, y, slots, edges):
    """δ⁰ on the given edges: h -> (h_v X_e - Y_e h_u)_e as {slot column: Scalar} rows of its nonzeros.

    One row per entry (i, j) of each edge block, in edge order (the
    _edge_layout order when edges are all of x's); column (s, i, j) is the
    coboundary of the unit map at (s, i, j).
    """
    rows = []
    for e in edges:
        u, v = x.edge_ends(e)
        xcols = x.edge_matrix(e).nonzero_columns()
        yrows = y.edge_matrix(e).nonzero_rows()
        for i in range(y.slot_dim(v)):
            for j in range(x.slot_dim(u)):
                row = {slots[(v, i, k)]: c for k, c in xcols[j]}
                for k, c in yrows[i]:
                    col = slots[(u, k, j)]
                    a = row.pop(col, None)
                    a = -c if a is None else a - c
                    if a:
                        row[col] = a
                rows.append(row)
    return rows


def _relation_rows(x, y, edges, relations):
    """δ¹ on the given relations as its nonzero {edge column: Scalar} rows, one per entry (i, j) of each u -> v.

    edges is an _edge_layout index covering every arrow on the relations'
    paths.  A path p = e_1 ... e_n of the relation changes, to first order in the
    corrections, by the sum over positions of Y_{e_n} ... c_{e_pos} ... X_{e_1},
    so entry (i, j) gets coef * suf[i, r] * pre[c, j] at the unknown (e_pos, r, c).
    The prefix and suffix products are built once per term, None standing
    for an identity, and only their nonzero entries are visited.
    """
    out = []
    for (u, v, terms) in relations:
        dxu = x.slot_dim(u)
        dyv = y.slot_dim(v)
        if not dxu or not dyv:
            continue
        rows = [{} for _ in range(dyv * dxu)]
        unit = [((k, ONE),) for k in range(max(dxu, dyv))]
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
                pre_cols = unit[:dxu] if pre is None else pre.nonzero_columns()
                suf_rows = unit[:dyv] if suf is None else suf.nonzero_rows()
                for i, entries in enumerate(suf_rows):
                    for r, sc in entries:
                        f = coef * sc
                        for j, col in enumerate(pre_cols):
                            row = rows[i * dxu + j]
                            for c, pc in col:
                                k = edges[(edge, r, c)]
                                a = row.pop(k, None)
                                a = f * pc if a is None else a + f * pc
                                if a:
                                    row[k] = a
        out.extend(row for row in rows if row)
    return out


def _dense(rows, ncols):
    """The Matrix of {column: Scalar} rows."""
    data = [[ZERO] * ncols for _ in rows]
    for dense, row in zip(data, rows):
        for j, a in row.items():
            dense[j] = a
    return Matrix(len(rows), ncols, data)


# -- Hom ---------------------------------------------------------------------


def _slot_matrices(x, y, ids, vec):
    """{slot: matrix} of the per-slot map x -> y over the slots ids whose entries, row by row, are vec."""
    mats, k = {}, 0
    for s in ids:
        dy, dx = y.slot_dim(s), x.slot_dim(s)
        mats[s] = Matrix(dy, dx, [vec[k + i * dx : k + (i + 1) * dx] for i in range(dy)])
        k += dy * dx
    return mats


def hom_basis(x, y):
    """Basis of the space of structure-preserving maps x -> y: ker δ⁰ in kernel_basis's canonical form.

    When the source's core window (Rep.core_window: the slots a..b, the
    arrows with both ends among them, and the transport, the arrows
    e: u -> v that carry a map outward from them, each with X_e
    invertible) has a transport, Hom is solved on the core and carried
    outward.  On a GradedRep the carrying arrows are ("t", w) for
    b <= w < wmax and ("p", w) for wmin < w <= a; only x's arrows matter.
    With nothing to carry the core is the whole quiver (a plain Rep, a
    one-weight window, or a = wmin and b = wmax), and the full system is
    the core's.

    Statement.  Restriction to the core is injective on Hom(x, y): the
    constraint h_v X_e = Y_e h_u forces h_v = Y_e h_u X_e⁻¹, so a map is
    fixed, arrow by arrow outward, by its core part.  So each map of a
    basis of Hom(x|core, y|core) is carried outward by that formula and
    checked on the edges not used to carry it (p right of the core, t left
    of it).  If every map passes, the maps lie in Hom(x, y), are
    independent (their core parts are), and span it: a map of Hom(x, y) is
    the transport of its core part, a combination of the basis.  If one
    fails, the full system is solved instead.  No relation is assumed and
    y's arrows need not be invertible: the check decides.

    Why the check passes when x and y satisfy p t - t p = 1 inside the
    window.  On the right, suppose the constraints hold at t(w-1), t(w) and
    p(w) for some b <= w < wmax, as they do at w = b.  The relation of x at
    w, the constraints at t(w-1) and p(w), the relation of y at w and the
    constraint at t(w) give
        h_w X_p(w+1) X_t(w) = h_w + Y_t(w-1) h_{w-1} X_p(w)
                            = (1 + Y_t(w-1) Y_p(w)) h_w = Y_p(w+1) h_{w+1} X_t(w),
    and X_t(w) is invertible, so the constraint holds at p(w+1), and by
    induction at every p right of the core.  The left side is the mirror
    image, cancelling X_p(w) for wmin < w <= a.

    The carried maps are put in kernel_basis's form by _kernel_form, so
    both paths return the same basis.
    """
    _check_pair(x, y)
    window = x.core_window()
    maps = _hom_by_transport(x, y, window) if window[4] else None
    if maps is None:
        maps = _core_maps(x, y, x.slot_ids(), x.edge_ids())
    return [Morphism(x, y, h, check=False) for h in maps]


def _core_maps(x, y, ids, edges):
    """The {slot: matrix} maps x -> y over the slots ids of kernel_basis's basis of δ⁰ on the edges."""
    slots = _slot_layout(x, y, ids)
    rows = [row for row in _differential(x, y, slots, edges) if row]
    return [_slot_matrices(x, y, ids, vec) for vec in kernel_basis(_dense(rows, len(slots)))]


def _hom_by_transport(x, y, window):
    """hom_basis's maps by the core solve, transport and check of x's core window, or None when a check fails."""
    ids, maps = x.slot_ids(), _core_maps(x, y, window[0], window[1])
    if not _carry(x, y, maps, window):
        return None
    vecs = [[a for s in ids for i in range(h[s].rows) for a in h[s].row(i)] for h in maps]
    return [_slot_matrices(x, y, ids, vec) for vec in _kernel_form(vecs)]


def _carry(x, y, maps, window):
    """Carry each core map outward along the window's transport, in place; whether every one passes the checks.

    A map is carried by h_v = Y_e h_u X_e⁻¹, and the transport arrows X_e
    are inverted here, once for all the maps: the window itself keeps no
    inverses (GradedRep.core_window).  The maps are checked in order, and
    the first that fails a check answers False.
    """
    if not maps:
        return True
    _, _, _, checks, transport = window
    steps = [(x.edge_ends(e), y.edge_matrix(e), inverse(x.edge_matrix(e))) for e in transport]
    for h in maps:
        for (u, v), ye, inv in steps:
            h[v] = ye * h[u] * inv
        if not all(h[v] * x.edge_matrix(e) == y.edge_matrix(e) * h[u] for e in checks for u, v in [x.edge_ends(e)]):
            return False
    return True


def _kernel_form(vecs):
    """The basis kernel_basis returns for the span of the independent vectors.

    kernel_basis gives each free column f the vector with 1 at f, 0 at the
    other free columns and pivot entries left of f only.  Read with its
    coordinates reversed, that basis is the rref of the span, in reverse
    order; rref bases are unique, so one rref of the reversed vectors
    gives it.
    """
    if not vecs:
        return []
    n = len(vecs[0])
    return [v[::-1] for v in reversed(column_space_basis([v[::-1] for v in vecs], n))]


def _same_shape(x, y):
    """Whether x and y have equal slot dimensions and equal core windows, as any two isomorphic objects do.

    An isomorphism h: x -> y conjugates every arrow, Y_e = h_v X_e h_u⁻¹,
    so it keeps the slot dimensions and which arrows are square and
    invertible, the one thing the core window is read from
    (GradedRep._find_core).  This needs no relation.
    """
    slots = x.slot_ids()
    return all(x.slot_dim(s) == y.slot_dim(s) for s in slots) and x.core_window()[0] == y.core_window()[0]


def find_isomorphism(x, y):
    """An isomorphism x -> y decided on x's core window, or None; hom_basis's map when dim Hom = 1.

    Unequal slot dimensions or core windows answer None at once
    (_same_shape).  If x and y satisfy their relations, Hom(x, y) restricts
    bijectively to the core solution (hom_basis), and if x ≅ y with one
    indecomposable, a basis map is invertible (are_isomorphic), so are y's
    transport arrows, as h_v = Y_e h_u X_e⁻¹, and the first core map
    invertible on the core carries to an isomorphism.  A checked invertible
    map is one even where a relation breaks, so only a negative answer
    guards the relations, and hom_basis then decides.  _isomorphic answers
    whether x ≅ y without carrying the map.

    An object's isomorphism to itself.  When x == y and the core solve
    gives exactly one map, the answer is identity_morphism(x), with no
    carry.  Proof: the transport arrows are invertible, so restriction to
    the core is injective on Hom(x, x) with no relation assumed (the
    hom_basis statement), and the identity restricts to the identity of
    the core, which is nonzero since the core solve has a variable.  The
    core solution space holds that restriction and is one-dimensional, so
    it is k times the core identity, and kernel_basis's map, with 1 at its
    first free column, is the core identity itself.  It is invertible, the
    carry h_v = X_e h_u X_e⁻¹ keeps it the identity and passes every
    check, and _kernel_form rescales the carried identity's last nonzero
    entry, already 1, to 1: the identity, which is what the general path
    returns.  With more than one core map the first invertible one need
    not be the identity, so the shortcut waits for exactly one.
    """
    _check_pair(x, y)
    if not _same_shape(x, y):
        return None
    slots = x.slot_ids()
    inner, edges, _, _, transport = window = x.core_window()
    maps = _core_maps(x, y, inner, edges)
    if len(maps) == 1 and x == y:
        return identity_morphism(x)
    for h in maps:
        if all(rank(h[s]) == x.slot_dim(s) for s in inner):
            if not transport:
                return Morphism(x, y, h, check=False)
            if _carry(x, y, [h], window) and all(rank(h[s]) == x.slot_dim(s) for s in slots if s not in inner):
                vec = [a for s in slots for i in range(h[s].rows) for a in h[s].row(i)]
                return Morphism(x, y, _slot_matrices(x, y, slots, *_kernel_form([vec])), check=False)
            break
    if transport and x.violations() and y.violations():
        return next((h for h in hom_basis(x, y) if all(rank(h.mats[s]) == x.slot_dim(s) for s in slots)), None)
    return None


def _isomorphic(x, y) -> bool:
    """Whether x ≅ y, for an indecomposable x: find_isomorphism(x, y) is not None, decided on the core.

    a. Unequal slot dimensions or core windows answer False with no Hom
       solve: an isomorphism keeps both (_same_shape).
    b. If x has no transport, or x and y both satisfy their relations, the
       answer is whether some map of the core basis (_core_maps on x's
       core) is invertible at every core slot.  Restriction to the core is
       a bijection from Hom(x, y) onto the core solution (hom_basis, "Why
       the check passes").  The windows are equal, so each Y_e of x's
       transport is one of y's transport arrows, which are invertible, and
       the carried map h_v = Y_e h_u X_e⁻¹ of a map invertible on the core
       is invertible at every outer slot: an isomorphism.  Conversely the
       carried maps of the core basis form a basis of Hom(x, y), and End(x)
       is local, so if x ≅ y one of them is invertible (Fitting's lemma,
       are_isomorphic), on the core slots too.  With no transport the core
       is the whole quiver, and the core basis is a basis of Hom(x, y).
    c. Otherwise a core map may not extend, and find_isomorphism decides.
    The relation answers are the ones the objects keep (Rep.violations),
    so where a caller has already checked both, b reads them for free.
    An equal pair answers True before any solve: an indecomposable x is
    nonzero, and identity_morphism(x) is an isomorphism x -> x whatever
    the relations.
    """
    _check_pair(x, y)
    if x == y:
        return True
    if not _same_shape(x, y):
        return False
    inner, edges, _, _, transport = x.core_window()
    if transport and (x.violations() or y.violations()):
        return find_isomorphism(x, y) is not None
    return any(all(rank(h[s]) == x.slot_dim(s) for s in inner) for h in _core_maps(x, y, inner, edges))


# -- direct sums, subobjects, quotients --------------------------------------


@dataclass(frozen=True)
class DirectSum:
    obj: object
    inj1: Morphism
    inj2: Morphism
    proj1: Morphism
    proj2: Morphism


def glue(parts, correction):
    """The object with the parts along the diagonal and corrections off it.

    Edge e's matrix has part i's edge matrix in diagonal block i, and in
    block (i, j), i != j, the map correction(i, j, e) from part j's
    coordinates into part i's rows, None being a zero block.  The parts
    must share one space; the relations are the backend's or the caller's
    to check.

    Each part's slot dimensions are read once.  An edge's rows are written
    part by part in one pass: block row i starts as part i's height of
    empty rows, and each of its blocks, checked against its cell (part
    i's height at v, part j's width at u) as Matrix.block checks it, is
    appended to every row, a zero block as one shared row of ZEROs.  An
    empty block appends nothing.
    """
    first = parts[0]
    for p in parts[1:]:
        _check_pair(first, p)
    slots = first.slot_ids()
    dims = [{s: p.slot_dim(s) for s in slots} for p in parts]
    mats = {}
    for e in first.edge_ids():
        u, v = first.edge_ends(e)
        widths = [d[u] for d in dims]
        data = []
        for i, p in enumerate(parts):
            h = dims[i][v]
            rows = [()] * h
            for j, w in enumerate(widths):
                b = p.edge_matrix(e) if i == j else correction(i, j, e)
                if b is not None and (b.rows != h or b.cols != w):
                    raise ValueError("block is %dx%d, its grid cell %dx%d" % (b.rows, b.cols, h, w))
                if h and w:
                    if b is None:
                        z = (ZERO,) * w
                        rows = [r + z for r in rows]
                    else:
                        rows = [r + b.row(k) for k, r in enumerate(rows)]
            data += rows
        mats[e] = _matrix(len(data), sum(widths), tuple(data))
    return first.with_matrices({s: sum(d[s] for d in dims) for s in slots}, mats)


def unglue(x, bases, sizes):
    """The blocks of x in per-slot bases, the inverse of glue.

    bases[s] = (u, u⁻¹) and sizes[s] the widths of u's column blocks, the
    subobject first.  Returns block(e, i, j), the block (i, j) of
    u_v⁻¹ X_e u_u as glue lays it out: that product is formed once per
    edge, when the edge is first read, and every block of the edge is
    sliced from it.  Each leading run of blocks must span a subobject:
    the blocks below the diagonal are all read here, in place, block row
    i >= 1 as its rows of the product over the columns of the blocks
    before column i, and a nonzero one is a ValueError.
    """
    cuts = {s: list(accumulate(w, initial=0)) for s, w in sizes.items()}
    moved = {}

    def product(e, u, v):
        if e not in moved:
            moved[e] = bases[v][1] * (x.edge_matrix(e) * bases[u][0])
        return moved[e]

    def block(e, i, j):
        u, v = x.edge_ends(e)
        return product(e, u, v).submatrix(cuts[v][i], cuts[v][i + 1], cuts[u][j], cuts[u][j + 1])

    for e in x.edge_ids():
        u, v = x.edge_ends(e)
        rows, cols = cuts[v], cuts[u]
        for i in range(1, len(sizes[v])):
            m = product(e, u, v)
            if any(any(m.row(r)[: cols[i]]) for r in range(rows[i], rows[i + 1])):
                raise ValueError("subspaces are not invariant under edge %r" % (e,))
    return block


def part_map(obj, parts, k, inclusion):
    """The inclusion parts[k] -> obj, or else the projection obj -> parts[k], of part k of obj = glue(parts, ...).

    Built unchecked: the inclusion is a morphism when block column k has
    no correction, the projection when block row k has none.  Any
    consecutive run of parts may stand as one part.  The slot matrix is
    the identity columns (or rows) at the part's offset, so it is built
    once per distinct (slot dimension, part dimension, offset).
    """
    part, mats, built = parts[k], {}, {}
    for s in obj.slot_ids():
        key = d, w, lo = obj.slot_dim(s), part.slot_dim(s), sum(p.slot_dim(s) for p in parts[:k])
        if key not in built:
            built[key] = (_matrix(d, w, tuple(tuple(ONE if i == lo + j else ZERO for j in range(w)) for i in range(d)))
                          if inclusion
                          else _matrix(w, d, tuple(tuple(ONE if j == lo + i else ZERO for j in range(d)) for i in range(w))))
        mats[s] = built[key]
    return Morphism(part, obj, mats, check=False) if inclusion else Morphism(obj, part, mats, check=False)


def direct_sum(x, y) -> DirectSum:
    z = glue((x, y), lambda i, j, e: None)
    return DirectSum(z, *(part_map(z, (x, y), k, inclusion) for inclusion in (True, False) for k in (0, 1)))


def _split(x, levels):
    """(unglue's block reader, {slot: (u, u⁻¹)}, {slot: block widths}) of x in a basis adapted to levels.

    levels is a list of {slot: columns} spans, deepest first, each inside
    the next.  One elimination per distinct key, the slot's dimension d
    and the levels' columns there, of [the levels' columns in order | I_d]:
    a column is a pivot exactly when it leaves the span of the columns
    before it, so each level's pivots complete the deeper levels (the
    extend_basis choice) and the identity's pivots complete the last one.
    The deepest level must be independent, that is its columns are the
    first pivots.  The pivot columns u reduce to the identity in order, so
    the I part of the rref is u⁻¹, and the block widths are the pivot
    counts per level, then the identity's.  The key fixes the elimination's
    input, and the rref is unique, so slots with equal keys share (u, u⁻¹)
    and the widths; d is in the key because a slot where every level is
    empty still has its own identity.
    """
    bases, widths, done = {}, {}, {}
    for s in x.slot_ids():
        d, groups = x.slot_dim(s), [tuple(map(tuple, level.get(s, ()))) for level in levels]
        key = d, tuple(groups)
        if key not in done:
            groups.append(Matrix.identity(d).columns())
            cols = [c for g in groups for c in g]
            red, pivots = rref(Matrix.from_columns(cols, d))
            k = len(groups[0])
            if pivots[:k] != list(range(k)):
                raise ValueError("subspace basis at slot %r is dependent" % (s,))
            owner = [i for i, g in enumerate(groups) for _ in g]
            basis = Matrix.from_columns([cols[p] for p in pivots], d), red.submatrix(0, d, len(cols) - d, len(cols))
            done[key] = basis, [sum(owner[p] == i for p in pivots) for i in range(len(groups))]
        bases[s], widths[s] = done[key]
    return unglue(x, bases, widths), bases, widths


def sub_object(x, subspaces):
    """Subobject spanned by per-slot column bases; returns (object, inclusion): the top-left blocks of _split."""
    block, bases, widths = _split(x, [subspaces])
    ks = {s: w[0] for s, w in widths.items()}
    sub = x.with_matrices(ks, {e: block(e, 0, 0) for e in x.edge_ids()})
    return sub, Morphism(sub, x, {s: u.submatrix(0, u.rows, 0, ks[s]) for s, (u, _) in bases.items()}, check=False)


def quotient_object(x, subspaces):
    """Quotient by the span of per-slot columns; returns (object, projection): the bottom-right blocks of _split."""
    block, bases, widths = _split(x, [subspaces])
    quot = x.with_matrices({s: w[1] for s, w in widths.items()}, {e: block(e, 1, 1) for e in x.edge_ids()})
    projs = {s: uinv.submatrix(widths[s][0], uinv.rows, 0, uinv.cols) for s, (_, uinv) in bases.items()}
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


class _lazy:
    """functools.cached_property without its lock: the first read stores the value in the instance __dict__, which later reads find first."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


class ExtSpace:
    """The space of extensions of x by y, with a chosen cocycle basis.

    B = im δ⁰ lies inside Z = ker δ¹, since conjugating the split extension
    keeps every relation, so dim Ext^1 = dim Z - dim B.  By the statement
    below, every rank and solve reads the complex of the core window
    (x.core_window()), built once by the constructor, through R, which
    takes a full-window vector (layout index) to its core-edge entries.
    The dimensions rank its δ⁰ and δ¹; the class callers read its δ⁰ and
    edge layout.  Only _cocycles, the kernel basis of
    δ¹, eliminates on the full window; reps are the cocycles, in order,
    whose R images extend_basis picks over the core's coboundary basis.

    Statement.  Let x and y satisfy their relations (B ⊆ Z needs it; the
    CLI validates every graded file before building anything), and let
    a..b be the slots of x.core_window() on a GradedRep, so X_t(w) is
    invertible for b <= w < wmax and X_p(w) for wmin < w <= a.  The core
    complex has the slots a..b, the edges with both ends among them and
    the relations at the weights strictly inside (a, b).  Then R induces Ext^1(x, y) ≅
    Z_core / B_core, and dim Hom(x, y) is the nullity of the core's δ⁰.
    A plain Rep and a one-weight window state their whole complex.

    Proof.  A correction changes by δ⁰h, c_e -> c_e + h_v X_e - Y_e h_u,
    under conjugation by [[1, h], [0, 1]].
    - Gauge fix.  Every cocycle c is cohomologous to one with c_t(w) = 0
      for b <= w < wmax and c_p(w) = 0 for wmin < w <= a: take h = 0 on
      the core, h_{w+1} = (Y_t(w) h_w - c_t(w)) X_t(w)⁻¹ upward from b and
      h_{w-1} = (Y_p(w) h_w - c_p(w)) X_p(w)⁻¹ downward from a.  Only x's
      outer arrows need to be invertible, and c is unchanged on the core.
    - Outer edges are determined.  The linearized relation at w,
          Y_p(w+1) c_t(w) + c_p(w+1) X_t(w) = Y_t(w-1) c_p(w) + c_t(w-1) X_p(w),
      fixes c_p(w+1) through X_t(w)⁻¹ at each b <= w < wmax of a
      gauge-fixed cocycle, from c_t(w-1) and c_p(w), which are core edges,
      gauged to 0 or already fixed; mirrored, the relation at wmin < w <= a fixes
      c_t(w-1) through X_p(w)⁻¹.  These relations use up one new unknown
      each, and the others are the core's, so restriction to the core is
      a bijection from the gauge-fixed cocycles Z_g onto Z_core.
    - Coboundaries.  δ⁰h is gauge-fixed exactly when h is carried outward
      from its core part by h_{w+1} = Y_t(w) h_w X_t(w)⁻¹ and its mirror,
      and on the core edges δ⁰h reads the core slots only, so restriction
      maps B ∩ Z_g onto B_core.
    Every class meets Z_g, so Ext^1 = Z_g / (B ∩ Z_g) ≅ Z_core / B_core.
    R induces it with no gauge fix: Z_core ⊇ R Z ⊇ R Z_g = Z_core, R B =
    B_core (extend a core h by 0), and if R z = 0 the gauge fix z + δ⁰h,
    h = 0 on the core, restricts to 0, so it is 0 and z lies in B.
    A core map with δ⁰_core h = 0, carried outward, has a gauge-fixed
    coboundary that restricts to 0, so it is 0: the carried map lies in
    Hom(x, y), and restriction is injective on Hom (hom_basis), so
    dim Hom = nslots_core - rank δ⁰_core.  The core does not move when
    the window grows past it, so neither do the two dimensions.
    """

    def __init__(self, x, y):
        _check_pair(x, y)
        self.x = x
        self.y = y
        slot_ids, edge_ids, relations, _, _ = x.core_window()
        slots = _slot_layout(x, y, slot_ids)
        # the core complex: (slot count, edge layout, δ⁰ rows, relations)
        self._complex = len(slots), _edge_layout(x, y, edge_ids), _differential(x, y, slots, edge_ids), relations

    @_lazy
    def _core_dims(self):
        """(dim Ext^1, dim Hom) from the two ranks of the core complex."""
        n, index, d0, relations = self._complex
        rank_d0 = rank_rows(d0, n)
        rank_d1 = rank_rows(_relation_rows(self.x, self.y, index, relations), len(index))
        return len(index) - rank_d1 - rank_d0, n - rank_d0

    @_lazy
    def index(self):
        return _edge_layout(self.x, self.y, self.x.edge_ids())

    @_lazy
    def nvars(self):
        return len(self.index)

    @_lazy
    def _d1(self):
        return _relation_rows(self.x, self.y, self.index, self.x.relations())

    @_lazy
    def _cocycles(self):
        return kernel_basis(_dense(self._d1, self.nvars))

    @_lazy
    def _core_cobounds(self):
        """The canonical basis of B_core, of the columns of the core's δ⁰."""
        n, index, d0, _ = self._complex
        return column_space_basis(_dense(d0, n).columns(), len(index))

    def _restrict(self, vector):
        """R: the vector's entries on the core edges, in the core's edge order."""
        return tuple(vector[self.index[key]] for key in self._complex[1])

    def _check_cocycle(self, vector):
        """Raise unless δ¹ vector = 0 on the whole window: R does not see the relations outside the core."""
        if any(sum((a * vector[k] for k, a in row.items() if vector[k]), ZERO) for row in self._d1):
            raise ValueError("vector is not a cocycle for this extension space")

    @_lazy
    def reps(self):
        """The cocycles, in order, whose R images complete B_core: one per class."""
        # extend_basis reads a column's first len(index) entries, so each cocycle rides behind its image
        rides = [self._restrict(z) + (z,) for z in self._cocycles]
        return [v[-1] for v in extend_basis(self._core_cobounds, rides, len(self._complex[1]))]

    def dim(self) -> int:
        return self._core_dims[0]

    def hom_dim(self) -> int:
        return self._core_dims[1]

    def coboundary_ranks(self, vector):
        """(rank [δ⁰_core | R vector], rank δ⁰_core): a cocycle's class is nonzero iff the first is larger."""
        self._check_cocycle(vector)
        n, _, d0, _ = self._complex
        rows = [{**row, n: a} if a else row for row, a in zip(d0, self._restrict(vector))]
        return rank_rows(rows, n + 1), rank_rows(d0, n)

    def class_coords(self, vector):
        """Coordinates of a cocycle vector in the chosen Ext basis, solved on the core."""
        if not any(vector):
            return tuple([ZERO] * self.dim())
        self._check_cocycle(vector)
        cobounds = self._core_cobounds
        aug = Matrix.from_columns(cobounds + [self._restrict(rep) for rep in self.reps], len(self._complex[1]))
        return tuple(solve(aug, self._restrict(vector))[len(cobounds) :])

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
        index, vector = self.space.index, self.vector
        return _matrix(dy, dx, tuple(tuple(vector[index[(edge, i, j)]] for j in range(dx)) for i in range(dy)))


def ext1_basis(x, y):
    """Basis of the space of extensions of x by y, as ExtClass objects."""
    return ExtSpace(x, y).basis()


def realize_extension(xi: ExtClass):
    """Middle object of the extension with its inclusion and surjection."""
    parts = (xi.space.y, xi.space.x)
    z = glue(parts, lambda i, j, e: xi.correction_matrix(e) if i < j else None)
    return z, part_map(z, parts, 0, inclusion=True), part_map(z, parts, 1, inclusion=False)


def _extension_cocycle(inj: Morphism, surj: Morphism):
    """(ExtSpace(x, y), cocycle vector) of a short exact sequence inj, surj.

    In the splitting basis u = [inj | section] each edge e of z has blocks
    [[A, C], [B, D]]; reads the corrections C through unglue, building no
    cocycle basis or class representatives.  The splitting checks exactness:
    with the composition zero and the dimensions adding, a section exists iff
    surj is onto, and then u is invertible iff inj is one to one.  It checks
    the maps too: unglue raises unless B = 0, then inj is a morphism iff
    A = Y_e, and surj, as surj u = [0 | 1], iff D = X_e.  The composition is
    checked, and (u, u⁻¹) built, once per distinct (inj, surj) pair of slot
    matrices, so a tower, one pair per weight, composes and splits once.  The
    composition is checked at every slot before the dimensions are.
    """
    y, z, x = inj.src, inj.dst, surj.dst
    if surj.src != z:
        raise ValueError("inj and surj do not share the middle object")
    pairs = [(inj.mats[s], surj.mats[s]) for s in z.slot_ids()]
    splits = dict.fromkeys(pairs)
    if not all((b * a).is_zero() for a, b in splits):
        raise ValueError("composition is not zero")
    bases = {}
    for s, pair in zip(z.slot_ids(), pairs):
        if z.slot_dim(s) != x.slot_dim(s) + y.slot_dim(s):
            raise ValueError("dimensions do not add at slot %r" % (s,))
        if splits[pair] is None:
            section = solve_matrix(surj.mats[s], Matrix.identity(x.slot_dim(s)))
            if section is None:
                raise ValueError("surjection is not surjective at slot %r" % (s,))
            u = inj.mats[s].hstack(section)
            uinv = inverse(u)
            if uinv is None:
                raise ValueError("inclusion is not injective at slot %r" % (s,))
            splits[pair] = u, uinv
        bases[s] = splits[pair]
    block = unglue(z, bases, {s: (y.slot_dim(s), x.slot_dim(s)) for s in z.slot_ids()})
    for e in z.edge_ids():
        if block(e, 0, 0) != y.edge_matrix(e) or block(e, 1, 1) != x.edge_matrix(e):
            raise ValueError("matrices do not intertwine edge %r" % (e,))
    space = ExtSpace(x, y)
    return space, space.cocycle_vector({e: block(e, 0, 1) for e in z.edge_ids()})


def extract_class(inj: Morphism, surj: Morphism) -> ExtClass:
    """Extension class of a short exact sequence given by inj and surj.

    The cocycle that _extension_cocycle reads off a splitting, after its
    exactness and morphism checks, with its coordinates in the chosen Ext basis.
    """
    space, vec = _extension_cocycle(inj, surj)
    return ExtClass(space, vec, space.class_coords(vec))


def pullback_extension(xi: ExtClass, mono: Morphism, space=None) -> ExtClass:
    """Restrict an extension of x by y along an injective mono: x' -> x.

    The class lands in space, which must be the pair (x', y); by default
    a new ExtSpace(x', y).  The mono is checked one to one on each distinct
    slot matrix once (Morphism.is_injective): realize_vector's mono, an
    inclusion of realize_extension, has one matrix per distinct slot shape.
    """
    if not mono.is_injective():
        raise ValueError("pullback needs an injective map")
    if mono.dst != xi.space.x:
        raise ValueError("mono does not land in the extension base")
    if space is None:
        space = ExtSpace(mono.src, xi.space.y)
    elif (space.x, space.y) != (mono.src, xi.space.y):
        raise ValueError("target space is not the pair (mono source, extension fiber)")
    x = xi.space.x
    blocks = {e: xi.correction_matrix(e) * mono.mats[x.edge_ends(e)[0]] for e in x.edge_ids()}
    vec = space.cocycle_vector(blocks)
    return ExtClass(space, vec, space.class_coords(vec))


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
    """Peel x one simple subobject at a time: yields (SeriesStep, ((label, dim Hom(simple, stage)), ...)).

    Each stage lists every basis map simple -> stage over the family and
    quotients by the image of the first one.  The counts are the socle's
    multiplicities: it is simple exactly when they sum to 1, and then its
    span is that image.  When the image is the whole stage, the quotient
    is the zero object and the projection the zero map, built without
    quotient_object.
    """
    current = x
    while total_dim(current) > 0:
        maps = _maps_from(family, current)
        found = [(label, phi) for label, homs in maps for phi in homs]
        if not found:
            raise NotFiniteLengthError("nonzero object admits no simple subobject from the family")
        label, phi = found[0]
        spaces = {s: column_space_basis(phi.mats[s].columns(), current.slot_dim(s)) for s in current.slot_ids()}
        if sum(map(len, spaces.values())) == total_dim(current):
            quot = zero_like(current)
            proj = zero_morphism(current, quot)
        else:
            quot, proj = quotient_object(current, spaces)
        yield SeriesStep(label, phi, proj, current), tuple((label, len(homs)) for label, homs in maps)
        current = quot


def composition_series(x, family) -> CompositionSeries:
    """Peel simple subobjects repeatedly; factors come back in
    cofiltration order (the last-peeled top factor first)."""
    steps = tuple(step for step, _ in _peel(x, family))
    return CompositionSeries(tuple(step.label for step in reversed(steps)), steps)


def end_algebra_dims(x):
    """(dim End, dim rad End): the trace form of End(x) on its core slots, solved there and carried nowhere.

    Restriction to the slots of x.core_window() is injective on End(x)
    (hom_basis's statement) and multiplicative, so End(x) acts faithfully
    on V, the sum of x's spaces at those slots.  In characteristic zero the
    kernel N of (f, g) -> tr_V(f∘g) is rad End: rad ⊆ N, since f∘g lies
    in rad and is nilpotent for f in rad; and f in N has tr_V(f^k) = 0 for every k >= 1, so f is
    nilpotent on V, hence in End, and the ideal N is nil.  So dim rad =
    dim End - rank of the Gram matrix, on any basis of the core parts.
    When x satisfies its relations the carried core maps pass hom_basis's
    check ("Why the check passes", y = x), so restriction maps End(x) onto
    ker δ⁰ on the core, and kernel_basis's basis of it is such a basis.
    When x breaks a relation a core map may not extend and the core
    nullity may exceed dim End, so the whole quiver is solved.
    """
    slots, edges, _, _, transport = x.core_window()
    if transport and x.violations():
        slots, edges = x.slot_ids(), x.edge_ids()
    endos = _core_maps(x, x, slots, edges)
    n = len(endos)
    gram = Matrix(n, n, [[sum((trace_product(f[s], g[s]) for s in slots), ZERO) for g in endos] for f in endos])
    return n, n - rank(gram)


def is_indecomposable(x):
    """(verdict, certificate) with certificate = (dim End, dim rad)."""
    if total_dim(x) == 0:
        raise ValueError("zero object")
    dim_end, dim_rad = end_algebra_dims(x)
    return dim_end - dim_rad == 1, (dim_end, dim_rad)


def are_isomorphic(x, y) -> bool:
    """Decide y ≅ x for an indecomposable x by _isomorphic.

    End(x) is local (Fitting's lemma), so if y ≅ x some map of any basis
    of Hom(x, y) is invertible: composing with an isomorphism turns that
    basis into a basis of End(x), and not every member of a basis lies in
    rad End(x).  Conversely an invertible map is an isomorphism.  This
    holds over any field (Auslander–Reiten–Smalø, Representation Theory
    of Artin Algebras, §II).  Only x is certified: y may be any object on
    the same backend.
    """
    _check_pair(x, y)
    ok, _ = is_indecomposable(x)
    if not ok:
        raise ValueError("are_isomorphic requires an indecomposable first argument")
    return _isomorphic(x, y)


def is_uniserial(x, family):
    """(verdict, series) where series lists factor labels top-first.

    Stops at the first stage whose socle over the family is not simple.
    """
    series, _ = _socle_series(x, family)
    return series is not None, series


def _socle_series(x, family):
    """(series, None) from one _peel walk of x, or (None, (depth, stage, Hom counts)) of its first non-simple socle.

    The series lists factor labels top-first; the walk stops at the first
    stage whose socle over the family is not simple.
    """
    series = []
    for depth, (step, counts) in enumerate(_peel(x, family)):
        if sum(n for _, n in counts) != 1:
            return None, (depth, step.stage, counts)
        series.append(step.label)
    return tuple(reversed(series)), None
