"""Windowed graded modules over the first Weyl algebra as matrix data.

A GradedRep is a representation (quiverrep.Rep) of the window quiver:
for every weight in a finite window, a vector space dimension together
with the raising action of t and the lowering action of d.  The
commutation rule holds on interior weights; maps that would leave the
window are simply absent, which is the price of truncation and the
reason downstream computations insist on window margins.  A margin is
enough because a graded module repeats itself outside a finite core of
weights, where t and d act invertibly: there a degree-0 map is carried
from one weight to the next, so Hom, and the verdicts read off it, do not
change when the window grows past the core (GradedRep.core_window).  Nor does
Ext^1: a cocycle can be gauged to zero on the outer arrows that carry maps,
and the relations then fix it on the others, so Ext^1 is read off the
core's complex (the proof is in the abcat.ExtSpace docstring).

Degree-0 morphisms between these objects are handled uniformly by the
category engine (abcat); this module only builds and validates objects.

Conventions: weight(t) = +1, weight(d) = -1; twisting by s shifts all
weights up by s.  The boundary simple of kind D/Dt carries its generator
at weight -1 at twist 0 (support w <= -1), which places both boundary
Ext pairings at equal twist; the other boundary simple D/Dd has its
generator at weight 0 (support w >= 0).
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import Matrix, ONE, Scalar, ZERO, _matrix, format_matrix, parse_int, parse_matrix, rank
from .quiverrep import QuiverPresentation, Rep
from .weyl import WeylElement, theta_product, to_theta_form

GRADEDREP_TAG = "specfile gradedrep v1"


@lru_cache(maxsize=None)
def _window_quiver(wmin: int, wmax: int) -> QuiverPresentation:
    """The window quiver: nodes the weights, arrows ("t", w): w -> w+1 then ("p", w): w -> w-1.

    Its relations are the interior commutation identities p.t - t.p = id,
    in application order.
    """
    arrows = [(("t", w), w, w + 1) for w in range(wmin, wmax)]
    arrows += [(("p", w), w, w - 1) for w in range(wmin + 1, wmax + 1)]
    relations = [
        (w, w, ((ONE, (("t", w), ("p", w + 1))), (-ONE, (("p", w), ("t", w - 1))), (-ONE, ())))
        for w in range(wmin + 1, wmax)
    ]
    return QuiverPresentation(range(wmin, wmax + 1), arrows, relations)


class GradedRep(Rep):
    """Matrix model of a graded module on a finite weight window.

    tmat[w] becomes the matrix of the arrow ("t", w): w -> w+1, and
    pmat[w], the action of d, that of ("p", w): w -> w-1.  The relations
    are not checked on construction; validate reports them.
    """

    __slots__ = ("_window",)

    def __init__(self, window, dims, tmat, pmat):
        wmin, wmax = window
        if wmin > wmax:
            raise ValueError("degenerate window %r" % (window,))
        mats = {("t", w): m for w, m in tmat.items()}
        mats.update((("p", w), m) for w, m in pmat.items())
        super().__init__(_window_quiver(wmin, wmax), dims, mats)

    @property
    def window(self):
        nodes = self.pres.nodes
        return nodes[0], nodes[-1]

    def _matrix_name(self, arrow):
        return "%s matrix at weight %d" % arrow

    def core_window(self):
        """(slots, edges, relations, checks, transport) of the core window a < b of this module, built once.

        Every ("t", w) with b <= w < wmax and every ("p", w) with
        wmin < w <= a is invertible.  A walk from each end of the window
        moves inward while the next arrow is invertible, toward the pair
        (c, c + 1) with c the window weight nearest 0; when one walk stops
        short, the other goes on until it meets it, so [a, b] is the
        narrowest such core, and the pair (c, c + 1) when every arrow is
        invertible.  The window is stated in closed form: the slots a..b,
        the arrows with both ends among them in edge_ids order, ("t", w)
        for a <= w < b then ("p", w) for a < w <= b, the commutation
        relations at a < w < b, the ones whose paths use those arrows only,
        and the checks: ("t", w) for wmin <= w < a then ("p", w) for
        b < w <= wmax.  The transport lists the invertible outer arrows in
        the order that carries a map outward: the t arrows from b up, then
        the p arrows from a down.  A walk decides each arrow by a rank (a
        nonzero test for a 1x1 matrix) and builds no inverse: only a map
        carried outward needs them (abcat._carry), and the window alone
        answers the Hom dimensions, the Ext^1 ranks, End and the
        isomorphism test.  The whole quiver, with nothing to check or
        carry, on a one-weight window.
        """
        if not hasattr(self, "_window"):
            object.__setattr__(self, "_window", self._find_core())
        return self._window

    def _find_core(self):
        wmin, wmax = self.window
        if wmin == wmax:
            return super().core_window()

        def invertible(m):
            if m.rows != m.cols:
                return False
            return bool(m[0, 0]) if m.rows == 1 else rank(m) == m.rows

        def walk(kind, w, stop, step):
            # move w toward stop while the arrow (kind, w + step) into w is invertible
            while w != stop and invertible(self.mats[kind, w + step]):
                w += step
            return w

        c = min(max(0, wmin), wmax - 1)
        b = walk("t", wmax, c + 1, -1)
        a = walk("p", wmin, c, 1)
        if a == c and b > c + 1:
            a = walk("p", a, b - 1, 1)
        elif b == c + 1 and a < c:
            b = walk("t", b, a + 1, -1)
        slots = self.pres.nodes[a - wmin : b - wmin + 1]
        edges = tuple(("t", w) for w in range(a, b)) + tuple(("p", w) for w in range(a + 1, b + 1))
        checks = tuple(("t", w) for w in range(wmin, a)) + tuple(("p", w) for w in range(b + 1, wmax + 1))
        transport = tuple(("t", w) for w in range(b, wmax)) + tuple(("p", w) for w in range(a, wmin, -1))
        return slots, edges, self.pres.relation_list[a - wmin : b - wmin - 1], checks, transport


def validate(m: GradedRep):
    """Check interior commutation identities; returns a list of violations."""
    return ["commutation identity fails at weight %d" % w for (w, _, _), _ in m.violations()]


def ideal_quotient_rep(p: WeylElement, window) -> GradedRep:
    """Windowed representation of the cyclic quotient by the left ideal of p.

    The weight-w piece of A/Ap is theta_w k[E] modulo theta_w q_w(E) k[E],
    the weight-w part of Ap: it is k[E]/(q_w) on the basis of residues of
    theta_w * E^j, with q_w the monic Euler polynomial of theta_(w-d) * p.
    One theta form p = theta_d * g(E) gives every q_w in closed form:
    theta_(w-d) * theta_d * g(E) = theta_w * c_(w-d,d)(E) * g(E), so
    q_w = c_(w-d,d) * monic(g), c the monic run weyl.theta_product.  The
    same rule moves t and d past theta_w: t * theta_w = theta_(w+1) *
    c_(1,w)(E) and d * theta_w = theta_(w-1) * c_(-1,w)(E), so column j of
    the t (d) matrix is c * E^j modulo the neighbouring q, and column j+1
    is E times column j reduced once by that monic q.  A 1x1 action is the
    one scalar of c = c_0 + c_1 E modulo E + q_0, c_0 - c_1 q_0, written
    with no column lists.
    """
    if p.is_zero():
        raise ValueError("zero element generates the unit ideal quotient ambiguously")
    d, g = to_theta_form(p)
    wmin, wmax = window
    if wmin > wmax:
        raise ValueError("degenerate window %r" % (window,))
    g = g.monic()
    qs = {}
    for w in range(wmin, wmax + 1):
        c = theta_product(w - d, d)
        qs[w] = c * g if c.degree() else g
    dims = {w: q.degree() for w, q in qs.items()}

    def action(w_src, w_dst, step) -> Matrix:
        rows, width = dims[w_dst], dims[w_src]
        if not rows:
            return Matrix(0, width, ())
        c = theta_product(step, w_src).coeffs
        q = qs[w_dst].coeffs[:-1]
        if rows == width == 1:
            return _matrix(1, 1, ((c[0] - c[1] * q[0] if len(c) == 2 else c[0],),))
        # c * E^j with a slot for E^rows: c = c_(step,w_src) has degree <= 1 <= rows
        col = list(c)
        col += [ZERO] * (rows + 1 - len(col))
        cols = []
        for _ in range(width):
            # one subtraction of the monic q takes off the E^rows term
            lead = col.pop()
            if lead:
                col = [x - lead * qi for x, qi in zip(col, q)]
            cols.append(col)
            col = [ZERO] + col
        return Matrix.from_columns(cols, rows)

    tm = {w: action(w, w + 1, 1) for w in range(wmin, wmax)}
    pm = {w: action(w, w - 1, -1) for w in range(wmin + 1, wmax + 1)}
    return GradedRep(window, dims, tm, pm)


def in_alpha_range(alpha: Scalar) -> bool:
    """Whether alpha indexes an interior simple: 0 <= Re(alpha) < 1, alpha != 0."""
    return bool(alpha) and 0 <= alpha.re < 1


def twist_rep(m: GradedRep, s: int) -> GradedRep:
    """Shift all weights up by s; the window shifts accordingly."""
    if s == 0:
        return m
    wmin, wmax = m.window
    dims = {w + s: d for w, d in m.dims.items()}
    tm = {w + s: mat for (kind, w), mat in m.mats.items() if kind == "t"}
    pm = {w + s: mat for (kind, w), mat in m.mats.items() if kind == "p"}
    return GradedRep((wmin + s, wmax + s), dims, tm, pm)


def simple_rep(label, twist: int, window) -> GradedRep:
    """Windowed simple module for a label in the alpha range or '0' / 'inf'.

    The result lives on the requested window whatever the twist; the
    boundary label 'inf' carries its built-in generator-weight offset of
    -1 (see module docstring).
    """
    wmin, wmax = window
    if wmin > wmax:
        raise ValueError("degenerate window %r" % (window,))
    if isinstance(label, Scalar):
        if not in_alpha_range(label):
            raise ValueError("label %s outside the simple range 0 <= re < 1, nonzero" % label)
        gen = WeylElement.monomial(1, 1) - WeylElement.monomial(0, 0, label)
        offset = twist
    elif label == "0":
        gen = WeylElement.gen_d()
        offset = twist
    elif label == "inf":
        gen = WeylElement.gen_t()
        offset = twist - 1
    else:
        raise ValueError("unknown simple label %r" % (label,))
    base = ideal_quotient_rep(gen, (wmin - offset, wmax - offset))
    return twist_rep(base, offset)


# -- serialization -----------------------------------------------------------


def to_text(m: GradedRep) -> str:
    wmin, wmax = m.window
    lines = [GRADEDREP_TAG, "window %d %d" % (wmin, wmax)]
    for w in range(wmin, wmax + 1):
        if m.dims[w]:
            lines.append("dim %d %d" % (w, m.dims[w]))
    for (kind, w), mat in m.mats.items():
        if mat.rows and mat.cols:
            lines.append("map %s %d %s" % (kind, w, format_matrix(mat)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> GradedRep:
    """Parse a graded module file.

    '#' comment lines may precede the format tag, as in the header that
    weyl-module's human output writes; after the tag every line is a
    window, dim or map line.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    while lines and lines[0].startswith("#"):
        del lines[0]
    if not lines or lines[0] != GRADEDREP_TAG:
        raise ValueError("missing format tag %r" % GRADEDREP_TAG)
    window = None
    dims = {}
    tm = {}
    pm = {}
    for ln in lines[1:]:
        parts = ln.split()
        key = parts[0]
        if key == "window" and len(parts) == 3:
            if window is not None:
                raise ValueError("duplicate window line %r in graded module file" % ln)
            window = (parse_int(parts[1]), parse_int(parts[2]))
        elif key == "dim" and len(parts) == 3:
            w = parse_int(parts[1])
            if w in dims:
                raise ValueError("duplicate dim line for weight %d in graded module file" % w)
            dims[w] = parse_int(parts[2])
        elif key == "map" and len(parts) in (4, 5):
            kind = parts[1]
            if kind not in ("t", "p"):
                raise ValueError("unknown map kind %r in graded module file" % kind)
            maps = tm if kind == "t" else pm
            w = parse_int(parts[2])
            if w in maps:
                raise ValueError("duplicate map %s line for weight %d in graded module file" % (kind, w))
            maps[w] = parse_matrix(" ".join(parts[3:]))
        else:
            raise ValueError("unknown line %r in graded module file" % ln)
    if window is None:
        raise ValueError("graded module file has no window line")
    wmin, wmax = window
    # GradedRep keeps only these weights: t raises w -> w+1, p lowers w -> w-1
    ranges = (("dim", dims, wmin, wmax), ("map t", tm, wmin, wmax - 1), ("map p", pm, wmin + 1, wmax))
    for what, weights, lo, hi in ranges:
        for w in weights:
            if not lo <= w <= hi:
                raise ValueError("%s at weight %d lies outside the window %d %d" % (what, w, wmin, wmax))
    return GradedRep(window, dims, tm, pm)
