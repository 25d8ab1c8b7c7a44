"""Iterated extensions: cofiltrations, splicing, extension types, and the
correspondence with path-algebra deformations.

An iterated extension is an object together with a cofiltration whose
successive kernels are simples from a fixed family.  The dual filtration,
class extraction (the per-level extension classes and their restrictions
to the previous kernel), the ordered extension-type quiver, its path
algebra, and the translation to and from deformation data over that path
algebra all live here.  As the paper states, the deformation data of the
factors determine the extension, so a flag's cofiltration is glued back
from the flag's deformation data.

Node order on extension types follows first occurrence in the order
vector, so the base node of the deformation data is always the first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from . import abcat
from .abcat import Morphism, total_dim
from .linalg import Matrix, column_space_basis, inverse, kernel_basis, rank


class IteratedExtension:
    """An object with a cofiltration by simple kernels from a family.

    cs[i] is the i+1st stage (cs[-1] is the full object); fs[i] maps
    cs[i] onto the previous stage (fs[0] lands in the zero object); and
    kernel_monos[i] embeds the standard family simple for order_vector[i]
    as the kernel of fs[i].
    """

    def __init__(self, family, order_vector, cs, fs, kernel_monos):
        self.family = tuple(family)
        self.order_vector = tuple(order_vector)
        self.cs = tuple(cs)
        self.fs = tuple(fs)
        self.kernel_monos = tuple(kernel_monos)
        n = len(self.order_vector)
        if not (len(self.cs) == len(self.fs) == len(self.kernel_monos) == n):
            raise ValueError("level counts disagree")

    @property
    def length(self):
        return len(self.order_vector)

    @property
    def x(self):
        return self.cs[-1]


def is_morphism_of_iterated_extensions(e1: IteratedExtension, e2: IteratedExtension, phis) -> bool:
    """Check the levelwise commuting squares phi_{i-1} f_i = f'_i phi_i.

    phis maps level i (0-based, up to max length) to a Morphism
    cs1[i] -> cs2[i]; stages beyond an extension's length repeat its
    object, as in the definition of the category of iterated extensions.
    """
    n = max(e1.length, e2.length)

    def stage(e, i):
        return e.cs[min(i, e.length - 1)]

    def surj(e, i):
        if i < e.length:
            return e.fs[i]
        return abcat.identity_morphism(e.x)

    for i in range(n):
        phi = phis[i]
        if phi.src != stage(e1, i) or phi.dst != stage(e2, i):
            return False
        if i:
            lhs = phis[i - 1] * surj(e1, i)
            rhs = surj(e2, i) * phi
            if lhs != rhs:
                return False
    return True


def canonical_iterated_extension(x, family) -> IteratedExtension:
    """Cofiltration produced by repeatedly peeling a simple subobject."""
    series = abcat.composition_series(x, family)
    steps = series.steps
    n = len(steps)
    cs = []
    fs = []
    monos = []
    for i in range(n):
        # stage i+1 of the cofiltration is what the (n-1-i)-th peel saw
        step = steps[n - 1 - i]
        cs.append(step.stage)
        monos.append(step.mono)
        fs.append(step.proj)
    order = tuple(step.label for step in reversed(steps))
    return IteratedExtension(family, order, cs, fs, monos)


@dataclass(frozen=True)
class Filtration:
    """Descending chain of invariant subspaces with simple quotients."""

    x: object
    family: tuple
    order_vector: tuple
    spaces: tuple  # per level i: dict slot -> tuple of basis columns; spaces[0] is the whole


def filtration_of(e: IteratedExtension) -> Filtration:
    """Dual filtration: level i is the kernel of the composite onto stage i, and level n is zero.

    A graded object repeats its slot matrices from weight to weight, so
    one kernel_basis is taken per distinct composite slot matrix, and
    slots with equal matrices share its basis.
    """
    x = e.x
    composites = list(accumulate(reversed(e.fs), lambda c, f: f * c))  # onto stages n-1, ..., 0
    kernels = {m: kernel_basis(m) for m in dict.fromkeys(c.mats[s] for c in composites for s in x.slot_ids())}
    levels = [{s: kernels[c.mats[s]] for s in x.slot_ids()} for c in composites]
    return Filtration(x, e.family, e.order_vector, tuple(levels[::-1]) + ({s: [] for s in x.slot_ids()},))


def cofiltration_from_filtration(filt: Filtration) -> IteratedExtension:
    """The cofiltration of a flag: its deformation data, glued by from_deformation.

    The top stage is filt.x itself, reached through the reader's conjugation.
    Each level must be independent and contain the next; F_0 must be all of x.
    """
    x = filt.x
    for i in range(len(filt.order_vector)):
        for s in x.slot_ids():
            dim, level, outer = x.slot_dim(s), filt.spaces[i][s], filt.spaces[i - 1][s]
            if rank(Matrix.from_columns(level, dim)) < len(level):
                raise ValueError("subspace basis at slot %r is dependent" % (s,))
            if i and rank(Matrix.from_columns([*outer, *level], dim)) > len(outer):
                raise ValueError("filtration levels are not nested at slot %r" % (s,))
    d, conj = _deformation_with_conjugation(filt)
    back = from_deformation(d)
    onto = Morphism(x, back.x, conj)
    into = Morphism(back.x, x, {s: inverse(m) for s, m in conj.items()}, check=False)  # onto's inverse
    return IteratedExtension(filt.family, filt.order_vector, back.cs[:-1] + (x,), back.fs[:-1] + (back.fs[-1] * onto,),
                             back.kernel_monos[:-1] + (into * back.kernel_monos[-1],))


def splice(e_sub: IteratedExtension, e_quot: IteratedExtension, f: Morphism, g: Morphism) -> IteratedExtension:
    """Glue iterated extensions along a short exact sequence.

    f embeds e_sub's object into the middle object, g maps it onto
    e_quot's object; the result carries e_quot's factors first, then
    e_sub's, on the preimage/image filtration.
    """
    if f.src != e_sub.x or g.dst != e_quot.x or f.dst != g.src:
        raise ValueError("maps do not connect the given extensions")
    if not f.is_injective() or not g.is_surjective() or not (g * f).is_zero():
        raise ValueError("maps do not form a short exact sequence")
    x = f.dst
    if total_dim(x) != total_dim(e_sub.x) + total_dim(e_quot.x):
        raise ValueError("middle object has wrong dimension")
    sub_filt = filtration_of(e_sub)
    quot_filt = filtration_of(e_quot)
    n2 = e_quot.length
    spaces = []
    for i in range(n2 + 1):
        level = {}
        for s in x.slot_ids():
            target = quot_filt.spaces[i][s]
            b = Matrix.from_columns(target, e_quot.x.slot_dim(s))
            gm = g.mats[s]
            stacked = b.hstack(-gm)
            pre = []
            for v in kernel_basis(stacked):
                pre.append(tuple(v[b.cols:]))
            level[s] = column_space_basis(pre, x.slot_dim(s))
        spaces.append(level)
    for i in range(1, e_sub.length + 1):
        level = {}
        for s in x.slot_ids():
            cols = Matrix.from_columns(sub_filt.spaces[i][s], e_sub.x.slot_dim(s))
            pushed = (f.mats[s] * cols).columns()
            level[s] = column_space_basis(pushed, x.slot_dim(s))
        spaces.append(level)
    order = tuple(e_quot.order_vector) + tuple(e_sub.order_vector)
    family = _merge_families(e_quot.family, e_sub.family)
    return cofiltration_from_filtration(Filtration(x, family, order, tuple(spaces)))


def _merge_families(fam1, fam2):
    out = list(fam1)
    seen = {lbl for lbl, _ in out}
    for lbl, obj in fam2:
        if lbl not in seen:
            out.append((lbl, obj))
            seen.add(lbl)
    return tuple(out)


def extension_classes(e: IteratedExtension):
    """Per-level classes (xi_2..xi_n) and their restrictions (tau_2..tau_n)."""
    xis = []
    taus = []
    for i in range(1, e.length):
        xi = abcat.extract_class(e.kernel_monos[i], e.fs[i])
        tau = abcat.pullback_extension(xi, e.kernel_monos[i - 1])
        xis.append(xi)
        taus.append(tau)
    return tuple(xis), tuple(taus)


# -- extension types and path algebras ---------------------------------------


@dataclass(frozen=True)
class ExtensionType:
    """Ordered quiver of an order vector: one edge per consecutive pair."""

    order_vector: tuple
    nodes: tuple  # distinct labels by first occurrence
    edges: tuple  # (position i, source label, target label) for i = 2..n


def extension_type(e) -> ExtensionType:
    """Extension type of an iterated extension or a bare order vector."""
    order = e.order_vector if isinstance(e, IteratedExtension) else tuple(e)
    nodes = []
    for lbl in order:
        if lbl not in nodes:
            nodes.append(lbl)
    edges = tuple((i, order[i - 2], order[i - 1]) for i in range(2, len(order) + 1))
    return ExtensionType(order, tuple(nodes), edges)


class PathAlgebra:
    """Basis and structure constants of the ordered path algebra.

    Basis ids are ("e", node_label) for the idempotents and
    ("run", i, j) for the consecutive edge run covering positions i..j
    (2 <= i <= j <= n); products are juxtaposition when consecutive and
    zero otherwise.
    """

    def __init__(self, gamma: ExtensionType):
        self.gamma = gamma
        n = len(gamma.order_vector)
        self.basis = [("e", lbl) for lbl in gamma.nodes]
        self.basis += [("run", i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
        self.index = {b: k for k, b in enumerate(self.basis)}

    def dim(self):
        return len(self.basis)

    def source(self, b):
        if b[0] == "e":
            return b[1]
        return self.gamma.order_vector[b[1] - 2]

    def target(self, b):
        if b[0] == "e":
            return b[1]
        return self.gamma.order_vector[b[2] - 1]

    def product(self, b1, b2):
        """Basis product; returns a basis id or None for zero."""
        if b1[0] == "e":
            if b2[0] == "e":
                return b2 if b1 == b2 else None
            return b2 if self.source(b2) == b1[1] else None
        if b2[0] == "e":
            return b1 if self.target(b1) == b2[1] else None
        _, i, j = b1
        _, i2, j2 = b2
        return ("run", i, j2) if i2 == j + 1 else None

    def radical_power_zero(self, n) -> bool:
        """Whether products of n runs all vanish."""
        runs = [b for b in self.basis if b[0] == "run"]
        frontier = {r: r for r in runs}
        for _ in range(n - 1):
            new = {}
            for prod in frontier.values():
                for r in runs:
                    nxt = self.product(prod, r)
                    if nxt is not None:
                        new[(prod, r)] = nxt
            frontier = new
            if not frontier:
                return True
        return not frontier


def path_algebra(gamma: ExtensionType) -> PathAlgebra:
    return PathAlgebra(gamma)


# -- deformation data ----------------------------------------------------------


@dataclass(frozen=True)
class DeformationModule:
    """Matrix data of a deformation of the factor simples over k[Gamma].

    psi[(i, j)][edge] corrects the edge action from the position-i factor
    into the position-j factor (1 <= i < j <= n); factor_objects maps
    each node label to its standard simple.  The constructor indexes psi
    by (i, j, edge) once, so psi_matrix is one lookup; the index is no
    field, so equality and hash read the three fields only.
    """

    gamma: ExtensionType
    factor_objects: tuple  # ((node label, simple object), ...)
    psi: tuple  # (((i, j), ((edge, Matrix), ...)), ...)

    def __post_init__(self):
        # the first (i, j) block and, in it, the first entry of an edge win, as a scan in order finds them
        index, pairs = {}, set()
        for (i, j), entries in self.psi:
            if (i, j) not in pairs:
                pairs.add((i, j))
                for e, m in entries:
                    index.setdefault((i, j, e), m)
        object.__setattr__(self, "_psi_index", index)

    def factor(self, label):
        for lbl, obj in self.factor_objects:
            if lbl == label:
                return obj
        raise KeyError(label)

    def psi_matrix(self, i, j, edge):
        """psi[(i, j)][edge], or None where psi has no such entry."""
        return self._psi_index.get((i, j, edge))


def to_deformation(e: IteratedExtension) -> DeformationModule:
    """The deformation data of a cofiltration, read off its dual filtration."""
    return _deformation_with_conjugation(filtration_of(e))[0]


def _deformation_with_conjugation(filt: Filtration):
    """(deformation data, {slot: conj}) read off the flag filt.spaces.

    The flag is x = F_0 ⊇ F_1 ⊇ ... ⊇ F_n = 0, with F_i / F_{i+1} the
    simple labelled order_vector[i].  abcat._split puts x in the basis
    U = [V_n | ... | V_1], V_i completing F_i to F_{i-1}, so that the
    subobject F_{n-1} comes first and each diagonal block of x is a factor.
    find_isomorphism carries each factor onto its labelled simple, and the
    blocks off the diagonal, conjugated by those factor isomorphisms, are
    the corrections psi; a zero block gives the zero matrix of the psi
    entry's shape, with no product taken.  conj[s] is the block diagonal of
    the factor isomorphisms, in order-vector order, times U⁻¹: the per-slot
    change of basis from x onto the object from_deformation glues.
    """
    x = filt.x
    n = len(filt.order_vector)
    gamma = extension_type(filt.order_vector)
    spaces = filt.spaces
    for s in x.slot_ids():
        # F_0 spans the slot, and F_0's kernel_basis is then the identity that _split appends
        if len(spaces[0][s]) != x.slot_dim(s):
            raise ValueError("filtration levels do not assemble to a basis at slot %r" % (s,))
    read, bases, sizes = abcat._split(x, spaces[n - 1 : 0 : -1])
    fam = dict(filt.family)

    def block(edge, i, j):
        """The map from factor j into factor i along the edge; factor i is block n - 1 - i."""
        return read(edge, n - 1 - i, n - 1 - j)

    # diagonal blocks as standalone objects, then isos onto the standard simples
    isos = []
    for i in range(n):
        dims = {s: sizes[s][n - 1 - i] for s in x.slot_ids()}
        block_obj = x.with_matrices(dims, {edge: block(edge, i, i) for edge in x.edge_ids()})
        iso = abcat.find_isomorphism(block_obj, fam[filt.order_vector[i]])
        if iso is None:
            raise ValueError("factor %d is not isomorphic to its labelled simple" % (i + 1,))
        isos.append((iso.mats, {s: inverse(m) for s, m in iso.mats.items()}))
    psi = []
    for i in range(n):
        for j in range(i + 1, n):
            entries = []
            for edge in x.edge_ids():
                u, v = x.edge_ends(edge)
                into, outof, b = isos[j][0][v], isos[i][1][u], block(edge, j, i)
                entries.append((edge, Matrix.zero(into.rows, outof.cols) if b.is_zero() else into * b * outof))
            psi.append(((i + 1, j + 1), tuple(entries)))
    factor_objects = tuple((lbl, fam[lbl]) for lbl in gamma.nodes)
    d = DeformationModule(gamma, factor_objects, tuple(psi))
    conj = {}
    for s in x.slot_ids():
        grid = [[isos[i][0][s] if j == n - 1 - i else None for j in range(n)] for i in range(n)]
        conj[s] = Matrix.block(grid, sizes[s][::-1], sizes[s]) * bases[s][1]
    return d, conj


def deformation_roundtrip(e: IteratedExtension):
    """(deformation, rebuilt extension, explicit isomorphism x -> rebuilt.x).

    The isomorphism is the extraction's change of basis conj: the factor
    isomorphisms, one per block row and column, times _split's U⁻¹, so it is
    invertible; the morphism constructor verifies it intertwines all edges.
    """
    d, conj = _deformation_with_conjugation(filtration_of(e))
    back = from_deformation(d)
    return d, back, Morphism(e.x, back.x, conj)


def _glued(parts, correction):
    """abcat.glue of the factor parts, checked against the backend relations."""
    obj = abcat.glue(parts, correction)
    bad = obj.violations()
    if bad:
        raise ValueError("correction maps violate the backend relations at nodes %s"
                         % ", ".join(str(src) for (src, _, _), _ in bad))
    return obj


def from_deformation(d: DeformationModule) -> IteratedExtension:
    """Rebuild the iterated extension on the leading components.

    The blocks are the factors in order-vector order with the psi
    corrections below the diagonal, so the trailing blocks span a
    subobject and the first m blocks, stage m, are the quotient of the top
    stage by it; a quotient keeps the relations, so only the top is checked.
    """
    order = d.gamma.order_vector
    simples = [d.factor(lbl) for lbl in order]
    cs = []
    fs = []
    monos = []
    for m in range(1, len(order) + 1):
        glue = _glued if m == len(order) else abcat.glue
        obj = glue(simples[:m], lambda i, j, edge: d.psi_matrix(j + 1, i + 1, edge) if j < i else None)
        # the surjection keeps the leading blocks; the last block is the kernel
        if m == 1:
            fs.append(abcat.zero_morphism(obj, abcat.zero_like(obj)))
        else:
            fs.append(abcat.part_map(obj, (cs[-1], simples[m - 1]), 0, inclusion=False))
        monos.append(abcat.part_map(obj, simples[:m], m - 1, inclusion=True))
        cs.append(obj)
    return IteratedExtension(d.factor_objects, order, cs, fs, monos)


def deformation_total_object(d: DeformationModule):
    """The full module over the path algebra, one block per path.

    Component p receives corrections into p.run(i+1, j) for the positions
    i at p's end node (all of them for idempotent components, only the
    run's own end position otherwise).
    """
    algebra = PathAlgebra(d.gamma)
    order = d.gamma.order_vector
    n = len(order)
    cells = {}
    for k, b in enumerate(algebra.basis):
        positions = [i for i in range(1, n + 1) if order[i - 1] == b[1]] if b[0] == "e" else [b[2]]
        for i in positions:
            for j in range(i + 1, n + 1):
                target = ("run", i + 1, j) if b[0] == "e" else ("run", b[1], j)
                if target in algebra.index:
                    cells[(algebra.index[target], k)] = (i, j)
    total = _glued(
        [d.factor(algebra.target(b)) for b in algebra.basis],
        lambda row, col, edge: d.psi_matrix(*cells[(row, col)], edge) if (row, col) in cells else None,
    )
    return total, algebra


def deformation_dimension_check(d: DeformationModule) -> bool:
    """Flatness bookkeeping: total dims match sum of dim k[Gamma]_{lm} * dim X_m."""
    total, algebra = deformation_total_object(d)
    expected = {}
    for b in algebra.basis:
        tgt = algebra.target(b)
        obj = d.factor(tgt)
        for s in obj.slot_ids():
            expected[s] = expected.get(s, 0) + obj.slot_dim(s)
    return all(total.slot_dim(s) == expected.get(s, 0) for s in total.slot_ids())
