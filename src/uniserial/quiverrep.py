"""Finite-dimensional representations of quivers with relations.

The presentation format (see parse_presentation) is:

    specfile quiver v1
    node <name>
    arrow <name> <src> <tgt>
    relation <term> [+|- <term> ...]
    rep dim <node> <d>
    rep map <arrow> <rows>x<cols> <entries>

A relation term is ``coef*path`` (or a bare ``path``), where a path is a
'.'-separated arrow sequence read left to right in application order
(``a.b`` means first a, then b), and ``e(<node>)`` is the identity path.
All terms of one relation must share source and target nodes.  The
optional ``rep`` lines describe one representation, used by commands
that consume concrete objects.
"""

from __future__ import annotations

from .linalg import Matrix, ONE, Scalar, ZERO, format_matrix, format_scalar, parse_int, parse_matrix, parse_scalar

QUIVER_TAG = "specfile quiver v1"


class QuiverPresentation:
    """Nodes, arrows, and relations; hashable so reps can share it.

    Node and arrow ids are kept as given; ends maps each arrow to its
    (source, target) in arrow order.
    """

    __slots__ = ("nodes", "arrows", "ends", "relation_list")

    def __init__(self, nodes, arrows, relations=()):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node names")
        arrows = tuple((a, s, t) for a, s, t in arrows)
        ends = {a: (s, t) for a, s, t in arrows}
        if len(ends) != len(arrows):
            raise ValueError("duplicate arrow names")
        node_set = set(nodes)
        for a, s, t in arrows:
            if s not in node_set or t not in node_set:
                raise ValueError("arrow %s has unknown endpoint" % (a,))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "ends", ends)
        checked = tuple(self._check_relation(r) for r in relations)
        object.__setattr__(self, "relation_list", checked)

    def __setattr__(self, name, value):
        raise AttributeError("QuiverPresentation is immutable")

    def _check_relation(self, rel):
        """A relation is (src, tgt, terms) with terms ((coef, path), ...)."""
        src, tgt, terms = rel
        if src not in self.nodes or tgt not in self.nodes:
            raise ValueError("relation from %s to %s names an unknown node" % (src, tgt))
        out_terms = []
        for coef, path in terms:
            path = tuple(path)
            if path:
                here = src
                for name in path:
                    s, t = self.ends[name]
                    if s != here:
                        raise ValueError("path %r is not composable at %s" % (path, name))
                    here = t
                if here != tgt:
                    raise ValueError("path %r does not end at %s" % (path, tgt))
            else:
                if src != tgt:
                    raise ValueError("identity term needs equal source and target")
            if not isinstance(coef, Scalar):
                coef = Scalar(coef)
            out_terms.append((coef, path))
        return (src, tgt, tuple(out_terms))

    def __eq__(self, other):
        return (
            isinstance(other, QuiverPresentation)
            and self.nodes == other.nodes
            and self.arrows == other.arrows
            and self.relation_list == other.relation_list
        )

    def __hash__(self):
        return hash((self.nodes, self.arrows))

    def __repr__(self):
        return "QuiverPresentation(nodes=%r, arrows=%r, relations=%d)" % (
            self.nodes,
            self.arrows,
            len(self.relation_list),
        )


class RelationViolation(ValueError):
    """A candidate representation fails a relation; carries the culprit."""

    def __init__(self, relation, value):
        self.relation = relation
        self.value = value
        super().__init__("relation %s violated" % format_relation(relation))


class Rep:
    """A representation of a quiver with relations: the one object of the category engine.

    Per-node dimensions and one matrix per arrow (a missing matrix is
    zero, every shape is checked).  The engine reads it through slot_ids,
    slot_dim, edge_ids, edge_ends, edge_matrix, relations, with_matrices
    and same_space; violations() evaluates the relations once and keeps
    the answer, as the object is immutable.  Subclasses set the
    construction policy in _check_relations and may rename their matrices
    in errors through _matrix_name.
    """

    __slots__ = ("pres", "dims", "mats", "_violations")

    def __init__(self, pres: QuiverPresentation, dims, mats):
        self_dims = {n: int(dims.get(n, 0)) for n in pres.nodes}
        if any(d < 0 for d in self_dims.values()):
            raise ValueError("negative dimension in %r" % (self_dims,))
        self_mats = {}
        for a, s, t in pres.arrows:
            m = mats.get(a)
            if m is None:
                m = Matrix.zero(self_dims[t], self_dims[s])
            if m.rows != self_dims[t] or m.cols != self_dims[s]:
                raise ValueError("%s has shape %dx%d, expected %dx%d"
                                 % (self._matrix_name(a), m.rows, m.cols, self_dims[t], self_dims[s]))
            self_mats[a] = m
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "dims", self_dims)
        object.__setattr__(self, "mats", self_mats)
        self._check_relations()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _matrix_name(self, arrow):
        return "matrix for arrow %s" % (arrow,)

    def _check_relations(self):
        """Relations are left to violations() unless a subclass checks them here."""

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.pres == other.pres
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __hash__(self):
        return hash(tuple(self.dims.items()))

    def __repr__(self):
        return "%s(dims=%r)" % (type(self).__name__, {n: d for n, d in self.dims.items() if d})

    def violations(self):
        """((relation, value), ...) for each relation the matrices break, in relation order; evaluated once."""
        if not hasattr(self, "_violations"):
            object.__setattr__(self, "_violations", self._evaluate_relations())
        return self._violations

    def _evaluate_relations(self):
        """violations(), evaluated.

        A relation sum of coef * path, identity terms included, holds when
        the path terms sum to minus the identity terms; each path product
        starts at its first edge matrix, and the identity is never built
        unless the relation fails.
        """
        mats, out = self.mats, []
        for rel in self.pres.relation_list:
            src, tgt, terms = rel
            acc, diag = None, ZERO
            for coef, path in terms:
                if not path:
                    diag = diag - coef
                    continue
                m = mats[path[0]]
                for name in path[1:]:
                    m = mats[name] * m
                if acc is None:
                    acc = m if coef == ONE else m.scale(coef)
                else:
                    acc = acc - m if coef == -ONE else acc + (m if coef == ONE else m.scale(coef))
            if acc is None:
                acc = Matrix.zero(self.dims[tgt], self.dims[src])
            if not (acc.is_scalar(diag) if diag else acc.is_zero()):
                out.append((rel, acc - Matrix.identity(acc.rows).scale(diag) if diag else acc))
        return tuple(out)

    # -- protocol used by the category engine -------------------------------

    def slot_ids(self):
        return self.pres.nodes

    def slot_dim(self, node) -> int:
        return self.dims[node]

    def edge_ids(self):
        return tuple(self.pres.ends)

    def edge_ends(self, arrow):
        return self.pres.ends[arrow]

    def edge_matrix(self, arrow) -> Matrix:
        return self.mats[arrow]

    def relations(self):
        return self.pres.relation_list

    def with_matrices(self, dims, mats):
        """The representation of the same class and quiver with these dimensions and matrices."""
        new = object.__new__(type(self))
        Rep.__init__(new, self.pres, dims, mats)
        return new

    def same_space(self, other) -> bool:
        return type(other) is type(self) and self.pres == other.pres

    def core_window(self):
        """(slots, edges, relations, checks, transport): the complex abcat solves Hom and ranks Ext^1 on.

        A subclass may return a core: the slots a..b, the edges with both
        ends among them, the relations whose paths use those edges only,
        the arrows outside them on which abcat.hom_basis checks each
        carried map, and the transport (arrow, ...), the invertible arrows
        that carry a map outward from the core, each from a slot already
        reached; their inverses are built where a map is carried
        (abcat._carry).  A plain Rep returns its whole quiver, with nothing
        to check or carry.
        """
        return self.pres.nodes, tuple(self.pres.ends), self.pres.relation_list, (), ()


class QuiverRep(Rep):
    """A representation whose relations are checked on every construction."""

    __slots__ = ()

    def _check_relations(self):
        bad = self.violations()
        if bad:
            raise RelationViolation(*bad[0])


def simple_at(pres: QuiverPresentation, node) -> QuiverRep:
    """One-dimensional at the node, zero elsewhere, all arrows zero."""
    if node not in pres.nodes:
        raise ValueError("unknown node %r" % node)
    return QuiverRep(pres, {node: 1}, {})


# -- text format -------------------------------------------------------------


def format_relation(rel) -> str:
    """Relation text; imaginary coefficients are parenthesized so the
    factor splitter never has to guess whether 'i' names an arrow."""
    src, tgt, terms = rel
    parts = []
    for coef, path in terms:
        body = ".".join(path) if path else "e(%s)" % src
        ctxt = format_scalar(coef)
        if coef.im:
            ctxt = "(%s)" % ctxt
        parts.append("%s*%s" % (ctxt, body))
    return " + ".join(parts)


def _split_relation_factors(term: str, orig: str):
    factors = []
    depth = 0
    start = 0
    for pos, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in relation %r" % orig)
        elif ch == "*" and depth == 0:
            factors.append(term[start:pos])
            start = pos + 1
    if depth != 0:
        raise ValueError("unbalanced parentheses in relation %r" % orig)
    factors.append(term[start:])
    return factors


def _parse_relation_text(text: str, arrow_ends):
    terms = []
    chunk = ""
    depth = 0
    pieces = []
    for ch in text.replace(" ", ""):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and chunk and chunk[-1] not in "*/+-(":
            pieces.append(chunk)
            chunk = ch
        else:
            chunk += ch
    pieces.append(chunk)
    for piece in pieces:
        sign = ONE
        while piece and piece[0] in "+-":
            if piece[0] == "-":
                sign = -sign
            piece = piece[1:]
        coef = sign
        path = None
        for factor in _split_relation_factors(piece, text):
            if not factor:
                raise ValueError("empty factor in relation %r" % text)
            if factor.startswith("e(") and factor.endswith(")"):
                found = ()
                anchor = factor[2:-1]
            elif all(part in arrow_ends for part in factor.split(".")):
                found = tuple(factor.split("."))
            else:
                coef = coef * parse_scalar(factor if not factor.startswith("(") else factor[1:-1])
                continue
            if path is not None:
                raise ValueError("relation term %r has two path factors" % piece)
            path = found
        if path is None:
            raise ValueError("relation term %r has no path" % piece)
        if path:
            src = arrow_ends[path[0]][0]
            tgt = arrow_ends[path[-1]][1]
        else:
            src = tgt = anchor
        terms.append((coef, path, src, tgt))
    src = terms[0][2]
    tgt = terms[0][3]
    for _, _, s, t in terms:
        if (s, t) != (src, tgt):
            raise ValueError("relation %r mixes source/target pairs" % text)
    return (src, tgt, tuple((c, p) for c, p, _, _ in terms))


def parse_presentation(text: str):
    """Parse a quiver file; returns (presentation, rep or None)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != QUIVER_TAG:
        raise ValueError("missing format tag %r" % QUIVER_TAG)
    nodes = []
    arrows = []
    relation_texts = []
    rep_dims = {}
    rep_mats_raw = {}
    has_rep = False
    for ln in lines[1:]:
        parts = ln.split()
        key = parts[0]
        if key == "node" and len(parts) == 2:
            nodes.append(parts[1])
        elif key == "arrow" and len(parts) == 4:
            arrows.append(tuple(parts[1:]))
        elif key == "relation" and len(parts) > 1:
            relation_texts.append(ln.split(None, 1)[1])
        elif key == "rep" and len(parts) == 4 and parts[1] == "dim":
            if parts[2] in rep_dims:
                raise ValueError("duplicate rep dim line for node %r in quiver file" % parts[2])
            has_rep = True
            rep_dims[parts[2]] = parse_int(parts[3])
        elif key == "rep" and len(parts) in (4, 5) and parts[1] == "map":
            if parts[2] in rep_mats_raw:
                raise ValueError("duplicate rep map line for arrow %r in quiver file" % parts[2])
            has_rep = True
            rep_mats_raw[parts[2]] = parse_matrix(" ".join(parts[3:]))
        else:
            raise ValueError("unknown line %r in quiver file" % ln)
    arrow_ends = {a: (s, t) for a, s, t in arrows}
    relations = [_parse_relation_text(t, arrow_ends) for t in relation_texts]
    pres = QuiverPresentation(nodes, arrows, relations)
    unknown = sorted(set(rep_dims) - set(pres.nodes)) + sorted(set(rep_mats_raw) - set(arrow_ends))
    if unknown:
        raise ValueError("rep lines name unknown nodes or arrows: %s" % ", ".join(unknown))
    the_rep = QuiverRep(pres, rep_dims, rep_mats_raw) if has_rep else None
    return pres, the_rep


def to_text(pres: QuiverPresentation, the_rep: QuiverRep = None) -> str:
    lines = [QUIVER_TAG]
    lines += ["node %s" % n for n in pres.nodes]
    lines += ["arrow %s %s %s" % (a, s, t) for a, s, t in pres.arrows]
    lines += ["relation %s" % format_relation(r) for r in pres.relation_list]
    if the_rep is not None:
        for n in pres.nodes:
            if the_rep.dims[n]:
                lines.append("rep dim %s %d" % (n, the_rep.dims[n]))
        for a, m in the_rep.mats.items():
            if m.rows and m.cols:
                lines.append("rep map %s %s" % (a, format_matrix(m)))
    return "\n".join(lines) + "\n"


KRONECKER = QuiverPresentation(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
