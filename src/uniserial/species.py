"""Species extraction, the uniseriality criterion, and the classifier.

The species of a family of orthogonal k-rational simples is the table
d(a, b) = dim Ext^1(S_a, S_b); drawn as a quiver it has d(a, b) arrows
from node a to node b.  The uniseriality criterion (UC) asks every row
sum and column sum of the table to be at most one; when it holds, the
indecomposables are classified by paths in the quiver, built step by
step from the family by realizing one extension per step.

Matric Massey products are never computed symbolically here: a candidate
path is admissible exactly when every step finds an extension class of
the partial object whose restriction to the previous kernel is nonzero,
and that is checked directly during construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import abcat
from .abcat import ExtSpace, pullback_extension, realize_extension
from .itext import IteratedExtension
from .linalg import ONE, parse_int

SPECIES_TAG = "specfile species v1"


class FamilyError(ValueError):
    """The supplied family is not orthogonal k-rational; names the pair."""


class CriterionError(ValueError):
    """An operation required the uniseriality criterion and it fails."""


@dataclass(frozen=True)
class Species:
    labels: tuple
    table: tuple  # ((from, to, dim), ...) sparse, dims >= 1 only

    def dim(self, a, b) -> int:
        for x, y, d in self.table:
            if (x, y) == (a, b):
                return d
        return 0

    def successors(self, a):
        return tuple((b, d) for x, b, d in self.table if x == a)

    def predecessors(self, b):
        return tuple((a, d) for a, y, d in self.table if y == b)


def species_of(family) -> Species:
    """Ext-dimension table of an ordered family of (label, object) pairs.

    One ExtSpace per ordered pair carries both dimensions of the standard
    complex (see abcat): dim Hom = dim ker δ⁰ and dim Ext^1 = dim Z - dim B.
    The family must consist of orthogonal points with one-dimensional
    endomorphisms; the diagonal is checked before the off-diagonal pairs.
    """
    family = tuple(family)
    labels = tuple(lbl for lbl, _ in family)
    if len(set(labels)) != len(labels):
        raise FamilyError("duplicate labels in family")
    spaces = {}
    for la, a in family:
        spaces[la, la] = ExtSpace(a, a)
        if spaces[la, la].hom_dim() != 1:
            raise FamilyError("endomorphisms of %s are not one-dimensional" % (la,))
    for la, a in family:
        for lb, b in family:
            if la != lb:
                spaces[la, lb] = ExtSpace(a, b)
                if spaces[la, lb].hom_dim():
                    raise FamilyError("family is not orthogonal: maps %s -> %s exist" % (la, lb))
    entries = []
    for la, _ in family:
        for lb, _ in family:
            d = spaces[la, lb].dim()
            if d:
                entries.append((la, lb, d))
    return Species(labels, tuple(entries))


@dataclass(frozen=True)
class UCVerdict:
    ok: bool
    pattern: tuple  # () when ok; else (shape name, labels...)

    def __bool__(self):
        return self.ok


def uc_check(s: Species) -> UCVerdict:
    """Row/column sums of the Ext table at most one, with a witness shape.

    On failure reports one of the three forbidden subquivers: a double
    arrow, a fan-out (two arrows with one source), or a fan-in (two
    arrows with one target).
    """
    for a, b, d in s.table:
        if d >= 2:
            return UCVerdict(False, ("double arrow", a, b))
    for a in s.labels:
        succ = [b for b, d in s.successors(a) if d]
        if len(succ) > 1:
            return UCVerdict(False, ("fan-out", a, succ[0], succ[1]))
    for b in s.labels:
        pred = [a for a, d in s.predecessors(b) if d]
        if len(pred) > 1:
            return UCVerdict(False, ("fan-in", pred[0], pred[1], b))
    return UCVerdict(True, ())


def admissible_paths(s: Species, n: int):
    """All candidate order vectors of length n along nonzero Ext entries.

    Requires the uniseriality criterion; realizability of each candidate
    is decided later by realize_vector.
    """
    verdict = uc_check(s)
    if not verdict.ok:
        raise CriterionError("species violates the uniseriality criterion: %r" % (verdict.pattern,))
    if n < 1:
        raise ValueError("path length must be >= 1")
    paths = [(lbl,) for lbl in s.labels]
    for _ in range(n - 1):
        extended = []
        for p in paths:
            for b, d in s.successors(p[-1]):
                if d:
                    extended.append(p + (b,))
        paths = extended
    return paths


def realize_vector(v, family):
    """Build the iterated extension with the given order vector, if any.

    Walks the vector left to right, at each step picking an extension
    class of the partial object by the next simple whose restriction to
    the previous kernel is nonzero, scaled so the restriction hits the
    basis class.  Returns None when no step class exists (the lifting
    obstruction is nonzero).

    The call keeps one ExtSpace per label pair: the previous kernel is the
    simple S_v[i-1], so every restriction lands in the pair space
    (v[i-1], v[i]).  At step 1 that is the step space itself, and the
    restriction, along the identity, is the class.
    """
    v = tuple(v)
    if not v:
        raise ValueError("empty order vector")
    fam = dict(family)
    for lbl in v:
        if lbl not in fam:
            raise KeyError("label %r not in family" % (lbl,))
    first = fam[v[0]]
    cs = [first]
    fs = [abcat.zero_morphism(first, abcat.zero_like(first))]
    monos = [abcat.identity_morphism(first)]
    pairs = {}
    for i in range(1, len(v)):
        key = v[i - 1], v[i]
        if key not in pairs:
            pairs[key] = ExtSpace(fam[v[i - 1]], fam[v[i]])
        pair = pairs[key]
        space = pair if i == 1 else ExtSpace(cs[-1], fam[v[i]])
        chosen = None
        for cls in space.basis():
            tau = cls if i == 1 else pullback_extension(cls, monos[-1], pair)
            if not tau.is_zero():
                chosen = cls
                break
        if chosen is None:
            return None
        # the pullback is linear in the class, so this scale makes tau's first nonzero coordinate one
        z, inj, surj = realize_extension(chosen.scale(ONE / next(c for c in tau.coords if c)))
        cs.append(z)
        fs.append(surj)
        monos.append(inj)
    return IteratedExtension(tuple(family), v, cs, fs, monos)


@dataclass(frozen=True)
class ClassifiedObject:
    order_vector: tuple
    extension: IteratedExtension
    indecomposable_certificate: tuple  # (dim End, dim rad End)

    @property
    def obj(self):
        return self.extension.x


class CertificateError(RuntimeError):
    """A classified object failed one of its guaranteed certificates."""


def classify(s: Species, family, n: int, start=None):
    """All indecomposables of length n over the family, with certificates.

    Realizes each admissible path (optionally the ones with a fixed first
    label) and certifies each object indecomposable by its End ranks.
    Lemma: if X has a series 0 = X_0 < ... < X_n = X with family simple
    factors and every X_{i+1}/X_{i-1} non-split, X_1 is the family socle of
    X, so X is uniserial with that series.  (A family simple T != X_1 meets
    X_1 in 0; by induction soc(X/X_1) = X_2/X_1, so T maps onto X_2/X_1 and
    X_2 = X_1 + T splits.)  At each step of realize_vector the new X_2 has
    class tau, checked nonzero and kept so by the rescaling, and the higher
    pieces are the previous stage's; so the lemma applies, and since the
    series is an isomorphism invariant, distinct paths give non-isomorphic
    objects.
    """
    family = tuple(family)
    paths = admissible_paths(s, n)
    if start is not None:
        paths = [p for p in paths if p[0] == start]
    out = []
    for p in paths:
        ext = realize_vector(p, family)
        if ext is None:
            continue
        ok, cert = abcat.is_indecomposable(ext.x)
        if not ok:
            raise CertificateError("object for %r is decomposable" % (p,))
        out.append(ClassifiedObject(p, ext, cert))
    return out


# -- species file format -------------------------------------------------------


def species_to_text(s: Species) -> str:
    lines = [SPECIES_TAG]
    lines += ["label %s" % lbl for lbl in s.labels]
    lines += ["ext %s %s %d" % (a, b, d) for a, b, d in s.table]
    return "\n".join(lines) + "\n"


def species_from_text(text: str) -> Species:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != SPECIES_TAG:
        raise ValueError("missing format tag %r" % SPECIES_TAG)
    labels = []
    entries = []
    pairs = set()
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "label" and len(parts) == 2:
            if parts[1] in labels:
                raise ValueError("duplicate label %r in species file" % parts[1])
            labels.append(parts[1])
        elif parts[0] == "ext" and len(parts) == 4:
            a, b, d = parts[1], parts[2], parse_int(parts[3])
            if (a, b) in pairs:
                raise ValueError("duplicate ext line for %s -> %s in species file" % (a, b))
            pairs.add((a, b))
            if d < 0:
                raise ValueError("negative Ext dimension in %r" % ln)
            if d:
                entries.append((a, b, d))
        else:
            raise ValueError("unknown line %r in species file" % ln)
    known = set(labels)
    for a, b, _ in entries:
        if a not in known or b not in known:
            raise ValueError("ext entry mentions unknown label: %s -> %s" % (a, b))
    return Species(tuple(labels), tuple(entries))
