"""Catalog of indecomposable graded modules over the first Weyl algebra.

The catalog keys are (alpha, n) for alpha in the interior label range
and (beta, n) for the two boundary labels; the modules are cyclic
quotients by (E - alpha)^n and by the alternating length-n word.  The
verifier runs the classifier per starting simple and checks that it
reproduces the catalog entry, its factor sequence, and the non-split
towers.

Twisted labels are encoded as "base@twist" strings, e.g. "1/2@0" or
"inf@-1"; admissible paths stay at constant twist under the generator
conventions of gradedrep, so the expected factor sequences alternate
between "0@w" and "inf@w" for boundary starts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import abcat, species as species_mod
from .gradedrep import GradedRep, ideal_quotient_rep, in_alpha_range, simple_rep, twist_rep, validate
from .linalg import Matrix, Scalar, ZERO, ONE, format_scalar, parse_int, parse_scalar
from .weyl import EulerPolynomial, alternating_word, euler_power, to_theta_form

DEFAULT_MARGIN = 2


class WindowTooSmallError(ValueError):
    """The requested computation does not fit the window with its margin."""


def required_window(twists, n: int, margin: int = DEFAULT_MARGIN):
    twists = list(twists)
    return (min(twists) - (n + margin), max(twists) + (n + margin))


def check_window(window, twists, n: int, margin: int = DEFAULT_MARGIN):
    lo, hi = required_window(twists, n, margin)
    if window[0] > lo or window[1] < hi:
        raise WindowTooSmallError(
            "window %r too small; need at least (%d, %d) for length %d at margin %d"
            % (tuple(window), lo, hi, n, margin)
        )


def default_window(n: int):
    return (-(n + 4), n + 4)


# -- label encoding ------------------------------------------------------------


def weyl_label(base, twist: int) -> str:
    if isinstance(base, Scalar):
        return "%s@%d" % (format_scalar(base), twist)
    if base in ("0", "inf"):
        return "%s@%d" % (base, twist)
    raise ValueError("bad base label %r" % (base,))


def parse_weyl_label(text: str):
    body, sep, twist_s = text.rpartition("@")
    if not sep:
        raise ValueError("label %r has no twist part" % text)
    twist = parse_int(twist_s)
    if body in ("0", "inf"):
        return body, twist
    alpha = parse_scalar(body)
    if not in_alpha_range(alpha):
        raise ValueError("label %r is outside the simple range" % text)
    return alpha, twist


def weyl_simple_family(bases, twists, window):
    """Ordered (label, module) pairs for the given bases and twists."""
    fam = []
    for w in twists:
        for base in bases:
            fam.append((weyl_label(base, w), simple_rep(base, w, window)))
    return tuple(fam)


def normalize_alpha(alpha: Scalar):
    """Shift an interior label by an integer into the canonical range.

    Returns (alpha - m, -m) with m = floor(Re alpha): the module for
    alpha is the module for alpha - m twisted by -m.  Rejects integer
    alpha, whose modules belong to the boundary labels.
    """
    m = int(alpha.re.numerator // alpha.re.denominator)
    shifted = alpha - Scalar(m)
    if not shifted:
        raise ValueError("integer label %s has no interior normal form" % alpha)
    return shifted, -m


# -- catalog -------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogKey:
    kind: str  # "euler" or "word"
    alpha: object  # Scalar for euler keys, None otherwise
    beta: object  # "0" / "inf" for word keys, None otherwise
    n: int
    twist: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("length must be >= 1")
        if self.kind == "euler":
            if not isinstance(self.alpha, Scalar) or not in_alpha_range(self.alpha):
                raise ValueError("euler key needs a label with 0 <= re < 1, nonzero")
        elif self.kind == "word":
            if self.beta not in ("0", "inf"):
                raise ValueError("word key needs beta '0' or 'inf'")
        else:
            raise ValueError("kind must be 'euler' or 'word'")

    def start_label(self) -> str:
        base = self.alpha if self.kind == "euler" else self.beta
        return weyl_label(base, self.twist)

    def describe(self) -> str:
        if self.kind == "euler":
            return "euler %s n=%d twist=%d" % (format_scalar(self.alpha), self.n, self.twist)
        return "word %s n=%d twist=%d" % (self.beta, self.n, self.twist)


def catalog_module(key: CatalogKey, window, margin: int = DEFAULT_MARGIN) -> GradedRep:
    """Windowed catalog module, aligned so its top factor sits at key.twist."""
    check_window(window, [key.twist], key.n, margin)
    if key.kind == "euler":
        gen = euler_power(key.alpha, key.n)
        offset = key.twist
    else:
        gen = alternating_word(key.beta, key.n)
        offset = key.twist - 1 if key.beta == "inf" else key.twist
    base = ideal_quotient_rep(gen, (window[0] - offset, window[1] - offset))
    return twist_rep(base, offset)


def expected_factors(key: CatalogKey):
    """Factor labels in cofiltration order (top factor first)."""
    if key.kind == "euler":
        return tuple(weyl_label(key.alpha, key.twist) for _ in range(key.n))
    other = {"0": "inf", "inf": "0"}[key.beta]
    out = []
    for i in range(1, key.n + 1):
        base = key.beta if i % 2 == 1 else other
        out.append(weyl_label(base, key.twist))
    return tuple(out)


def euler_tower_class(alpha: Scalar, n: int, window, margin: int = DEFAULT_MARGIN):
    """Extension class of the factorization tower at length n (n >= 2).

    The tower is the short exact sequence with the length-(n-1) module as
    quotient and the simple as sub, realized by reduction between the
    cyclic quotients.
    """
    if n < 2:
        raise ValueError("tower needs n >= 2")
    key = CatalogKey("euler", alpha, None, n)
    simple = simple_rep(alpha, key.twist, window)
    space, vec = _tower_cocycle(key, catalog_module(key, window, margin), simple, window, margin)
    return abcat.ExtClass(space, vec, space.class_coords(vec))


def _tower_cocycle(key: CatalogKey, big: GradedRep, simple: GradedRep, window, margin: int):
    """(ExtSpace, cocycle vector) of the tower of an Euler key (n >= 2) at its twist.

    big is the key's catalog module and simple the simple for key.alpha at
    key.twist; the caller builds both.
    """
    small = catalog_module(replace(key, n=key.n - 1), window, margin)
    _, qpoly = to_theta_form(euler_power(key.alpha, key.n - 1))
    qpoly = qpoly.monic()
    mats = {}
    for w in big.slot_ids():
        rows = small.slot_dim(w)
        # the residue basis E^j (j <= rows, one more than the quotient's) maps
        # along polynomial reduction; only the top power reduces nontrivially
        rem = EulerPolynomial([ZERO] * rows + [ONE]).mod(qpoly)
        top = tuple(rem.coeffs[i] if i < len(rem.coeffs) else ZERO for i in range(rows))
        mats[w] = Matrix.identity(rows).hstack(Matrix.from_columns([top], rows))
    surj = abcat.Morphism(big, small, mats)
    ker_obj, ker_incl = abcat.kernel(surj)
    iso = abcat.find_isomorphism(simple, ker_obj)
    if iso is None:
        raise RuntimeError("tower kernel is not the expected simple")
    return abcat._extension_cocycle(ker_incl * iso, surj)


# -- theorem verification -------------------------------------------------------


@dataclass(frozen=True)
class KeyResult:
    key: CatalogKey
    checks: tuple  # ((name, ok, detail), ...)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)


@dataclass(frozen=True)
class VerifyReport:
    n_max: int
    margin: int
    windows: tuple  # ((n, window), ...)
    results: tuple  # KeyResult...

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.ok]


def _keys_for(start_bases, n):
    keys = []
    for base in start_bases:
        if isinstance(base, Scalar):
            keys.append(CatalogKey("euler", base, None, n))
        else:
            keys.append(CatalogKey("word", None, base, n))
    return keys


def verify_key(key: CatalogKey, window, margin: int = DEFAULT_MARGIN) -> KeyResult:
    """Run the classification pipeline for one start and length."""
    check_window(window, [key.twist], key.n, margin)
    if key.kind == "euler":
        bases = [key.alpha, "0", "inf"]
    else:
        bases = ["0", "inf"]
    family = weyl_simple_family(bases, [key.twist], window)
    checks = []
    spec = species_mod.species_of(family)
    verdict = species_mod.uc_check(spec)
    checks.append(("criterion", verdict.ok, repr(verdict.pattern) if not verdict.ok else ""))
    classified = species_mod.classify(spec, family, key.n, start=key.start_label())
    checks.append(("unique class", len(classified) == 1, "found %d" % len(classified)))
    cat = catalog_module(key, window, margin)
    problems = validate(cat)
    checks.append(("catalog validates", not problems, "; ".join(problems)))
    if len(classified) == 1:
        built = classified[0]
        # classify certified the built object indecomposable, so the search decides
        same = abcat.find_isomorphism(built.obj, cat) is not None
        checks.append(("isomorphic to catalog", same, "" if same else _iso_witness(built.obj, cat)))
        uni, series = abcat.is_uniserial(cat, family)
        checks.append(("catalog uniserial", uni, "" if uni else _socle_witness(cat, family)))
        expected = expected_factors(key)
        checks.append(
            ("factors", series == expected, "got %r expected %r" % (series, expected))
        )
        ok = built.uniserial_series == expected
        checks.append(
            ("classifier factors", ok, "" if ok else "got %r expected %r" % (built.uniserial_series, expected))
        )
    if key.kind == "euler" and key.n >= 2:
        space, vec = _tower_cocycle(key, cat, dict(family)[key.start_label()], window, margin)
        ranks = (space.augmented_rank(vec), space._rank_d0)
        ok = ranks[0] > ranks[1]
        checks.append(("tower non-split", ok, "" if ok else "rank [d0 | c] = %d, rank d0 = %d" % ranks))
    return KeyResult(key, tuple(checks))


def _iso_witness(built, cat) -> str:
    """Why find_isomorphism(built, cat) found nothing: the slot dimensions
    differ, or no Hom(built, cat) basis map is invertible."""
    dims = [tuple(x.slot_dim(s) for s in x.slot_ids()) for x in (built, cat)]
    if dims[0] != dims[1]:
        return "slot dimensions %r and %r" % tuple(dims)
    return "none of the %d Hom(built, cat) basis maps is invertible" % len(abcat.hom_basis(built, cat))


def _socle_witness(x, family) -> str:
    """The first peeling stage of x whose socle is not simple, with its Hom count per simple."""
    for depth, (step, simple_socle) in enumerate(abcat._peel(x, family)):
        if not simple_socle:
            counts = abcat.socle(step.stage, family).multiplicities
            return "stage %d (dim %d): Hom counts %r" % (depth, abcat.total_dim(step.stage), counts)


def verify_theorem(
    n_max: int, alphas=(), window=None, margin: int = DEFAULT_MARGIN, window_pad: int = 0
) -> VerifyReport:
    """Check the classification pipeline for every start and n <= n_max.

    window_pad widens the per-length default windows symmetrically; the
    stability guard reruns verification with a positive pad and compares
    verdicts.
    """
    alphas = tuple(alphas) if alphas else (parse_scalar("1/2"),)
    for a in alphas:
        if not in_alpha_range(a):
            raise ValueError("start label %s outside the simple range" % a)
    start_bases = list(alphas) + ["0", "inf"]
    results = []
    windows = []
    for n in range(1, n_max + 1):
        if window is not None:
            win = (window[0] - window_pad, window[1] + window_pad)
        else:
            base = default_window(n)
            win = (base[0] - window_pad, base[1] + window_pad)
        check_window(win, [0], n, margin)
        windows.append((n, tuple(win)))
        for key in _keys_for(start_bases, n):
            results.append(verify_key(key, win, margin))
    return VerifyReport(n_max, margin, tuple(windows), tuple(results))
