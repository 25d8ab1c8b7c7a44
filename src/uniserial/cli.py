"""Command-line front end.

Commands: check-uc, classify, ext-table, weyl-module, verify-weyl,
deform.  Exit status is 0 on success/verified, 1 on a semantic failure
(criterion violated, verification failed, round-trip mismatch), 2 on
input errors (unreadable or malformed files, bad flags).

Machine-readable reports are a format tag line followed by canonical
JSON and round-trip through parse_report; human-readable reports are
plain text.  Every report embeds the convention block (grading signs,
twist direction, boundary generator weight, window, margin) so results
are self-describing.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import abcat, species as species_mod
from .gradedrep import (
    from_text as gradedrep_from_text,
    to_text as gradedrep_to_text,
    validate,
)
from .quiverrep import simple_at
from .itext import (
    canonical_iterated_extension,
    deformation_dimension_check,
    deformation_roundtrip,
    path_algebra,
)
from .linalg import format_scalar, parse_int, parse_scalar
from .quiverrep import parse_presentation, to_text as quiver_to_text
from .species import CriterionError, classify, species_from_text, species_of, species_to_text, uc_check
from .weylcat import (
    CatalogKey,
    DEFAULT_MARGIN,
    WindowTooSmallError,
    catalog_module,
    check_window,
    default_window,
    expected_factors,
    in_alpha_range,
    normalize_alpha,
    parse_weyl_label,
    verify_theorem,
    weyl_label,
    weyl_simple_family,
)

REPORT_VERSION = "v1"


def convention_block(window=None, margin=None):
    block = {
        "grading": "t:+1,d:-1",
        "twist": "shift-up",
        "boundary-inf-generator-weight": -1,
    }
    if window is not None:
        block["window"] = list(window)
    if margin is not None:
        block["margin"] = margin
    return block


def emit_report(name: str, payload: dict) -> str:
    tag = "specfile %s %s" % (name, REPORT_VERSION)
    return tag + "\n" + json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_report(text: str):
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("specfile "):
        raise ValueError("missing report format tag")
    parts = lines[0].split()
    if len(parts) != 3 or parts[2] != REPORT_VERSION:
        raise ValueError("bad report tag %r" % lines[0])
    payload = json.loads("\n".join(lines[1:]))
    return parts[1], payload


class InputError(ValueError):
    """Bad file or flags; maps to exit status 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def _parse_window(values, fallback):
    if values is None:
        return fallback
    lo, hi = values
    if lo > hi:
        raise InputError("window bounds out of order")
    return (lo, hi)


def _parse_alpha(text: str, normalize):
    """(label, twist shift) of an interior label; normalize is None for a command without --normalize-alpha."""
    try:
        alpha = parse_scalar(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    twist_delta = 0
    if normalize:
        try:
            alpha, twist_delta = normalize_alpha(alpha)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    elif not in_alpha_range(alpha):
        hint = "" if normalize is None else " (rerun with --normalize-alpha to shift it)"
        raise InputError("label %s outside the range 0 <= re < 1%s" % (text, hint))
    return alpha, twist_delta


def _parse_interior_labels(text):
    """Distinct interior labels from a comma-separated flag (default 1/2); the boundary labels are always added."""
    alphas = []
    for item in (text.split(",") if text is not None else ["1/2"]):
        item = item.strip()
        if item in ("0", "inf"):
            raise InputError("boundary labels are always included; pass only interior labels")
        alpha, _ = _parse_alpha(item, None)
        if alpha in alphas:
            raise InputError("label %s repeats an earlier label" % item)
        alphas.append(alpha)
    return alphas


def _catalog_key(args) -> CatalogKey:
    twist = args.twist
    if args.kind == "euler":
        if args.alpha is None:
            raise InputError("--kind euler needs --alpha")
        alpha, delta = _parse_alpha(args.alpha, args.normalize_alpha)
        return CatalogKey("euler", alpha, None, args.n, twist + delta)
    if args.kind == "word":
        if args.beta not in ("0", "inf"):
            raise InputError("--kind word needs --beta 0 or inf")
        return CatalogKey("word", None, args.beta, args.n, twist)
    raise InputError("--kind must be euler or word")


# -- commands ------------------------------------------------------------------


def cmd_check_uc(args):
    text = _read(args.species)
    try:
        s = species_from_text(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    verdict = uc_check(s)
    payload = {
        "convention": convention_block(),
        "labels": list(s.labels),
        "uniserial": verdict.ok,
        "pattern": list(verdict.pattern) if verdict.pattern else None,
    }
    if args.format == "machine":
        out = emit_report("check-uc-report", payload)
    elif verdict.ok:
        out = "uniserial: the Ext table satisfies the row/column criterion\n"
    else:
        out = "not uniserial: forbidden shape %s witnessed by %s\n" % (
            verdict.pattern[0],
            ", ".join(verdict.pattern[1:]),
        )
    return (0 if verdict.ok else 1), out


def _serialize_object(obj):
    if hasattr(obj, "window"):
        return gradedrep_to_text(obj)
    return quiver_to_text(obj.pres, obj)


def cmd_classify(args):
    n = args.n
    if args.quiver:
        pres, _, family = _parse_quiver(args.quiver)
        window = None
        start = args.start
        if start is not None and start not in pres.nodes:
            raise InputError("--start %s is not a node of the quiver" % start)
        margin = args.margin
    else:
        if args.start is None:
            raise InputError("classification needs --start (an exact label or 0/inf) or --quiver")
        twist = args.twist
        if args.start in ("0", "inf"):
            base = args.start
        else:
            base, delta = _parse_alpha(args.start, args.normalize_alpha)
            twist += delta
        window = _parse_window(args.window, tuple(w + twist for w in default_window(n)))
        margin = args.margin
        check_window(window, [twist], n, margin)
        bases = ["0", "inf"] if base in ("0", "inf") else [base]
        family = weyl_simple_family(bases, [twist], window)
        start = weyl_label(base, twist)
    s = species_of(family)
    verdict = uc_check(s)
    if not verdict.ok:
        payload = {
            "convention": convention_block(window, args.margin),
            "error": "criterion violated; run check-uc",
            "pattern": list(verdict.pattern),
        }
        if args.format == "machine":
            return 1, emit_report("classify-report", payload)
        return 1, "refused: the species violates the uniseriality criterion (%s); run check-uc\n" % (
            verdict.pattern[0],
        )
    items = classify(s, family, n, start=start)
    paths = []
    for item in items:
        paths.append(
            {
                "order_vector": list(item.order_vector),
                "indecomposable": True,
                "certificate": [item.indecomposable_certificate[0], item.indecomposable_certificate[1]],
                "uniserial": True,
                "factors": list(item.order_vector),
                "obstruction_checked": True,
                "object": _serialize_object(item.obj),
            }
        )
    payload = {
        "convention": convention_block(window, margin),
        "n": n,
        "start": start,
        "admissible_vectors": [list(p) for p in species_mod.admissible_paths(s, n) if start is None or p[0] == start],
        "realized": paths,
    }
    if args.format == "machine":
        return 0, emit_report("classify-report", payload)
    lines = ["classification at length %d%s" % (n, " from %s" % start if start else "")]
    for p in paths:
        lines.append("  vector %s" % " -> ".join(p["order_vector"]))
        lines.append("    indecomposable (End %d, rad %d); uniserial; factors %s"
                     % (p["certificate"][0], p["certificate"][1], ", ".join(p["factors"])))
    if not paths:
        lines.append("  no realizable vectors")
    return 0, "\n".join(lines) + "\n"


def _parse_quiver(path):
    """(presentation, representation or None, the simples at its nodes)."""
    try:
        pres, rep_obj = parse_presentation(_read(path))
        family = tuple((node, simple_at(pres, node)) for node in pres.nodes)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return pres, rep_obj, family


def cmd_ext_table(args):
    window = _parse_window(args.window, (-8, 8))
    margin = args.margin
    check_window(window, (-args.max_offset, args.max_offset), 1, margin)
    offsets = list(range(-args.max_offset, args.max_offset + 1))
    bases = _parse_interior_labels(args.labels) + ["0", "inf"]
    targets = dict(weyl_simple_family(bases, offsets, window))
    # argparse keeps --max-offset >= 0, so the offset-0 simples are among the targets
    base_family = [(la, targets[la]) for la in (weyl_label(b, 0) for b in bases)]
    entries = []
    all_match = True
    boundary = {("0", "inf"), ("inf", "0")}
    for la, a_obj in base_family:
        base_a, _ = parse_weyl_label(la)
        for base_b in bases:
            for off in offsets:
                b_obj = targets[weyl_label(base_b, off)]
                d = abcat.ExtSpace(a_obj, b_obj).dim()
                if isinstance(base_a, str) or isinstance(base_b, str):
                    key_a = base_a if isinstance(base_a, str) else None
                    key_b = base_b if isinstance(base_b, str) else None
                    expected = 1 if (key_a, key_b) in boundary and off == 0 else 0
                else:
                    expected = 1 if base_a == base_b and off == 0 else 0
                match = d == expected
                all_match = all_match and match
                entries.append(
                    {
                        "from": la,
                        "to": weyl_label(base_b, off),
                        "dim": d,
                        "expected": expected,
                        "match": match,
                    }
                )
    payload = {
        "convention": convention_block(window, margin),
        "offsets": offsets,
        "entries": entries,
        "matches_expected": all_match,
    }
    if args.emit_species:
        labels = []
        table = []
        for la, _ in base_family:
            labels.append(la)
        for e in entries:
            if e["dim"] and e["to"] not in labels:
                labels.append(e["to"])
        for e in entries:
            if e["dim"]:
                table.append((e["from"], e["to"], e["dim"]))
        sp = species_mod.Species(tuple(labels), tuple(table))
        try:
            with open(args.emit_species, "w", encoding="utf-8") as fh:
                fh.write(species_to_text(sp))
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (args.emit_species, exc)) from exc
    if args.format == "machine":
        return (0 if all_match else 1), emit_report("ext-table-report", payload)
    lines = ["extension dimensions on window %s (twist offsets %d..%d)" % (list(window), offsets[0], offsets[-1])]
    for e in entries:
        flag = "" if e["match"] else "   <- deviates (expected %d)" % e["expected"]
        if e["dim"] or not e["match"]:
            lines.append("  %s -> %s : %d%s" % (e["from"], e["to"], e["dim"], flag))
    lines.append("table %s the expected pattern" % ("matches" if all_match else "DEVIATES from"))
    return (0 if all_match else 1), "\n".join(lines) + "\n"


def cmd_weyl_module(args):
    key = _catalog_key(args)
    window = _parse_window(args.window, tuple(w + key.twist for w in default_window(args.n)))
    mod = catalog_module(key, window, args.margin)
    bad = validate(mod)
    if bad:
        return 1, "internal validation failed: %s\n" % "; ".join(bad)
    header = "# %s; expected factors: %s\n" % (key.describe(), ", ".join(expected_factors(key)))
    if args.format == "machine":
        return 0, gradedrep_to_text(mod)
    return 0, header + gradedrep_to_text(mod)


def cmd_verify_weyl(args):
    alphas = _parse_interior_labels(args.alphas)
    window = _parse_window(args.window, None)
    report = verify_theorem(args.n_max, alphas=alphas, window=window, margin=args.margin)
    payload = {
        "convention": convention_block(window, args.margin),
        "n_max": report.n_max,
        "windows": [[n, list(w)] for n, w in report.windows],
        "ok": report.ok,
        "results": [
            {
                "key": r.key.describe(),
                "ok": r.ok,
                "checks": [[name, ok, detail] for name, ok, detail in r.checks],
            }
            for r in report.results
        ],
    }
    if args.format == "machine":
        return (0 if report.ok else 1), emit_report("verify-weyl-report", payload)
    lines = ["classification verification up to length %d" % report.n_max]
    for r in report.results:
        lines.append("  [%s] %s" % ("pass" if r.ok else "FAIL", r.key.describe()))
        for name, ok, detail in r.checks:
            if not ok:
                lines.append("      failed %s %s" % (name, detail))
    lines.append("overall: %s" % ("pass" if report.ok else "FAIL"))
    return (0 if report.ok else 1), "\n".join(lines) + "\n"


def cmd_deform(args):
    if args.object:
        text = _read(args.object)
        if not args.labels:
            raise InputError("--object needs --labels with the candidate simple labels")
        try:
            obj = gradedrep_from_text(text)
            labels = [parse_weyl_label(lbl.strip()) for lbl in args.labels.split(",")]
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        problems = validate(obj)
        if problems:
            raise InputError("graded module file: %s" % "; ".join(problems))
        seen = []
        for base, _ in labels:
            if base not in seen:
                seen.append(base)
        family = weyl_simple_family(seen, sorted({twist for _, twist in labels}), obj.window)
    elif args.quiver:
        _, obj, family = _parse_quiver(args.quiver)
        if obj is None:
            raise InputError("quiver file carries no representation block")
    elif args.kind is None:
        raise InputError("deform needs --object, --quiver, or a catalog key via --kind")
    else:
        key = _catalog_key(args)
        window = _parse_window(args.window, tuple(w + key.twist for w in default_window(args.n)))
        obj = catalog_module(key, window, args.margin)
        if key.kind == "euler":
            bases = [key.alpha]
        else:
            bases = ["0", "inf"]
        family = weyl_simple_family(bases, [key.twist], window)
    if abcat.total_dim(obj) == 0:
        raise InputError("the object is zero")
    try:
        ext = canonical_iterated_extension(obj, family)
    except abcat.NotFiniteLengthError as exc:
        raise InputError("the simples of the family do not cover the object: %s" % exc) from exc
    d, back, _ = deformation_roundtrip(ext)
    gamma = d.gamma
    alg = path_algebra(gamma)
    dims_ok = deformation_dimension_check(d)
    nilpotent_ok = alg.radical_power_zero(len(gamma.order_vector))
    same_vector = back.order_vector == ext.order_vector
    iso = True  # deformation_roundtrip produced and verified the isomorphism
    ok = dims_ok and nilpotent_ok and same_vector and iso

    def basis_name(b):
        return "e:%s" % b[1] if b[0] == "e" else "run:%d:%d" % (b[1], b[2])

    products = []
    for b1 in alg.basis:
        for b2 in alg.basis:
            p = alg.product(b1, b2)
            if p is not None:
                products.append([basis_name(b1), basis_name(b2), basis_name(p)])
    psi_entries = []
    for (i, j), entries in d.psi:
        for edge, m in entries:
            if not m.is_zero():
                rowtexts = [
                    ",".join(format_scalar(m[r, c]) for c in range(m.cols)) for r in range(m.rows)
                ]
                psi_entries.append({"from": i, "to": j, "edge": str(edge), "matrix": ";".join(rowtexts)})
    payload = {
        "convention": convention_block(),
        "order_vector": list(ext.order_vector),
        "nodes": list(gamma.nodes),
        "edges": [[i, a, b] for i, a, b in gamma.edges],
        "path_basis": [basis_name(b) for b in alg.basis],
        "products": products,
        "psi": psi_entries,
        "dimension_check": dims_ok,
        "nilpotency_check": nilpotent_ok,
        "roundtrip": {"isomorphic": iso, "order_vector_equal": same_vector},
        "ok": ok,
    }
    if args.format == "machine":
        return (0 if ok else 1), emit_report("deform-report", payload)
    lines = ["deformation data for order vector %s" % " -> ".join(ext.order_vector)]
    lines.append("  nodes: %s" % ", ".join(gamma.nodes))
    lines.append("  path basis (%d elements): %s" % (alg.dim(), ", ".join(basis_name(b) for b in alg.basis)))
    if psi_entries:
        for p in psi_entries:
            lines.append("  correction %d -> %d along %s: %s" % (p["from"], p["to"], p["edge"], p["matrix"]))
    else:
        lines.append("  all corrections vanish (split object)")
    lines.append("  dimension bookkeeping: %s" % ("ok" if dims_ok else "FAIL"))
    lines.append("  nilpotency of the run ideal: %s" % ("ok" if nilpotent_ok else "FAIL"))
    lines.append("  round trip: %s" % ("ok" if (iso and same_vector) else "FAIL"))
    return (0 if ok else 1), "\n".join(lines) + "\n"


# -- argument parsing ------------------------------------------------------------


def _int(text):
    """argparse type: a strict integer literal (linalg.parse_int)."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _int_at_least(low):
    """argparse type: an integer no smaller than low."""

    def parse(text):
        value = _int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uniserial",
        description="exact computations with length categories: criterion checks, classification, "
        "graded Weyl-algebra modules, and path-algebra deformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window=True):
        p.add_argument("--format", choices=["human", "machine"], default="human")
        p.add_argument("--output", help="write the report to this path instead of stdout")
        if window:
            p.add_argument("--margin", type=_int_at_least(0), default=DEFAULT_MARGIN, help="window safety margin")
            p.add_argument("--window", type=_int, nargs=2, metavar=("LO", "HI"), help="weight window bounds")

    p = sub.add_parser("check-uc", help="decide the uniseriality criterion for a species file")
    p.add_argument("species", help="path to a species table file")
    common(p, window=False)

    p = sub.add_parser("classify", help="classify indecomposables of a given length")
    p.add_argument("--quiver", help="quiver presentation file (classify over its node simples)")
    p.add_argument("--start", help="starting label: exact literal, 0, or inf (graded backend)")
    p.add_argument("--twist", type=_int, default=0)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--normalize-alpha", action="store_true", help="shift the label into range, recording the twist")
    common(p)

    p = sub.add_parser("ext-table", help="extension dimensions between the graded simples")
    p.add_argument("--labels", help="comma-separated interior labels (default 1/2)")
    p.add_argument("--max-offset", type=_int_at_least(0), default=2)
    p.add_argument("--emit-species", help="also write the table as a species file")
    common(p)

    p = sub.add_parser("weyl-module", help="emit a catalog module in the graded module format")
    p.add_argument("--kind", choices=["euler", "word"], required=True)
    p.add_argument("--alpha", help="exact label for euler keys")
    p.add_argument("--beta", help="0 or inf for word keys")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--twist", type=_int, default=0)
    p.add_argument("--normalize-alpha", action="store_true")
    common(p)

    p = sub.add_parser("verify-weyl", help="verify the classification pipeline up to a length bound")
    p.add_argument("--n-max", type=_int_at_least(1), required=True)
    p.add_argument("--alphas", help="comma-separated interior labels (default 1/2)")
    common(p)

    p = sub.add_parser("deform", help="deformation data and round-trip check for an object")
    p.add_argument("--object", help="graded module file")
    p.add_argument("--labels", help="comma-separated simple labels for the object file route")
    p.add_argument("--quiver", help="quiver file with a representation block")
    p.add_argument("--kind", choices=["euler", "word"])
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--n", type=_int_at_least(1), default=1)
    p.add_argument("--twist", type=_int, default=0)
    p.add_argument("--normalize-alpha", action="store_true")
    common(p)

    return parser


COMMANDS = {
    "check-uc": cmd_check_uc,
    "classify": cmd_classify,
    "ext-table": cmd_ext_table,
    "weyl-module": cmd_weyl_module,
    "verify-weyl": cmd_verify_weyl,
    "deform": cmd_deform,
}


# The parser of this process: the first main call builds it, later calls reuse it.
_PARSER = []


def main(argv=None) -> int:
    if not _PARSER:
        _PARSER.append(build_parser())
    try:
        args = _PARSER[0].parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status, text = COMMANDS[args.command](args)
    except (InputError, WindowTooSmallError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except CriterionError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        # reported below, once the handler has let go of the frames that hold the command's data
        text = None
    if text is None:
        print("input error: out of memory; the input is too large for this machine", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("input error: cannot write %s: %s" % (args.output, exc), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
