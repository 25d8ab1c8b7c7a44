"""Outside-in tracer for the uniserial layers.

The tracer wraps the public functions of each package module at every
module-level name binding: the home module and every module that imported
the name (``abcat``, ``itext``, ``species``, ``weylcat`` and ``cli`` import
``linalg``/``abcat`` names directly, so patching only the home module would
miss their calls).  The ``ExtSpace`` constructor is timed by patching the
class's ``__init__``.  Elimination systems are recorded at the kernel
(``linalg._rref_rows``): shape, nonzeros in, rank out.

Spans ``(name, group, start, end, parent)`` are kept in memory and written
out at the end of a run.  A span's self time is its duration minus the part
covered by its direct children; a group's inclusive time sums the spans that
have no ancestor in the same group.  Nothing in the package is edited:
``install`` swaps bindings and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# span group -> (home module, public names).  The abcat module is split into
# the sub-layers the certificates and constraint builders live in.
LAYERS = {
    "linalg": ("linalg", ["rref", "rank", "kernel_basis", "solve", "solve_matrix",
                          "column_space_basis", "in_span", "inverse", "algebra_radical"]),
    "weyl": ("weyl", ["normal_form", "euler", "euler_power", "alternating_word", "theta",
                      "to_theta_form", "theta_times", "format_weyl", "parse_weyl"]),
    "gradedrep": ("gradedrep", ["validate", "ideal_quotient_rep", "twist_rep", "simple_rep",
                                "format_matrix", "parse_matrix", "to_text", "from_text"]),
    "quiverrep": ("quiverrep", ["simple_at", "format_relation", "parse_presentation", "to_text"]),
    "abcat.hom": ("abcat", ["hom_basis"]),
    "abcat.ext": ("abcat", ["ext1_basis", "realize_extension", "extract_class", "pullback_extension"]),
    "abcat.cert": ("abcat", ["end_algebra_dims", "is_indecomposable", "are_isomorphic"]),
    "abcat.peel": ("abcat", ["socle", "composition_series", "is_uniserial"]),
    "abcat.obj": ("abcat", ["change_basis", "direct_sum", "sub_object", "quotient_object", "kernel",
                            "image", "fiber_product", "amalgamated_sum"]),
    "species": ("species", ["species_of", "uc_check", "admissible_paths", "realize_vector",
                            "classify", "species_to_text", "species_from_text"]),
    "itext": ("itext", ["is_morphism_of_iterated_extensions", "canonical_iterated_extension",
                        "filtration_of", "cofiltration_from_filtration", "splice", "extension_classes",
                        "extension_type", "path_algebra", "to_deformation", "deformation_roundtrip",
                        "from_deformation", "deformation_total_object", "deformation_dimension_check"]),
    "weylcat": ("weylcat", ["required_window", "check_window", "default_window", "parse_weyl_label",
                            "weyl_simple_family", "normalize_alpha", "catalog_module", "expected_factors",
                            "euler_tower_class", "verify_key", "verify_theorem"]),
    "cli": ("cli", ["main", "cmd_check_uc", "cmd_classify", "cmd_ext_table", "cmd_weyl_module",
                    "cmd_verify_weyl", "cmd_deform"]),
    "cli.parse": ("cli", ["build_parser"]),
    "cli.report": ("cli", ["emit_report", "parse_report"]),
}

# functions whose repeated inputs within a pass are counted
REPEAT_GROUPS = ("abcat.hom", "abcat.cert")
# serializers that count as report emission when cli calls them
REPORT_VIA_CLI = ("cli.emit_report", "gradedrep.to_text", "quiverrep.to_text")

# elimination-system size buckets, in cells (rows * cols)
TINY_CELLS = 1  # the 1x1 / 1x0 / 0x0 swarm
LARGE_CELLS = 4096  # e.g. the 252x135 hom systems


def _layer(group: str) -> str:
    return group.split(".")[0]


def _args_key(args):
    try:
        hash(args)
    except TypeError:
        return tuple(id(a) for a in args)
    return args


class Tracer:
    """Span recorder for one process; ``install`` it around traced passes."""

    def __init__(self, pkg_modules):
        # pkg_modules: {"linalg": module, ...} for every uniserial submodule
        self.mods = pkg_modules
        self.spans = []  # [name, group, start, end, parent, via, outer_group, outer_name]
        self.systems = []  # (rows, cols, nnz, rank, seconds, span index)
        self.repeats = defaultdict(lambda: [0, 0])  # group -> [calls, repeated]
        self.realized = [0, 0]  # [realize_vector calls, realized]
        self._seen = defaultdict(set)
        self._stack = []
        self._active = defaultdict(int)
        self._patched = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _enter(self, name, group, via):
        active = self._active
        span = [name, group, 0.0, 0.0, self._stack[-1] if self._stack else -1, via,
                active[group] == 0, active[name] == 0]
        active[group] += 1
        active[name] += 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _leave(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()
        self._active[span[1]] -= 1
        self._active[span[0]] -= 1

    def open_span(self, name, group):
        """Open a span from the benchmark itself (one op); close it with close_span."""
        return self._enter(name, group, "bench")

    def close_span(self, span):
        self._leave(span)

    def _wrap(self, func, name, group, via):
        enter, leave = self._enter, self._leave
        observe = self._observer(name, group)

        def traced(*args, **kwargs):
            span = enter(name, group, via)
            try:
                result = func(*args, **kwargs)
            finally:
                leave(span)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def _observer(self, name, group):
        if group in REPEAT_GROUPS:
            seen, counts = self._seen[name], self.repeats[group]

            def repeat(args, _result):
                key = _args_key(args)
                counts[0] += 1
                if key in seen:
                    counts[1] += 1
                else:
                    seen.add(key)

            return repeat
        if name == "species.realize_vector":
            def realized(_args, result):
                self.realized[0] += 1
                self.realized[1] += result is not None

            return realized
        if name == "cli.build_parser":
            def wrap_parse_args(_args, parser):
                parser.parse_args = self._wrap(parser.parse_args, "cli.parse_args", "cli.parse", "cli")

            return wrap_parse_args
        return None

    def _rref_rows(self, func):
        systems, stack = self.systems, self._stack

        def traced(rows, cols):
            nnz = sum(1 for r in rows for x in r if x)
            t0 = time.perf_counter()
            pivots = func(rows, cols)
            systems.append((len(rows), cols, nnz, len(pivots), time.perf_counter() - t0,
                            stack[-1] if stack else -1))
            return pivots

        return traced

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        targets = {}
        for group, (home, names) in LAYERS.items():
            for fname in names:
                targets[id(getattr(self.mods[home], fname))] = ("%s.%s" % (home, fname), group)
        for mod_name, mod in self.mods.items():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None:
                    self._set(mod, attr, self._wrap(value, hit[0], hit[1], mod_name))
        linalg = self.mods["linalg"]
        self._set(linalg, "_rref_rows", self._rref_rows(linalg._rref_rows))
        ext_cls = self.mods["abcat"].ExtSpace
        self._set(ext_cls, "__init__", self._wrap(ext_cls.__init__, "abcat.ExtSpace", "abcat.ext", "abcat"))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def new_pass(self):
        """Reset the per-pass counters: repeats are counted within one pass."""
        for seen in self._seen.values():
            seen.clear()
        for counts in self.repeats.values():
            counts[:] = [0, 0]
        self.realized[:] = [0, 0]

    # -- summarizing ---------------------------------------------------------

    def summary(self, first_span=0, first_system=0):
        """Per-layer metrics over spans[first_span:] and systems[first_system:]."""
        spans = self.spans[first_span:]
        child_cover = defaultdict(float)
        for s in spans:
            if s[4] >= first_span:
                child_cover[s[4]] += s[3] - s[2]
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        max_call = defaultdict(float)
        report_s = 0.0
        for i, s in enumerate(spans, start=first_span):
            name, group, t0, t1, _, via, outer_group, outer_name = s
            dur = t1 - t0
            own = dur - child_cover[i]
            for key in {group, _layer(group)}:
                self_s[key] += own
            self_s[name] += own
            if outer_group:
                incl_s[group] += dur
                calls[group] += 1
                max_call[group] = max(max_call[group], dur)
            if outer_name:
                incl_s[name] += dur
            if via == "cli" and name in REPORT_VIA_CLI and outer_name:
                report_s += dur
        systems = self.systems[first_system:]
        cells = sum(r * c for r, c, _, _, _, _ in systems)
        nnz = sum(z for _, _, z, _, _, _ in systems)

        def ratio(num, den):
            return num / den if den else 0.0

        hom_calls, hom_rep = self.repeats["abcat.hom"]
        cert_calls, cert_rep = self.repeats["abcat.cert"]
        return {
            "linalg.calls": calls["linalg"],
            "linalg.self_s": self_s["linalg"],
            "linalg.max_call_s": max_call["linalg"],
            "linalg.systems": len(systems),
            "linalg.cells_in": cells,
            "linalg.nnz_in": nnz,
            "linalg.density": ratio(nnz, cells),
            "linalg.rank_sum": sum(k for _, _, _, k, _, _ in systems),
            "linalg.calls_tiny": sum(1 for r, c, _, _, _, _ in systems if r * c <= TINY_CELLS),
            "linalg.calls_large": sum(1 for r, c, _, _, _, _ in systems if r * c >= LARGE_CELLS),
            "linalg.algebra_radical.self_s": self_s["linalg.algebra_radical"],
            "abcat.cert.calls": calls["abcat.cert"],
            "abcat.cert.incl_s": incl_s["abcat.cert"],
            "abcat.cert.repeat_ratio": ratio(cert_rep, cert_calls),
            "abcat.hom.calls": calls["abcat.hom"],
            "abcat.hom.self_s": self_s["abcat.hom"],
            "abcat.hom.incl_s": incl_s["abcat.hom"],
            "abcat.hom.repeat_ratio": ratio(hom_rep, hom_calls),
            "abcat.ext.calls": calls["abcat.ext"],
            "abcat.ext.self_s": self_s["abcat.ext"],
            "abcat.ext.incl_s": incl_s["abcat.ext"],
            "abcat.peel.incl_s": incl_s["abcat.peel"],
            "abcat.obj.incl_s": incl_s["abcat.obj"],
            "abcat.self_s": self_s["abcat"],
            "species.classify.incl_s": incl_s["species.classify"],
            "species.realized_ratio": ratio(self.realized[1], self.realized[0]),
            "species.self_s": self_s["species"],
            "weylcat.verify_key.incl_s": incl_s["weylcat.verify_key"],
            "weylcat.catalog_module.incl_s": incl_s["weylcat.catalog_module"],
            "weylcat.euler_tower_class.incl_s": incl_s["weylcat.euler_tower_class"],
            "weylcat.self_s": self_s["weylcat"],
            "gradedrep.ideal_quotient_rep.incl_s": incl_s["gradedrep.ideal_quotient_rep"],
            "gradedrep.self_s": self_s["gradedrep"],
            "weyl.incl_s": incl_s["weyl"],
            "itext.incl_s": incl_s["itext"],
            "itext.self_s": self_s["itext"],
            "quiverrep.parse_s": incl_s["quiverrep.parse_presentation"],
            "cli.parse_s": incl_s["cli.parse"],
            "cli.report_s": report_s,
            "cli.self_s": self_s["cli"],
        }

    def histogram(self, first_system=0):
        """Elimination systems by shape, most time first: [["RxC", count, nnz, rank_sum, seconds], ...]."""
        hist = {}
        for r, c, z, k, dt, _ in self.systems[first_system:]:
            cell = hist.setdefault("%dx%d" % (r, c), [0, 0, 0, 0.0])
            cell[0] += 1
            cell[1] += z
            cell[2] += k
            cell[3] += dt
        return sorted(([shape] + cell for shape, cell in hist.items()), key=lambda row: -row[4])

    def write(self, path):
        """Write spans and elimination systems as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": s[0], "group": s[1], "start": s[2],
                                     "end": s[3], "parent": s[4], "via": s[5]}) + "\n")
            for r, c, z, k, dt, parent in self.systems:
                fh.write(json.dumps({"system": [r, c], "nnz": z, "rank": k, "seconds": dt,
                                     "parent": parent}) + "\n")
