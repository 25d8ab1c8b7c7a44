"""The three benchmark workloads: seeded inputs, one op per call, exact checks.

Each workload is built by ``build(name, mods, rng, workdir)`` from the
imported package modules and a seeded ``random.Random``.  It returns a list
of ``Op`` (run in order, once per pass) and a pass-level check.  An op's
``run`` calls the program through module attributes, so a traced pass sees
every call; ``judge`` compares the outcome with the exact expected one and
returns ``"ok"``, ``"known:<defect id>"`` or ``"fail:<reason>"``.
"""

from __future__ import annotations

import contextlib
import io
import os

# Interior labels drawn by the seed.  The pools hold labels with small
# denominators whose length-3 verification costs are within a few percent
# of each other, so that the seed changes the inputs but not the work size.
RATIONAL_LABELS = ("1/2", "1/3", "2/3", "3/4", "1/5", "2/5")
NONREAL_LABELS = ("1/3+1/2*i", "2/3+1/2*i", "1/2+1/3*i", "1/2+2/3*i", "1/3+1/3*i", "1/2*i")

EXT_WINDOWS = ((-8, 8), (-10, 10))
EXT_OFFSETS = (-2, -1, 0, 1, 2)

class Op:
    __slots__ = ("label", "run", "judge")

    def __init__(self, label, run, judge):
        self.label = label
        self.run = run
        self.judge = judge


def build(name, mods, rng, workdir):
    """(ops, pass_check) for one workload; pass_check(outcomes) -> [reasons]."""
    return {"verify": _verify, "ext_table": _ext_table, "cli_session": _cli_session}[name](mods, rng, workdir)


def _labels(rng):
    return rng.choice(RATIONAL_LABELS), rng.choice(NONREAL_LABELS)


def _raised(outcome):
    return isinstance(outcome, BaseException)


# -- verify --------------------------------------------------------------------


def _verify(mods, rng, _workdir):
    weylcat, linalg = mods["weylcat"], mods["linalg"]
    alphas = [linalg.parse_scalar(text) for text in _labels(rng)]
    ops = []
    for n in (1, 2, 3):
        window = weylcat.default_window(n)
        for base in alphas + ["0", "inf"]:
            if isinstance(base, str):
                key = weylcat.CatalogKey("word", None, base, n)
            else:
                key = weylcat.CatalogKey("euler", base, None, n)

            def judge(result, key=key):
                if _raised(result):
                    return "fail:%s raised %r" % (key.describe(), result)
                if result.key != key:
                    return "fail:%s answered for %s" % (key.describe(), result.key.describe())
                bad = [c[0] for c in result.checks if not c[1]]
                return "fail:%s failed %s" % (key.describe(), bad) if bad or not result.checks else "ok"

            ops.append(Op(key.describe(), lambda key=key, window=window: weylcat.verify_key(key, window), judge))

    def pass_check(_outcomes):
        per_n = {}
        for op in ops:
            n = int(op.label.split("n=")[1].split()[0])
            per_n[n] = per_n.get(n, 0) + 1
        return [] if per_n == {1: 4, 2: 4, 3: 4} else ["keys per length %r, expected 4 each" % per_n]

    return ops, pass_check


# -- ext_table -----------------------------------------------------------------


def _ext_table(mods, rng, _workdir):
    gradedrep, linalg = mods["gradedrep"], mods["linalg"]
    abcat = mods["abcat"]
    texts = list(_labels(rng))
    bases = [linalg.parse_scalar(t) for t in texts] + ["0", "inf"]
    names = texts + ["0", "inf"]
    boundary = {("0", "inf"), ("inf", "0")}
    ops = []
    cells = []  # (window, a, b, offset) per op, in op order
    for window in EXT_WINDOWS:
        sources = [gradedrep.simple_rep(base, 0, window) for base in bases]
        targets = [[gradedrep.simple_rep(base, off, window) for off in EXT_OFFSETS] for base in bases]
        for ia, a_obj in enumerate(sources):
            for ib in range(len(bases)):
                for off, b_obj in zip(EXT_OFFSETS, targets[ib]):
                    a_name, b_name = names[ia], names[ib]
                    if a_name in ("0", "inf") or b_name in ("0", "inf"):
                        expected = int((a_name, b_name) in boundary and off == 0)
                    else:
                        expected = int(a_name == b_name and off == 0)
                    label = "Ext(%s@0, %s@%d) on %r" % (a_name, b_name, off, window)

                    def judge(result, expected=expected, label=label):
                        if _raised(result):
                            return "fail:%s raised %r" % (label, result)
                        return "ok" if result == expected else "fail:%s = %r, expected %d" % (label, result, expected)

                    ops.append(Op(label, lambda a=a_obj, b=b_obj: abcat.ExtSpace(a, b).dim(), judge))
                    cells.append((window, a_name, b_name, off))

    def pass_check(outcomes):
        # window stability: the (-8, 8) table equals the (-10, 10) table
        tables = {}
        for (window, a, b, off), value in zip(cells, outcomes):
            tables.setdefault(window, {})[(a, b, off)] = value
        small, large = (tables[w] for w in EXT_WINDOWS)
        moved = sorted(k for k in small if small[k] != large.get(k))
        return ["table moved between windows at %r" % moved[:3]] if moved else []

    return ops, pass_check


# -- cli_session ---------------------------------------------------------------


def _cli_session(mods, rng, workdir):
    cli, gradedrep = mods["cli"], mods["gradedrep"]
    parse_report, emit_report = cli.parse_report, cli.emit_report
    from_text, to_text, validate = gradedrep.from_text, gradedrep.to_text, gradedrep.validate
    # Sizes (table and quiver sizes, lengths) are fixed, so that the seed
    # changes labels, twists and shapes but not the amount of work.
    units = []  # each unit is a list of ops that must run in order

    def path(name):
        return os.path.join(workdir, name)

    def write(name, text):
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path(name)

    def call(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            return status, out.getvalue(), err.getvalue()

        return run

    def machine(out, name):
        """Payload of a machine report that round-trips, else a reason string."""
        try:
            got, payload = parse_report(out)
        except ValueError as exc:
            return "report does not parse: %s" % exc
        if got != name:
            return "report %r, expected %r" % (got, name)
        if emit_report(got, payload) != out:
            return "report does not round-trip"
        return payload

    def add(argv, status, check=None, known=None):
        """Op expecting exit `status` and check(out, err) -> None.

        known = (defect id, predicate) marks an input that hits one of the
        known CLI defects listed in bench/README.md: an outcome matching the
        predicate counts as that known defect, not as a failure, and a fixed
        defect simply passes.
        """
        label = " ".join(a if not a.startswith(workdir) else os.path.basename(a) for a in argv)

        def judge(result):
            if _raised(result):
                reason = "%s raised %s" % (label, type(result).__name__)
            else:
                got, out, err = result
                if got != status:
                    reason = "%s exited %r, expected %d" % (label, got, status)
                else:
                    detail = check(out, err) if check else None
                    if not detail:
                        return "ok"
                    reason = "%s: %s" % (label, detail)
            if known is not None and known[1](result):
                return "known:" + known[0]
            return "fail:" + reason

        return Op(label, call(argv), judge)

    def raises_value_error(result):
        return isinstance(result, ValueError)

    rational, nonreal = _labels(rng)

    # check-uc on generated species tables: two of each shape
    for shape in ("uniserial", "uniserial", "double arrow", "double arrow", "fan-out", "fan-out",
                  "fan-in", "fan-in"):
        labels, table, witness = _species_table(rng, shape)
        text = "specfile species v1\n" + "".join("label %s\n" % x for x in labels)
        text += "".join("ext %s %s %d\n" % e for e in table)
        fname = write("s%d.species" % len(units), text)
        fmt = rng.choice(("human", "machine"))
        units.append([add(["check-uc", fname, "--format", fmt], 0 if shape == "uniserial" else 1,
                          _uc_check(shape, witness, fmt, machine))])

    # classify --quiver on generated quivers, with and without relations
    for kind, k, n in (("chain", 4, 3), ("chain+rel", 4, 3), ("cycle+rel", 3, 3), ("forest", 5, 2),
                       ("violating", 4, 2), ("violating", 3, 3)):
        quiver, expect = _quiver(rng, kind, k)
        fname = write("q%d.quiver" % len(units), quiver)
        units.append([add(["classify", "--quiver", fname, "--n", str(n), "--format", "machine"],
                          1 if expect["violated"] else 0, _classify_quiver_check(expect, n, machine))])

    # classify --start on the graded simples, n <= 3 (interior labels n <= 2)
    for start, n in (("inf", 3), ("0", 3), (rational, 2), (nonreal, 2)):
        twist = rng.choice((-1, 0, 1))
        expected = _weyl_factors(start, n, twist)
        units.append([add(["classify", "--start", start, "--n", str(n), "--twist", str(twist),
                           "--format", "machine"], 0, _classify_start_check(expected, machine))])

    # weyl-module to stdout, checked by a gradedrep round trip
    for argv, n in ((["--kind", "euler", "--alpha", rational], 3),
                    (["--kind", "word", "--beta", rng.choice(("0", "inf"))], 3)):
        units.append([add(["weyl-module"] + argv + ["--n", str(n), "--format", "machine"], 0,
                          _module_check(argv[1] == "euler", n, from_text, to_text, validate))])

    # deform from a catalog key, an emitted module file and a quiver representation
    beta = rng.choice(("0", "inf"))
    units.append([add(["deform", "--kind", "word", "--beta", beta, "--n", "3", "--format", "machine"], 0,
                      _deform_check(_weyl_factors(beta, 3, 0), machine))])
    units.append([add(["deform", "--kind", "euler", "--alpha", nonreal, "--n", "2", "--format", "machine"], 0,
                      _deform_check(_weyl_factors(nonreal, 2, 0), machine))])
    m_machine = path("machine.gradedrep")
    units.append([
        add(["weyl-module", "--kind", "euler", "--alpha", rational, "--n", "2", "--format", "machine",
             "--output", m_machine], 0, _file_check(m_machine, "specfile gradedrep v1")),
        add(["deform", "--object", m_machine, "--labels", rational + "@0", "--format", "machine"], 0,
            _deform_check(_weyl_factors(rational, 2, 0), machine)),
    ])
    rep_quiver, rep_vector = _rep_quiver(rng)
    fname = write("rep.quiver", rep_quiver)
    units.append([add(["deform", "--quiver", fname, "--format", "machine"], 0, _deform_check(rep_vector, machine))])

    # the README sequence: human weyl-module output fed to deform --object
    m_human = path("human.gradedrep")
    units.append([
        add(["weyl-module", "--kind", "euler", "--alpha", nonreal, "--n", "2", "--output", m_human], 0,
            _file_check(m_human, "# euler")),
        add(["deform", "--object", m_human, "--labels", nonreal + "@0"], 0, _human_ok("round trip: ok"),
            known=("deform-human-object", lambda r: not _raised(r) and r[0] == 2)),
    ])

    # small ext-table and verify-weyl calls
    units.append([add(["ext-table", "--labels", rational, "--max-offset", "1", "--format", "machine"], 0,
                      _ext_table_check(rational, machine))])
    units.append([add(["verify-weyl", "--n-max", "1", "--alphas", nonreal, "--format", "machine"], 0,
                      _verify_weyl_check(3, machine))])

    # malformed inputs: the contract exit is 2
    write("bad.species", "specfile species v1\nlabel a\next a b one\n")
    write("bad.quiver", "specfile quiver v1\nnode 1\narrow a 1 9\n")
    for argv in (["check-uc", path("absent.species")],
                 ["check-uc", path("bad.species")],
                 ["classify", "--quiver", path("bad.quiver"), "--n", "2"],
                 ["classify", "--start", rational, "--n", "2", "--window", "-1", "1"],
                 ["weyl-module", "--kind", "euler", "--alpha", "3/2", "--n", "1"],
                 ["deform", "--n", "2"],
                 ["classify", "--start", "inf", "--n", "two"],
                 ["ext-table", "--labels", "0"]):
        units.append([add(argv, 2, _stderr_says("error"))])

    # known defects on invalid lengths and offsets
    units.append([add(["classify", "--start", rng.choice(("0", "inf")), "--n", "0"], 2,
                      known=("classify-n0", raises_value_error))])
    units.append([add(["weyl-module", "--kind", "word", "--beta", rng.choice(("0", "inf")), "--n", "0"], 2,
                      known=("weyl-module-n0", raises_value_error))])
    units.append([add(["ext-table", "--labels", rational, "--max-offset", "-1"], 2,
                      known=("ext-table-negative-offset", raises_value_error))])
    units.append([add(["verify-weyl", "--n-max", "0", "--alphas", rational], 2,
                      known=("verify-weyl-n-max0", lambda r: not _raised(r) and r[0] == 0))])

    rng.shuffle(units)
    return [op for unit in units for op in unit], lambda _outcomes: []


def _species_table(rng, shape):
    """Labels, Ext table and the witness label(s) of one planted shape."""
    k = 5
    labels = ["s%d" % i for i in range(k)]
    order = labels[:]
    rng.shuffle(order)
    # a union of chains over all labels but one, which stays isolated so that
    # a fan can always be planted: each label has at most one successor and
    # one predecessor
    table = []
    for i in range(k - 2):
        if rng.random() < 0.7:
            table.append([order[i], order[i + 1], 1])
    if not table:
        table.append([order[0], order[1], 1])
    has_succ = {a for a, _, _ in table}
    has_pred = {b for _, b, _ in table}
    witness = None
    if shape == "double arrow":
        entry = rng.choice(table)
        entry[2] = 2
        witness = (entry[0], entry[1])
    elif shape == "fan-out":
        a = rng.choice(sorted(has_succ))
        b = rng.choice([x for x in labels if x not in has_pred and x != a and [a, x, 1] not in table])
        table.append([a, b, 1])
        witness = (a,)
    elif shape == "fan-in":
        b = rng.choice(sorted(has_pred))
        a = rng.choice([x for x in labels if x not in has_succ and x != b and [x, b, 1] not in table])
        table.append([a, b, 1])
        witness = (b,)
    return labels, [tuple(e) for e in table], witness


def _uc_check(shape, witness, fmt, machine):
    def check(out, _err):
        if fmt == "human":
            want = "uniserial:" if shape == "uniserial" else "not uniserial: forbidden shape %s" % shape
            return None if out.startswith(want) else "human report %r" % out[:60]
        payload = machine(out, "check-uc-report")
        if isinstance(payload, str):
            return payload
        if payload["uniserial"] != (shape == "uniserial"):
            return "verdict %r" % payload["uniserial"]
        if shape == "uniserial":
            return None if payload["pattern"] is None else "pattern %r" % payload["pattern"]
        pattern = payload["pattern"]
        got = tuple(pattern[1:3]) if shape == "double arrow" else (
            (pattern[1],) if shape == "fan-out" else (pattern[3],))
        return None if pattern[0] == shape and got == witness else "pattern %r" % pattern

    return check


def _quiver(rng, kind, k):
    """Quiver file text on k nodes and the expected classification of its node simples.

    UC holds exactly when no node has two outgoing or two incoming arrows
    (counting multiplicity); then every walk is an admissible vector, and a
    walk is realized unless it runs through a monomial relation.
    """
    nodes = [str(i + 1) for i in range(k)]
    order = nodes[:]
    rng.shuffle(order)
    arrows = []
    if kind in ("chain", "chain+rel", "violating"):
        arrows = [(order[i], order[i + 1]) for i in range(k - 1)]
    elif kind == "cycle+rel":
        arrows = [(order[i], order[(i + 1) % k]) for i in range(k)]
    elif kind == "forest":
        # two chains over all nodes but the last, which carries a loop
        cut = rng.randint(0, k - 3)
        arrows = [(order[i], order[i + 1]) for i in range(k - 2) if i != cut]
        arrows.append((order[-1], order[-1]))
    violated = kind == "violating"
    if violated:
        u, v = rng.choice(arrows)
        arrows.append(rng.choice([(u, v), (u, order[0]) if u != order[0] else (order[-1], v)]))
    names = ["a%d" % i for i in range(len(arrows))]
    succ = {}
    for name, (u, v) in zip(names, arrows):
        succ.setdefault(u, []).append((name, v))
    relations = []
    if kind.endswith("+rel"):
        start = rng.choice([u for u, _ in arrows])
        first, mid = succ[start][0]
        if mid in succ:
            relations.append((first, succ[mid][0][0]))
    lines = ["specfile quiver v1"] + ["node %s" % x for x in nodes]
    lines += ["arrow %s %s %s" % (name, u, v) for name, (u, v) in zip(names, arrows)]
    lines += ["relation 1*%s.%s" % rel for rel in relations]
    return "\n".join(lines) + "\n", {"violated": violated, "nodes": nodes, "succ": succ, "relations": relations}


def _walks(expect, n):
    """(admissible vectors, realized vectors) of length n."""
    admissible, realized = [], []
    relations = set(expect["relations"])

    def extend(vector, arrow_path):
        if len(vector) == n:
            admissible.append(vector)
            if not any(pair in relations for pair in zip(arrow_path, arrow_path[1:])):
                realized.append(vector)
            return
        for name, v in expect["succ"].get(vector[-1], ()):
            extend(vector + [v], arrow_path + [name])

    for node in expect["nodes"]:
        extend([node], [])
    return sorted(admissible), sorted(realized)


def _classify_quiver_check(expect, n, machine):
    def check(out, _err):
        payload = machine(out, "classify-report")
        if isinstance(payload, str):
            return payload
        if expect["violated"]:
            return None if "error" in payload and payload["pattern"] else "refusal %r" % payload
        admissible, realized = _walks(expect, n)
        got_adm = sorted(payload["admissible_vectors"])
        got_real = sorted(r["order_vector"] for r in payload["realized"])
        if got_adm != admissible or got_real != realized:
            return "vectors %r / %r, expected %r / %r" % (got_adm, got_real, admissible, realized)
        bad = [r["order_vector"] for r in payload["realized"] if r["factors"] != r["order_vector"]]
        return "factors differ for %r" % bad if bad else None

    return check


def _weyl_factors(start, n, twist):
    """Expected factor labels, top first, of the length-n catalog module."""
    if start in ("0", "inf"):
        other = {"0": "inf", "inf": "0"}[start]
        return ["%s@%d" % (start if i % 2 == 0 else other, twist) for i in range(n)]
    return ["%s@%d" % (start, twist)] * n


def _classify_start_check(expected, machine):
    def check(out, _err):
        payload = machine(out, "classify-report")
        if isinstance(payload, str):
            return payload
        found = [r["factors"] for r in payload.get("realized", ())]
        return None if found == [expected] else "realized %r, expected [%r]" % (found, expected)

    return check


def _module_check(euler, n, from_text, to_text, validate):
    def check(out, _err):
        try:
            module = from_text(out)
        except ValueError as exc:
            return "module does not parse: %s" % exc
        if to_text(module) != out:
            return "module does not round-trip"
        if validate(module):
            return "module invalid: %s" % validate(module)
        if euler and set(module.dims.values()) != {n}:
            return "euler module dims %r" % sorted(set(module.dims.values()))
        return None

    return check


def _deform_check(expected_vector, machine):
    def check(out, _err):
        payload = machine(out, "deform-report")
        if isinstance(payload, str):
            return payload
        if not payload["ok"] or not payload["roundtrip"]["order_vector_equal"]:
            return "deformation checks failed"
        if payload["order_vector"] != expected_vector:
            return "order vector %r, expected %r" % (payload["order_vector"], expected_vector)
        return None

    return check


def _rep_quiver(rng):
    """A uniserial path representation with nonzero arrow maps."""
    k = 3
    nodes = [str(i + 1) for i in range(k)]
    lines = ["specfile quiver v1"] + ["node %s" % x for x in nodes]
    lines += ["arrow a%d %s %s" % (i, nodes[i], nodes[i + 1]) for i in range(k - 1)]
    lines += ["rep dim %s 1" % x for x in nodes]
    lines += ["rep map a%d 1x1 %d" % (i, rng.randint(1, 3)) for i in range(k - 1)]
    return "\n".join(lines) + "\n", nodes


def _file_check(fname, head):
    def check(out, _err):
        if out:
            return "wrote to stdout despite --output"
        try:
            with open(fname, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return "no output file: %s" % exc
        return None if text.startswith(head) else "output starts %r" % text[:40]

    return check


def _human_ok(marker):
    def check(out, _err):
        return None if marker in out else "human report lacks %r" % marker

    return check


def _ext_table_check(label, machine):
    bases = [label, "0", "inf"]
    boundary = {("0", "inf"), ("inf", "0")}

    def check(out, _err):
        payload = machine(out, "ext-table-report")
        if isinstance(payload, str):
            return payload
        got = {(e["from"], e["to"]): e["dim"] for e in payload["entries"]}
        want = {}
        for a in bases:
            for b in bases:
                for off in (-1, 0, 1):
                    if a in ("0", "inf") or b in ("0", "inf"):
                        d = int((a, b) in boundary and off == 0)
                    else:
                        d = int(a == b and off == 0)
                    want[("%s@0" % a, "%s@%d" % (b, off))] = d
        if got != want or not payload["matches_expected"]:
            return "table differs at %r" % sorted(k for k in want if got.get(k) != want[k])[:3]
        return None

    return check


def _verify_weyl_check(keys, machine):
    def check(out, _err):
        payload = machine(out, "verify-weyl-report")
        if isinstance(payload, str):
            return payload
        results = payload["results"]
        if not payload["ok"] or len(results) != keys or not all(r["ok"] for r in results):
            return "verification %r over %d keys" % (payload["ok"], len(results))
        return None

    return check


def _stderr_says(word):
    def check(_out, err):
        return None if word in err else "stderr %r" % err[:60]

    return check
