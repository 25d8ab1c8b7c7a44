import ast
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from uniserial import weylcat
from uniserial.cli import main, parse_report
from uniserial.gradedrep import from_text as gradedrep_from_text, ideal_quotient_rep, to_text as gradedrep_to_text
from uniserial.linalg import parse_scalar
from uniserial.species import Species, species_to_text
from uniserial.weyl import euler_power


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def write_species(path, s):
    path.write_text(species_to_text(s))
    return str(path)


KRONECKER_SPECIES = Species(("1", "2"), (("1", "2", 2),))
CHAIN_SPECIES = Species(("a", "b"), (("a", "b", 1),))


A3_FILE = """specfile quiver v1
node 1
node 2
node 3
arrow a 1 2
arrow b 2 3
"""


def test_check_uc_uniserial(tmp_path, capsys):
    p = write_species(tmp_path / "s.species", CHAIN_SPECIES)
    status, out, _ = run(capsys, "check-uc", p)
    assert status == 0
    assert "uniserial" in out


def test_check_uc_violated(tmp_path, capsys):
    p = write_species(tmp_path / "s.species", KRONECKER_SPECIES)
    status, out, _ = run(capsys, "check-uc", p)
    assert status == 1
    assert "double arrow" in out


def test_check_uc_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.species"
    bad.write_text("not a species file\n")
    status, _, err = run(capsys, "check-uc", str(bad))
    assert status == 2
    assert "input error" in err


def test_check_uc_missing_file(capsys):
    status, _, err = run(capsys, "check-uc", "/nonexistent/file.species")
    assert status == 2


def test_check_uc_takes_no_margin(tmp_path, capsys):
    p = write_species(tmp_path / "s.species", CHAIN_SPECIES)
    assert run(capsys, "check-uc", p)[0] == 0
    status, out, err = run(capsys, "check-uc", "--margin", "2", p)
    assert status == 2
    assert out == ""
    assert "error" in err


def test_check_uc_machine_roundtrip(tmp_path, capsys):
    p = write_species(tmp_path / "s.species", KRONECKER_SPECIES)
    status, out, _ = run(capsys, "check-uc", p, "--format", "machine")
    assert status == 1
    name, payload = parse_report(out)
    assert name == "check-uc-report"
    assert payload["uniserial"] is False
    assert payload["pattern"][0] == "double arrow"
    # emit -> parse -> emit is a fixed point
    from uniserial.cli import emit_report

    assert emit_report(name, payload) == out


def test_classify_weyl_inf_start(capsys):
    from uniserial.cli import emit_report

    status, out, _ = run(
        capsys, "classify", "--start", "inf", "--n", "2", "--format", "machine"
    )
    assert status == 0
    name, payload = parse_report(out)
    assert name == "classify-report"
    assert emit_report(name, payload) == out
    assert payload["start"] == "inf@0"
    assert len(payload["realized"]) == 1
    rec = payload["realized"][0]
    assert rec["order_vector"] == ["inf@0", "0@0"]
    assert rec["factors"] == ["inf@0", "0@0"]
    obj = gradedrep_from_text(rec["object"])
    # D/D(dt) has one-dimensional pieces on the whole window
    assert all(obj.dims[w] == 1 for w in obj.slot_ids())


def test_classify_quiver(tmp_path, capsys):
    qf = tmp_path / "a3.quiver"
    qf.write_text(A3_FILE)
    status, out, _ = run(capsys, "classify", "--quiver", str(qf), "--n", "2", "--format", "machine")
    assert status == 0
    _, payload = parse_report(out)
    assert [r["order_vector"] for r in payload["realized"]] == [["1", "2"], ["2", "3"]]


def test_classify_reports_obstructed_vector(tmp_path, capsys):
    qf = tmp_path / "loop.quiver"
    qf.write_text("specfile quiver v1\nnode 1\narrow x 1 1\nrelation 1*x.x\n")
    status, out, _ = run(capsys, "classify", "--quiver", str(qf), "--n", "3", "--format", "machine")
    assert status == 0
    _, payload = parse_report(out)
    # the arrow condition admits the vector but no object realizes it
    assert payload["admissible_vectors"] == [["1", "1", "1"]]
    assert payload["realized"] == []


def test_classify_weyl_object_matches_catalog():
    from uniserial import abcat
    from uniserial.cli import main as cli_main
    from uniserial.weylcat import CatalogKey, catalog_module
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli_main(["classify", "--start", "inf", "--n", "2", "--format", "machine"])
    assert status == 0
    _, payload = parse_report(buf.getvalue())
    obj = gradedrep_from_text(payload["realized"][0]["object"])
    cat = catalog_module(CatalogKey("word", None, "inf", 2), obj.window)
    assert abcat.are_isomorphic(obj, cat)


def test_classify_refuses_criterion_violation(tmp_path, capsys):
    qf = tmp_path / "kron.quiver"
    qf.write_text("specfile quiver v1\nnode 1\nnode 2\narrow a 1 2\narrow b 1 2\n")
    status, out, _ = run(capsys, "classify", "--quiver", str(qf), "--n", "2")
    assert status == 1
    assert "check-uc" in out


def test_classify_n1_simples(capsys):
    status, out, _ = run(capsys, "classify", "--start", "1/2", "--n", "1", "--format", "machine")
    assert status == 0
    _, payload = parse_report(out)
    assert payload["realized"][0]["order_vector"] == ["1/2@0"]


def test_classify_normalize_alpha(capsys):
    status, out, _ = run(
        capsys, "classify", "--start", "5/2", "--n", "1", "--normalize-alpha", "--format", "machine"
    )
    assert status == 0
    _, payload = parse_report(out)
    assert payload["start"] == "1/2@-2"


def test_classify_rejects_out_of_range_alpha(capsys):
    status, _, err = run(capsys, "classify", "--start", "5/2", "--n", "1")
    assert status == 2
    assert "normalize" in err


INTERIOR_LABEL_FLAGS = [["ext-table", "--labels"], ["verify-weyl", "--n-max", "1", "--alphas"]]


@pytest.mark.parametrize("argv", INTERIOR_LABEL_FLAGS, ids=["ext-table", "verify-weyl"])
@pytest.mark.parametrize("label", ["0", "inf", "1/2,inf"])
def test_interior_label_flags_reject_boundary_labels(capsys, argv, label):
    # both commands always add the boundary labels, so naming one is an input error, not a parse error
    status, out, err = run(capsys, *argv, label)
    assert (status, out) == (2, "")
    assert err == "input error: boundary labels are always included; pass only interior labels\n"


@pytest.mark.parametrize("argv", INTERIOR_LABEL_FLAGS, ids=["ext-table", "verify-weyl"])
def test_interior_label_flags_name_no_missing_option(capsys, argv):
    # neither command has --normalize-alpha, so the range message must not suggest it
    status, out, err = run(capsys, *argv, "3/2")
    assert (status, out) == (2, "")
    assert err == "input error: label 3/2 outside the range 0 <= re < 1\n"


def test_ext_table_matches(capsys):
    status, out, _ = run(
        capsys, "ext-table", "--labels", "1/2,1/3+1/2*i", "--max-offset", "1", "--format", "machine"
    )
    assert status == 0
    _, payload = parse_report(out)
    assert payload["matches_expected"] is True
    nonzero = {(e["from"], e["to"]) for e in payload["entries"] if e["dim"]}
    assert ("1/2@0", "1/2@0") in nonzero
    assert ("0@0", "inf@0") in nonzero
    assert ("inf@0", "0@0") in nonzero
    assert len(nonzero) == 4


def test_ext_table_builds_each_simple_once(capsys, monkeypatch):
    # the offset-0 targets are the base family, so each (base, twist) is built once, in weyl_simple_family's order
    built = []
    real = weylcat.simple_rep
    monkeypatch.setattr(weylcat, "simple_rep", lambda *args: built.append(args[:2]) or real(*args))
    status, out, _ = run(capsys, "ext-table", "--labels", "1/2,1/3+1/2*i", "--max-offset", "1", "--format", "machine")
    assert status == 0 and parse_report(out)[1]["matches_expected"] is True
    bases = [parse_scalar("1/2"), parse_scalar("1/3+1/2*i"), "0", "inf"]
    assert built == [(b, off) for off in (-1, 0, 1) for b in bases]


def test_ext_table_emit_species_feeds_check_uc(tmp_path, capsys):
    sp = tmp_path / "weyl.species"
    status, _, _ = run(
        capsys, "ext-table", "--max-offset", "1", "--emit-species", str(sp)
    )
    assert status == 0
    status, out, _ = run(capsys, "check-uc", str(sp))
    assert status == 0
    assert "uniserial" in out


def test_ext_table_emit_species_into_a_directory_exits_2(tmp_path, capsys):
    status, out, err = run(capsys, "ext-table", "--max-offset", "1", "--emit-species", str(tmp_path))
    assert status == 2
    assert out == ""
    assert err.startswith("input error: cannot write") and "Traceback" not in err


def test_ext_table_window_too_small(capsys):
    status, _, err = run(capsys, "ext-table", "--window", "-2", "2")
    assert status == 2
    assert "window" in err


def test_weyl_module_roundtrips(tmp_path, capsys):
    status, out, _ = run(
        capsys, "weyl-module", "--kind", "euler", "--alpha", "1/2", "--n", "2", "--format", "machine"
    )
    assert status == 0
    obj = gradedrep_from_text(out)
    assert all(obj.dims[w] == 2 for w in obj.slot_ids())


def test_weyl_module_word(capsys):
    status, out, _ = run(
        capsys, "weyl-module", "--kind", "word", "--beta", "0", "--n", "1", "--format", "machine"
    )
    assert status == 0
    obj = gradedrep_from_text(out)
    support = [w for w in obj.slot_ids() if obj.dims[w]]
    assert min(support) == 0


def test_weyl_module_window_too_small(capsys):
    status, _, err = run(
        capsys, "weyl-module", "--kind", "euler", "--alpha", "1/2", "--n", "4", "--window", "-3", "3"
    )
    assert status == 2


def test_verify_weyl_passes(capsys):
    from uniserial.cli import emit_report

    status, out, _ = run(capsys, "verify-weyl", "--n-max", "2", "--format", "machine")
    assert status == 0
    name, payload = parse_report(out)
    assert payload["ok"] is True
    assert all(r["ok"] for r in payload["results"])
    assert emit_report(name, payload) == out


def test_verify_weyl_window_too_small(capsys):
    status, _, err = run(capsys, "verify-weyl", "--n-max", "3", "--window", "-3", "3")
    assert status == 2
    assert "window" in err


def test_verify_weyl_human(capsys):
    status, out, _ = run(capsys, "verify-weyl", "--n-max", "1")
    assert status == 0
    assert "overall: pass" in out


def test_deform_catalog_key(capsys):
    from uniserial.cli import emit_report

    status, out, _ = run(
        capsys, "deform", "--kind", "euler", "--alpha", "1/2", "--n", "2", "--format", "machine"
    )
    assert status == 0
    name, payload = parse_report(out)
    assert emit_report(name, payload) == out
    assert payload["ok"] is True
    assert payload["order_vector"] == ["1/2@0", "1/2@0"]
    assert payload["psi"]  # nonsplit: some correction present
    assert payload["roundtrip"]["isomorphic"] is True


def test_deform_simple_trivial(capsys):
    status, out, _ = run(
        capsys, "deform", "--kind", "word", "--beta", "0", "--n", "1", "--format", "machine"
    )
    assert status == 0
    _, payload = parse_report(out)
    assert payload["psi"] == []
    assert payload["path_basis"] == ["e:0@0"]


def test_deform_object_file(tmp_path, capsys):
    mod_path = tmp_path / "mod.gradedrep"
    status, _, _ = run(
        capsys,
        "weyl-module", "--kind", "word", "--beta", "0", "--n", "2",
        "--format", "machine", "--output", str(mod_path),
    )
    assert status == 0
    status, out, _ = run(
        capsys,
        "deform", "--object", str(mod_path), "--labels", "0@0,inf@0", "--format", "machine",
    )
    assert status == 0
    _, payload = parse_report(out)
    assert payload["ok"] is True
    assert payload["order_vector"] == ["0@0", "inf@0"]


def test_deform_reads_the_human_weyl_module_output(tmp_path, capsys):
    # the README sequence: the human report starts with a '#' header line
    mod_path = tmp_path / "m.gradedrep"
    status, _, _ = run(
        capsys,
        "weyl-module", "--kind", "euler", "--alpha", "1/2", "--n", "2", "--output", str(mod_path),
    )
    assert status == 0
    assert mod_path.read_text().startswith("# ")
    status, out, err = run(capsys, "deform", "--object", str(mod_path), "--labels", "1/2@0")
    assert (status, err) == (0, "")
    assert "round trip: ok" in out


def test_deform_quiver_split_rep(tmp_path, capsys):
    qf = tmp_path / "a3rep.quiver"
    qf.write_text(A3_FILE + "rep dim 1 1\nrep dim 3 1\n")
    status, out, _ = run(capsys, "deform", "--quiver", str(qf), "--format", "machine")
    assert status == 0
    _, payload = parse_report(out)
    assert payload["psi"] == []
    assert payload["ok"] is True


def seeded_catalog_keys(rng):
    """CLI flags of four catalog keys: Euler on a rational and on a non-real label, word 0 and word inf; n >= 2 and twist drawn."""
    b = rng.randint(2, 7)
    rational = "%d/%d" % (rng.randint(1, b - 1), b)
    complex_label = "%s+%d/%d*i" % (rational, rng.randint(1, 5), rng.randint(2, 7))
    kinds = [["--kind", "euler", "--alpha", rational], ["--kind", "euler", "--alpha", complex_label],
             ["--kind", "word", "--beta", "0"], ["--kind", "word", "--beta", "inf"]]
    return [kind + ["--n", str(rng.randint(2, 3)), "--twist", str(rng.randint(-2, 2))] for kind in kinds]


def arrow_inside(arrow, window):
    """Whether both ends of the arrow ("t", w): w -> w+1 or ("p", w): w -> w-1 lie in window."""
    kind, w = arrow
    lo, hi = window
    return lo <= w <= hi and lo <= (w + 1 if kind == "t" else w - 1) <= hi


def restricted(text, window):
    """A graded module file cut down to window: its dims there, and the maps with both ends there."""
    lines = []
    for line in text.splitlines():
        word = line.split()
        if word[0] == "window":
            line = "window %d %d" % window
        elif word[0] == "dim" and not window[0] <= int(word[1]) <= window[1]:
            continue
        elif word[0] == "map" and not arrow_inside((word[1], int(word[2])), window):
            continue
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_a_wider_window_leaves_weyl_module_and_deform_unchanged(capsys):
    # classify's Euler objects agree only up to isomorphism across windows, so it is not compared here
    for key in seeded_catalog_keys(random.Random(21)):
        status, default, _ = run(capsys, "weyl-module", *key, "--format", "machine")
        assert status == 0
        lo, hi = window = tuple(int(w) for w in default.splitlines()[1].split()[1:])
        wide = ["--window", str(lo - 2), str(hi + 2)]
        status, out, _ = run(capsys, "weyl-module", *key, *wide, "--format", "machine")
        assert status == 0 and restricted(out, window) == default, key
        reports = []
        for argv in ([], wide):
            status, out, _ = run(capsys, "deform", *key, *argv, "--format", "machine")
            assert status == 0
            reports.append(parse_report(out)[1])
        psi = [{(p["from"], p["to"], ast.literal_eval(p["edge"])): p["matrix"] for p in r.pop("psi")} for r in reports]
        assert reports[0] == reports[1], key
        # psi agrees at every edge both windows have; the wider window can only add entries outside the default one
        assert psi[0] and {k: m for k, m in psi[1].items() if arrow_inside(k[2], window)} == psi[0], key


def test_deform_needs_input(capsys):
    status, _, err = run(capsys, "deform")
    assert status == 2


def test_output_flag(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    status, out, _ = run(
        capsys, "verify-weyl", "--n-max", "1", "--output", str(out_path)
    )
    assert status == 0
    assert out == ""
    assert "overall: pass" in out_path.read_text()


def test_unknown_command(capsys):
    assert main(["bogus"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--start", "0", "--n", "0"],
        ["weyl-module", "--kind", "word", "--beta", "inf", "--n", "0"],
        ["ext-table", "--labels", "1/2", "--max-offset", "-1"],
        ["verify-weyl", "--n-max", "0", "--alphas", "1/2"],
        ["deform", "--kind", "word", "--beta", "0", "--n", "0"],
        ["classify", "--start", "1/2", "--n", "3", "--window", "-1", "1", "--margin", "-3"],
        ["classify", "--start", "1/2", "--n", "1", "--window", "a", "3"],
        ["ext-table", "--max-offset", "0", "--window", "-8", "b"],
        ["weyl-module", "--kind", "word", "--beta", "0", "--n", "1", "--window", "x", "5"],
        ["verify-weyl", "--n-max", "1", "--window", "-5", "5.0"],
        ["deform", "--kind", "word", "--beta", "0", "--n", "1", "--window", "1/2", "6"],
        ["deform", "--object", "{module}", "--labels", "1/2"],
        ["deform", "--object", "{module}", "--labels", "1/2@x"],
        ["deform", "--object", "{module}", "--labels", "5@0"],
        ["deform", "--object", "{module}", "--labels", "0@0"],
        ["weyl-module", "--kind", "euler", "--alpha", "1", "--n", "1", "--normalize-alpha"],
        ["weyl-module", "--kind", "euler", "--alpha", "i/0", "--n", "1"],
        ["classify", "--quiver", "{quiver}", "--n", "1", "--start", "7"],
        ["ext-table", "--labels", "1/3", "--max-offset", "100000000000"],
        ["ext-table", "--labels", "", "--max-offset", "1"],
        ["verify-weyl", "--n-max", "1", "--alphas", ""],
        ["ext-table", "--labels", "1/2,1/2", "--max-offset", "1", "--emit-species", "{module}.species"],
        ["ext-table", "--labels", "1/2,2/4", "--max-offset", "1"],
        ["verify-weyl", "--n-max", "1", "--alphas", "1/2,2/4"],
    ],
    ids=[
        "classify-n0",
        "weyl-module-n0",
        "ext-table-negative-offset",
        "verify-weyl-n-max0",
        "deform-n0",
        "classify-negative-margin",
        "classify-window-not-int",
        "ext-table-window-not-int",
        "weyl-module-window-not-int",
        "verify-weyl-window-not-int",
        "deform-window-not-int",
        "deform-label-without-twist",
        "deform-label-bad-twist",
        "deform-label-out-of-range",
        "deform-labels-do-not-cover",
        "normalize-integer-label",
        "imaginary-over-zero",
        "classify-quiver-unknown-start",
        "ext-table-huge-offset-window-too-small",
        "ext-table-empty-labels",
        "verify-weyl-empty-alphas",
        "ext-table-repeated-label",
        "ext-table-repeated-value",
        "verify-weyl-repeated-value",
    ],
)
def test_rejects_empty_lengths_and_negative_offsets(tmp_path, capsys, argv):
    module = tmp_path / "e2.gradedrep"
    module.write_text(gradedrep_to_text(ideal_quotient_rep(euler_power(parse_scalar("1/2"), 2), (-4, 4))))
    quiver = tmp_path / "a3.quiver"
    quiver.write_text(A3_FILE)
    status, out, err = run(capsys, *[a.format(module=module, quiver=quiver) for a in argv])
    assert status == 2
    assert out == ""
    assert "error" in err
    assert not (tmp_path / "e2.gradedrep.species").exists()


# the simple 1/2 at twist 0 on the window (-2, 2)
SIMPLE_MODULE = (
    "specfile gradedrep v1\nwindow -2 2\ndim -2 1\ndim -1 1\ndim 0 1\ndim 1 1\ndim 2 1\n"
    "map t -2 1x1 -1/2\nmap t -1 1x1 1/2\nmap t 0 1x1 1\nmap t 1 1x1 1\n"
    "map p -1 1x1 1\nmap p 0 1x1 1\nmap p 1 1x1 3/2\nmap p 2 1x1 5/2\n"
)
MALFORMED_FILES = {
    "map-kind": ("gradedrep", "specfile gradedrep v1\nwindow -1 1\ndim 0 1\ndim 1 1\nmap q 0 1x1 1\n"),
    "weight-outside-window": ("gradedrep", "specfile gradedrep v1\nwindow -1 1\ndim 2 1\n"),
    "duplicate-label": ("species", "specfile species v1\nlabel a\nlabel a\n"),
    "window-without-bounds": ("gradedrep", "specfile gradedrep v1\nwindow\n"),
    "commutation-fails": ("gradedrep", "specfile gradedrep v1\nwindow -1 1\ndim 0 1\n"),
    "zero-object": ("gradedrep", "specfile gradedrep v1\nwindow -1 1\n"),
    "empty-matrix-with-entries": ("gradedrep", "specfile gradedrep v1\nwindow -1 1\nmap t 0 0x0 5\n"),
    "negative-rep-dim": ("quiver", A3_FILE + "rep dim 1 -1\n"),
    "rep-dim-without-value": ("quiver", A3_FILE + "rep dim\n"),
    "rep-map-unknown-arrow": ("quiver", A3_FILE + "rep dim 1 1\nrep map c 1x1 1\n"),
    "relation-unknown-node": ("quiver", A3_FILE + "relation e(4)\nrep dim 1 1\n"),
    "relation-kills-a-simple": ("quiver", A3_FILE + "relation e(3)\nrep dim 1 1\n"),
    "repeated-window": ("gradedrep", SIMPLE_MODULE + "window -2 2\n"),
    "repeated-dim": ("gradedrep", SIMPLE_MODULE + "dim 0 1\n"),
    "repeated-map": ("gradedrep", SIMPLE_MODULE + "map t 0 1x1 1\n"),
    "repeated-rep-dim": ("quiver", A3_FILE + "rep dim 1 1\nrep dim 1 1\n"),
    "repeated-rep-map": ("quiver", A3_FILE + "rep dim 1 1\nrep dim 2 1\nrep map a 1x1 1\nrep map a 1x1 1\n"),
    "repeated-ext": ("species", "specfile species v1\nlabel a\nlabel b\next a b 1\next a b 1\n"),
    "relation-two-paths": ("quiver", A3_FILE + "relation a*b\nrep dim 1 1\n"),
    "non-utf8-species": ("species", b"specfile species v1\nlabel \xff\n"),
    "non-utf8-quiver": ("quiver", A3_FILE.encode() + b"rep dim 1 1\n# \xff\n"),
    "non-utf8-gradedrep": ("gradedrep", SIMPLE_MODULE.encode().replace(b"map p 2", b"map p \xb2")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_object_and_species_files_exit_2(tmp_path, capsys, case):
    kind, text = MALFORMED_FILES[case]
    path = tmp_path / ("input." + kind)
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if kind == "species":
        argv = ["check-uc", str(path)]
    elif kind == "quiver":
        argv = ["deform", "--quiver", str(path)]
    else:
        argv = ["deform", "--object", str(path), "--labels", "1/2@0"]
    status, _, err = run(capsys, *argv)
    assert status == 2
    assert "error" in err


def test_running_out_of_memory_exits_2_with_one_line():
    # one child, with an address-space limit of its own, asked for an 800001-weight window
    limit = 128 * 2**20
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["weyl-module", "--kind", "word", "--beta", "0", "--n", "1", "--window", "-400000", "400000"]
    child = subprocess.run(
        [sys.executable, "-m", "uniserial.cli"] + argv,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=120,
    )
    assert child.returncode == 2
    assert child.stdout == ""
    # one line, so no traceback
    assert child.stderr == "input error: out of memory; the input is too large for this machine\n"
