"""Fuzz the exit contract of cli.main: every input exits 0, 1 or 2.

Mutates the argv of the cheap commands (n <= 2, --max-offset <= 1,
windows of width <= 14), the lines of small species, graded module
and quiver files, and the lines of the files weyl-module --output writes
in human and machine format before deform --object reads them back.  No
exception may escape cli.main, and a mutant that is malformed by
construction (an unknown keyword, a non-numeric dimension, a truncated
matrix, a repeated window, dimension, map or Ext line, an unknown flag,
an integer that only Python's int() reads: with a '_' separator or
non-ASCII digits, a byte that is not UTF-8) must exit 2.  The generic
"duplicate" mutation stays contract-only: a repeated relation line is
valid.
"""

import contextlib
import functools
import io
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from uniserial.cli import main
from uniserial.gradedrep import ideal_quotient_rep, to_text
from uniserial.linalg import parse_scalar
from uniserial.weyl import euler_power

SPECIES_TEXT = "specfile species v1\nlabel a\nlabel b\nlabel c\next a b 1\next b c 1\n"
QUIVER_TEXT = (
    "specfile quiver v1\nnode 1\nnode 2\nnode 3\narrow a 1 2\narrow b 2 3\n"
    "relation 1*a.b\nrep dim 1 1\nrep dim 2 1\nrep map a 1x1 2\n"
)
LOOP_TEXT = "specfile quiver v1\nnode 1\narrow x 1 1\nrelation 1*x.x\nrep dim 1 2\nrep map x 2x2 0,1;0,0\n"
MODULE_TEXT = to_text(ideal_quotient_rep(euler_power(parse_scalar("1/2"), 2), (-3, 3)))
FILES = {"species": SPECIES_TEXT, "quiver": QUIVER_TEXT, "gradedrep": MODULE_TEXT}
BASE_FILES = [("species", SPECIES_TEXT), ("quiver", QUIVER_TEXT), ("quiver", LOOP_TEXT), ("gradedrep", MODULE_TEXT)]

ARGVS = [
    ["classify", "--start", "1/2", "--n", "2"],
    ["classify", "--start", "inf", "--n", "1", "--window", "-6", "6", "--twist", "1"],
    ["classify", "--start", "5/2", "--n", "1", "--normalize-alpha", "--format", "machine"],
    ["classify", "--quiver", "{quiver}", "--n", "2", "--start", "1"],
    ["ext-table", "--labels", "1/2", "--max-offset", "1", "--format", "machine"],
    ["weyl-module", "--kind", "euler", "--alpha", "1/3+1/2*i", "--n", "2", "--window", "-7", "7"],
    ["weyl-module", "--kind", "word", "--beta", "0", "--n", "2", "--format", "machine"],
    ["verify-weyl", "--n-max", "1", "--alphas", "1/2"],
    ["deform", "--kind", "word", "--beta", "inf", "--n", "2", "--margin", "1"],
    ["deform", "--kind", "euler", "--alpha", "1/2", "--n", "1", "--format", "machine"],
    ["deform", "--object", "{gradedrep}", "--labels", "1/2@0"],
    ["deform", "--quiver", "{quiver}"],
    ["check-uc", "{species}"],
]
# values stay small: n <= 2, offsets <= 1, windows inside -7..7
VALUES = ["-1", "0", "1", "-7", "7", "1/2", "3/2", "i", "i/0", "1/3+i", "inf", "x", "", "0@0", "1/2@0", "1/2@x", "5@0"]
OPTIONS = [
    ["--twist", "-1"], ["--twist", "1"], ["--margin", "0"], ["--margin", "3"], ["--window", "-7", "7"],
    ["--window", "-2", "5"], ["--window", "3", "-3"], ["--normalize-alpha"], ["--format", "machine"],
    ["--start", "0"], ["--start", "3/2"], ["--n", "1"], ["--n", "2"], ["--alpha", "i"], ["--beta", "inf"],
    ["--kind", "word"], ["--labels", "1/2@0,inf@0"], ["--labels", "0@0,inf@0"], ["--labels", "1/2,0"],
    ["--alphas", "1/2,i"], ["--n-max", "2"], ["--max-offset", "0"], ["--quiver", "{quiver}"],
    ["--object", "{gradedrep}"],
]
TYPED_VALUES = {
    "--n": ["1", "2"],
    "--n-max": ["1", "2"],
    "--max-offset": ["0", "1"],
    "--twist": ["-1", "0", "1"],
    "--margin": ["0", "1", "3"],
    "--window": ["-7", "-3", "0", "3", "7"],
    "--start": ["0", "inf", "1/2", "3/2", "1/3+i", "1"],
    "--alpha": ["1/2", "i", "3/2", "1/3+1/2*i"],
    "--beta": ["0", "inf"],
    "--labels": ["1/2", "1/2@0", "0@0,inf@0", "1/2@0,1/2@1"],
    "--alphas": ["1/2", "i"],
    "--kind": ["euler", "word"],
    "--format": ["human", "machine"],
}
INT_FLAGS = ("--n", "--n-max", "--max-offset", "--twist", "--margin", "--window")
# integer literals that int() reads and the strict lexer rejects
BAD_INTEGERS = {
    "underscore digit": lambda token: token + "_0",
    "non-ASCII digit": lambda token: token.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")),
}
ENTRIES = ["0", "1", "-1", "2", "1/2", "i", "1-i", "i/0"]
LINE_TOKENS = [
    "-1", "0", "1", "2", "x", "1/2", "i", "a", "b", "c", "e(1)", "e(4)", "a.b", "x.x", "0x0", "1x1", "2x2",
    "1,0", "1;0", "dim", "map", "t", "p", "node", "arrow", "rep", "label", "ext", "relation", "window",
]


def run(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for kind, text in files.items():
            paths[kind] = os.path.join(tmp, "input." + kind)
            # a lone surrogate escape \udcXX writes the raw byte XX, which is not UTF-8
            with open(paths[kind], "w", encoding="utf-8", errors="surrogateescape") as fh:
                fh.write(text)
        argv = [a.format(**paths) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(argv)
    assert "Traceback" not in err.getvalue()
    assert status in (0, 1, 2), status
    return status, err.getvalue()


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("value", "value", "value", "add", "drop", "token")))
        pos = draw(st.integers(0, len(argv) - 1)) if argv else 0
        if op == "value":
            spots = [i for i, a in enumerate(argv) if i and not a.startswith("--")]
            if spots:
                i = draw(st.sampled_from(spots))
                flag = argv[i - 1] if argv[i - 1] in TYPED_VALUES else argv[i - 2]
                argv[i] = draw(st.sampled_from(TYPED_VALUES.get(flag, VALUES) + VALUES[:3]))
        elif op == "add":
            argv[pos + 1 : pos + 1] = draw(st.sampled_from(OPTIONS))
        elif op == "drop" and argv:
            end = pos + 1
            while end < len(argv) and not argv[end].startswith("--"):
                end += 1
            del argv[pos:end]
        elif argv:
            argv[pos] = draw(st.sampled_from(VALUES + [o[0] for o in OPTIONS]))
    return argv


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(mutated_argv(), st.sampled_from((None, None, None, None, "unknown flag", "unknown flag", *sorted(BAD_INTEGERS))))
def test_mutated_argv_keeps_exit_contract(argv, malformation):
    if malformation == "unknown flag":
        argv = argv + ["--no-such-flag"]
    elif malformation:
        spots = [
            i for i, a in enumerate(argv)
            if i and re.fullmatch("-?[0-9]+", a) and (argv[i - 1] in INT_FLAGS or argv[i - 2 : i - 1] == ["--window"])
        ]
        if spots:
            argv[spots[-1]] = BAD_INTEGERS[malformation](argv[spots[-1]])
        else:
            malformation = None
    status, err = run(argv, FILES)
    if malformation:
        assert status == 2 and "error" in err, malformation


def _full_matrix(line):
    """Whether a map line ends in a well-formed nonempty RxC matrix."""
    words = line.split()
    if not line.startswith(("map ", "rep map ")) or len(words) < 2:
        return False
    rows, _, cols = words[-2].partition("x")
    if not (rows.isdigit() and cols.isdigit() and int(rows) and int(cols)):
        return False
    body = words[-1].split(";")
    return len(body) == int(rows) and all(len(row.split(",")) == int(cols) for row in body)


def _truncate_matrix(line):
    """Drop the last entry of the matrix at the end of a map line."""
    cut = max(line.rfind(","), line.rfind(";"))
    return line[:cut] if cut > line.rfind(" ") else line.rsplit(None, 1)[0]


def _ends_in_integer(line):
    """Whether a window, dimension or Ext line ends in an ASCII integer."""
    return line.startswith(("window ", "dim ", "rep dim ", "ext ")) and re.fullmatch("-?[0-9]+", line.split()[-1])


def _keyed_once(line):
    """Whether a line may appear once per key: a window, dimension, map or Ext line."""
    return line.startswith(("window ", "dim ", "map ", "rep ", "ext "))


MALFORMATIONS = {
    "unknown keyword": lambda line: True,
    "duplicate line": _keyed_once,
    "non-numeric dimension": lambda line: line.startswith(("dim ", "rep dim ", "ext ")),
    "truncated matrix": _full_matrix,
    "non-UTF-8 byte": lambda line: True,
    **{name: _ends_in_integer for name in BAD_INTEGERS},
}


def mutate_lines(draw, text):
    """One to three random line edits, then at most one malformation.

    Returns (mutated text, malformation name or None).
    """
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("entry", "entry", "replace", "delete", "duplicate", "swap", "truncate")))
        pos = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if not lines:
            break
        if op == "entry" and _full_matrix(lines[pos]):
            head, body = lines[pos].rsplit(None, 1)
            entries = re.split(r"([,;])", body)
            entries[2 * draw(st.integers(0, len(entries) // 2))] = draw(st.sampled_from(ENTRIES))
            lines[pos] = head + " " + "".join(entries)
        elif op == "replace" and lines[pos].split():
            words = lines[pos].split()
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(LINE_TOKENS))
            lines[pos] = " ".join(words)
        elif op == "delete":
            del lines[pos]
        elif op == "duplicate":
            lines.insert(pos, lines[pos])
        elif op == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[pos], lines[other] = lines[other], lines[pos]
        elif op == "truncate":
            lines[pos] = " ".join(lines[pos].split()[:-1])
    malformation = draw(st.sampled_from([None] + sorted(MALFORMATIONS)))
    targets = [i for i, line in enumerate(lines) if malformation and MALFORMATIONS[malformation](line)]
    if malformation and targets:
        pos = draw(st.sampled_from(targets))
        if malformation == "unknown keyword":
            lines.insert(pos + 1, "bogus 1 2")
        elif malformation == "duplicate line":
            lines.insert(pos + 1, lines[pos])
        elif malformation == "non-UTF-8 byte":
            lines[pos] += "\udcff"
        elif malformation == "non-numeric dimension":
            lines[pos] = " ".join(lines[pos].split()[:-1] + ["x"])
        elif malformation in BAD_INTEGERS:
            words = lines[pos].split()
            lines[pos] = " ".join(words[:-1] + [BAD_INTEGERS[malformation](words[-1])])
        else:
            lines[pos] = _truncate_matrix(lines[pos])
    else:
        malformation = None
    return "\n".join(lines) + "\n", malformation


@st.composite
def mutated_file(draw):
    kind, text = draw(st.sampled_from(BASE_FILES))
    return (kind, *mutate_lines(draw, text))


FILE_COMMANDS = {
    "species": [["check-uc", "{species}"]],
    "quiver": [["classify", "--quiver", "{quiver}", "--n", "2"], ["deform", "--quiver", "{quiver}"]],
    "gradedrep": [["deform", "--object", "{gradedrep}", "--labels", "1/2@0"]],
}


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(mutated_file())
def test_mutated_files_keep_exit_contract(mutant):
    kind, text, malformation = mutant
    for argv in FILE_COMMANDS[kind]:
        status, err = run(argv, {kind: text})
        if malformation:
            assert status == 2 and "error" in err, malformation


# weyl-module runs whose --output file deform --object reads back, with the labels it needs
MODULE_RUNS = [
    (["weyl-module", "--kind", "euler", "--alpha", "1/2", "--n", "2"], "1/2@0"),
    (["weyl-module", "--kind", "euler", "--alpha", "1/3+1/2*i", "--n", "2"], "1/3+1/2*i@0"),
    (["weyl-module", "--kind", "word", "--beta", "0", "--n", "2"], "0@0,inf@0"),
]


@functools.cache
def module_output(index, fmt):
    """The file that one of MODULE_RUNS writes with --output, in human or machine format."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.gradedrep")
        status, _ = run(MODULE_RUNS[index][0] + ["--format", fmt, "--output", path], {})
        assert status == 0
        with open(path, encoding="utf-8") as fh:
            return fh.read()


@st.composite
def mutated_module_output(draw):
    index = draw(st.integers(0, len(MODULE_RUNS) - 1))
    text = module_output(index, draw(st.sampled_from(("human", "machine"))))
    return (index, *mutate_lines(draw, text))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(mutated_module_output())
def test_mutated_weyl_module_output_keeps_exit_contract(mutant):
    index, text, malformation = mutant
    argv = ["deform", "--object", "{gradedrep}", "--labels", MODULE_RUNS[index][1]]
    status, err = run(argv, {"gradedrep": text})
    if malformation:
        assert status == 2 and "error" in err, malformation
