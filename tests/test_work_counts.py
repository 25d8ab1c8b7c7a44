"""Exact work counts of fixed workloads, pinned as the digests pin reports.

The workloads are verify_theorem(4) at pads 0 and 12, the 160 ext_table
dims, one pass each of the benchmark's verify and cli_session workloads
at seed 1, built by bench/workloads.py itself, and the six seeded splices
of conftest.random_splices.  The cli_session pass starts as a new process
would, with no argument parser built.

Each count is taken by wrapping a function for the length of one run:
Matrix products (Matrix.__mul__), the systems handed to the two
elimination kernels (linalg._rref_rows and linalg._rank_rows calls, and
their rows * cols cells), the row reductions of both kernels (their one
reduction step, linalg._eliminate), the hom_basis and is_uniserial calls,
the ExtSpaces built, the core windows built (GradedRep._find_core), the
trace_product calls of the End certificate, the cli.build_parser calls
and the relation checks (Rep._evaluate_relations calls: an object
evaluates its relations once and keeps the answer, so a later
Rep.violations call is a lookup and is not counted).
These counts are the same on every run and under every PYTHONHASHSEED,
so they show a change of work that a timing on a noisy host cannot.  Scalar results are left out: how many
_reduced calls a run makes depends on what earlier calls left cached.

A change that moves a count re-pins it.  `python tests/test_work_counts.py`
prints the table in the form of PINNED below, then each cell that differs
from PINNED as old -> new.
"""

import importlib
import importlib.util
import random
import tempfile
from pathlib import Path

import pytest

from conftest import random_splices
from uniserial import abcat, cli, gradedrep, linalg, quiverrep, weylcat
from uniserial.gradedrep import GradedRep, simple_rep
from uniserial.linalg import parse_scalar
from uniserial.weylcat import verify_theorem

COUNTS = (
    "Matrix products",
    "_rref_rows calls",
    "_rref_rows cells",
    "row reductions",
    "_rank_rows calls",
    "_rank_rows cells",
    "hom_basis calls",
    "is_uniserial calls",
    "ExtSpaces built",
    "core builds",
    "trace_product calls",
    "build_parser calls",
    "relation checks",
)
LABELS = (parse_scalar("1/2"), parse_scalar("1/3+1/2*i"))


def verify_pass(pad):
    """verify_theorem(4) on the two labels, window widened by pad."""
    report = verify_theorem(4, alphas=LABELS, window_pad=pad)
    assert report.ok


def ext_table():
    """The 160 ExtSpace(a, b).dim() calls of the ±2-twist table on windows (-8, 8) and (-10, 10)."""
    bases = LABELS + ("0", "inf")
    for window in ((-8, 8), (-10, 10)):
        targets = [simple_rep(b, off, window) for b in bases for off in range(-2, 3)]
        for a in (simple_rep(b, 0, window) for b in bases):
            for y in targets:
                abcat.ExtSpace(a, y).dim()


WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_verify_pass():
    """One pass of the benchmark's seed-1 verify workload: the 12 keys n <= 3 on labels 1/3 and 1/3+1/3*i."""
    ops, pass_check = load_workloads().build("verify", {"weylcat": weylcat, "linalg": linalg}, random.Random(1), None)
    assert [op.label for op in ops[:2]] == ["euler 1/3 n=1 twist=0", "euler 1/3+1/3*i n=1 twist=0"]
    outcomes = [op.judge(op.run()) for op in ops]
    assert outcomes == ["ok"] * 12 and pass_check(outcomes) == []


def bench_cli_session_pass():
    """One pass of the benchmark's seed-1 cli_session workload: 41 cli.main calls over all six commands."""
    with tempfile.TemporaryDirectory() as workdir:
        ops, pass_check = load_workloads().build("cli_session", {"cli": cli, "gradedrep": gradedrep},
                                                 random.Random(1), workdir)
        outcomes = [op.judge(op.run()) for op in ops]
    assert outcomes == ["ok"] * 41 and pass_check(outcomes) == []


def splices():
    """The six seeded splices of Weyl iterated extensions, their pool realized first."""
    for e_sub, e_quot, spliced in random_splices():
        assert spliced.order_vector == e_quot.order_vector + e_sub.order_vector


WORKLOADS = {
    "verify_theorem(4) pad 0": lambda: verify_pass(0),
    "verify_theorem(4) pad 12": lambda: verify_pass(12),
    "ext_table 160 dims": ext_table,
    "bench verify seed 1": bench_verify_pass,
    "bench cli_session seed 1": bench_cli_session_pass,
    "splice six seeded": splices,
}

PINNED = {
    "verify_theorem(4) pad 0": (1478, 134, 26213, 949, 842, 3430, 0, 0, 138, 80, 160, 0, 32),
    "verify_theorem(4) pad 12": (4166, 134, 135053, 1501, 1922, 8326, 0, 0, 138, 80, 160, 0, 32),
    "ext_table 160 dims": (0, 0, 0, 56, 354, 288, 0, 0, 160, 8, 0, 0, 0),
    "bench verify seed 1": (852, 72, 6559, 357, 487, 1206, 0, 0, 96, 52, 80, 0, 24),
    "bench cli_session seed 1": (1987, 367, 1529, 116, 436, 211, 21, 0, 177, 36, 86, 1, 89),
    "splice six seeded": (1154, 624, 9078, 145, 312, 2512, 0, 0, 9, 24, 0, 0, 6),
}


def count_work(run):
    """The COUNTS of one call of run(), in order."""
    counts = dict.fromkeys(COUNTS, 0)

    def counted(name, real, cells=None):
        def wrapper(*args):
            counts[name] += 1
            if cells is not None:
                rows, cols = args
                counts[cells] += len(rows) * cols
            return real(*args)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg.Matrix, "__mul__", counted("Matrix products", linalg.Matrix.__mul__))
        for kernel in ("_rref_rows", "_rank_rows"):
            real = getattr(linalg, kernel)
            mp.setattr(linalg, kernel, counted(kernel + " calls", real, kernel + " cells"))
        mp.setattr(abcat, "hom_basis", counted("hom_basis calls", abcat.hom_basis))
        mp.setattr(abcat, "is_uniserial", counted("is_uniserial calls", abcat.is_uniserial))
        mp.setattr(abcat.ExtSpace, "__init__", counted("ExtSpaces built", abcat.ExtSpace.__init__))
        mp.setattr(GradedRep, "_find_core", counted("core builds", GradedRep._find_core))
        mp.setattr(abcat, "trace_product", counted("trace_product calls", abcat.trace_product))
        mp.setattr(cli, "build_parser", counted("build_parser calls", cli.build_parser))
        mp.setattr(cli, "_PARSER", [])
        mp.setattr(linalg, "_eliminate", counted("row reductions", linalg._eliminate))
        mp.setattr(quiverrep.Rep, "_evaluate_relations", counted("relation checks", quiverrep.Rep._evaluate_relations))
        run()
    return tuple(counts[name] for name in COUNTS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_are_pinned(name):
    assert dict(zip(COUNTS, count_work(WORKLOADS[name]))) == dict(zip(COUNTS, PINNED[name]))


if __name__ == "__main__":
    table = {name: count_work(run) for name, run in WORKLOADS.items()}
    print("PINNED = {")
    for name, counts in table.items():
        print("    %r: %r," % (name, counts))
    print("}")
    print("# columns: %s" % ", ".join(COUNTS))
    for name, counts in table.items():
        for count, old, new in zip(COUNTS, PINNED.get(name, (None,) * len(COUNTS)), counts):
            if old != new:
                print("# %s, %s: %s -> %s" % (name, count, old, new))
