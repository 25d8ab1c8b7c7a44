"""Exact work counts of fixed workloads, pinned as the digests pin reports.

Each count is taken by wrapping a function for the length of one run:
Matrix products (Matrix.__mul__), the systems handed to the two
elimination kernels (linalg._rref_rows and linalg._rank_rows calls, and
their rows * cols cells), the hom_basis and is_uniserial calls, the
ExtSpaces built, the core windows built (GradedRep._find_core) and the
trace_product calls of the End certificate.
These counts are the same on every run and under every PYTHONHASHSEED,
so they show a change of work that a timing on a noisy host cannot.  Scalar results are left out: how many
_reduced calls a run makes depends on what earlier calls left cached.

A change that moves a count re-pins it.  `python tests/test_work_counts.py`
prints the table in the form of PINNED below.
"""

import pytest

from uniserial import abcat, linalg
from uniserial.gradedrep import GradedRep, simple_rep
from uniserial.linalg import parse_scalar
from uniserial.weylcat import verify_theorem

COUNTS = (
    "Matrix products",
    "_rref_rows calls",
    "_rref_rows cells",
    "_rank_rows calls",
    "_rank_rows cells",
    "hom_basis calls",
    "is_uniserial calls",
    "ExtSpaces built",
    "core builds",
    "trace_product calls",
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


WORKLOADS = {
    "verify_theorem(4) pad 0": lambda: verify_pass(0),
    "verify_theorem(4) pad 12": lambda: verify_pass(12),
    "ext_table 160 dims": ext_table,
}

PINNED = {
    "verify_theorem(4) pad 0": (5818, 883, 45501, 837, 2031, 32, 0, 158, 70, 160),
    "verify_theorem(4) pad 12": (16330, 2035, 206901, 1797, 4503, 32, 0, 158, 70, 160),
    "ext_table 160 dims": (0, 34, 0, 320, 288, 0, 0, 160, 8, 0),
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
        run()
    return tuple(counts[name] for name in COUNTS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_are_pinned(name):
    assert dict(zip(COUNTS, count_work(WORKLOADS[name]))) == dict(zip(COUNTS, PINNED[name]))


if __name__ == "__main__":
    print("PINNED = {")
    for name, run in WORKLOADS.items():
        print("    %r: %r," % (name, count_work(run)))
    print("}")
    print("# columns: %s" % ", ".join(COUNTS))
