"""The benchmark tracer (bench/tracer.py) binds package functions by name.

A name in its LAYERS table that no longer exists makes every traced
benchmark run crash in Tracer.install, so a deletion must fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import from_rows

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("group", sorted(TRACER.LAYERS))
def test_layer_names_resolve(group):
    home, names = TRACER.LAYERS[group]
    module = importlib.import_module("uniserial." + home)
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, (group, missing)


def test_install_and_uninstall_restore_the_package():
    mods = {home: importlib.import_module("uniserial." + home) for home, _ in TRACER.LAYERS.values()}
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    ext_init = mods["abcat"].ExtSpace.__init__
    tracer = TRACER.Tracer(mods)
    try:
        tracer.install()
        assert mods["abcat"].hom_basis is not before["abcat"]["hom_basis"]
    finally:
        tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == before
    assert mods["abcat"].ExtSpace.__init__ is ext_init


def test_tracer_counts_the_kernel_input_rows():
    # the tracer counts nonzeros by iterating each row handed to _rref_rows;
    # a {column: value} row would count its nonzero column indices instead
    mods = {home: importlib.import_module("uniserial." + home) for home, _ in TRACER.LAYERS.values()}
    linalg = mods["linalg"]
    one, two = linalg.ONE, linalg.Scalar(2)
    zero = linalg.ZERO
    m = from_rows([
        [one, zero, two, zero],
        [two, zero, linalg.Scalar(4), zero],
        [zero, zero, zero, one],
    ])
    tracer = TRACER.Tracer(mods)
    try:
        tracer.install()
        basis = linalg.kernel_basis(m)
    finally:
        tracer.uninstall()
    # 3x4, nonzeros 2 + 2 + 1, rank 2 (row 2 is twice row 1)
    assert [system[:4] for system in tracer.systems] == [(3, 4, 5, 2)]
    metrics = tracer.summary()
    assert (metrics["linalg.nnz_in"], metrics["linalg.cells_in"], metrics["linalg.rank_sum"]) == (5, 12, 2)
    assert metrics["linalg.density"] == 5 / 12
    assert len(basis) == 2
