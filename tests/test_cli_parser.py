"""cli.main builds its argument parser once per process and keeps no state in it.

The first main call builds the parser through the module name build_parser
and later calls reuse it; importing the module builds none.  The
differential test runs a fixed argv corpus through main twice, once with a
fresh parser per call and once with the shared one, and compares the exit
status, stdout and stderr of every call exactly, in the given order and
reversed.  The corpus is one pass of the benchmark's seed-1 cli_session
workload (all six commands, malformed inputs and the known CLI defects),
the argv mutants of test_cli_fuzz drawn with a fixed seed, and --help.
"""

import argparse
import contextlib
import importlib.util
import io
import os
import random
import shutil

from hypothesis import Phase, given, settings

from test_cli_fuzz import FILES, mutated_argv
from test_work_counts import load_workloads
from uniserial import cli, gradedrep

FUZZ_MUTANTS = 60


def fuzz_argvs():
    """The first FUZZ_MUTANTS argvs that test_cli_fuzz's strategy draws under a fixed seed."""
    drawn = []

    @settings(max_examples=FUZZ_MUTANTS, derandomize=True, database=None, deadline=None, phases=[Phase.generate])
    @given(mutated_argv())
    def collect(argv):
        drawn.append(argv)

    collect()
    return drawn


def corpus(workdir):
    """Zero-argument calls of main, each returning (status, stdout, stderr) or raising; workdir starts empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops, _ = load_workloads().build("cli_session", {"cli": cli, "gradedrep": gradedrep}, random.Random(1), workdir)
    calls = [op.run for op in ops]
    paths = {}
    for kind, text in FILES.items():
        paths[kind] = os.path.join(workdir, "input." + kind)
        with open(paths[kind], "w", encoding="utf-8") as fh:
            fh.write(text)

    def call(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            return status, out.getvalue(), err.getvalue()

        return run

    argvs = [[a.format(**paths) for a in argv] for argv in fuzz_argvs()]
    argvs += [["--help"], ["classify", "--help"], ["deform", "--no-such-flag"], []]
    return calls + [call(argv) for argv in argvs]


def outcomes(calls, fresh, monkeypatch):
    """The outcome of each call, with a new parser per call or one parser shared by all."""
    out = []
    monkeypatch.setattr(cli, "_PARSER", [])
    for run in calls:
        if fresh:
            monkeypatch.setattr(cli, "_PARSER", [])
        try:
            out.append(run())
        except Exception as exc:  # a known defect may still raise; compare it like an outcome
            out.append((type(exc).__name__, str(exc)))
    return out


def test_a_shared_parser_answers_every_call_as_a_fresh_one(tmp_path, monkeypatch):
    workdir = str(tmp_path / "work")
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    for order in (1, -1):
        before = len(builds)
        fresh = outcomes(corpus(workdir)[::order], True, monkeypatch)
        assert len(builds) == before + len(fresh)
        shared = outcomes(corpus(workdir)[::order], False, monkeypatch)
        assert len(builds) == before + len(fresh) + 1
        for i, (a, b) in enumerate(zip(fresh, shared)):
            assert a == b, (order, i)
        # the corpus reaches every exit status, argparse's errors and a report on stdout
        ran = [r for r in fresh if isinstance(r[0], int)]
        assert {r[0] for r in ran} == {0, 1, 2}
        assert any(r[1].startswith("specfile ") for r in ran) and any("usage: uniserial" in r[2] for r in ran)


def test_importing_the_cli_builds_no_parser(monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    spec = importlib.util.spec_from_file_location("uniserial.cli_import_probe", cli.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert built == [] and fresh._PARSER == []


def test_two_main_calls_build_one_parser(monkeypatch, capsys):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    monkeypatch.setattr(cli, "_PARSER", [])
    assert cli.main(["check-uc", "--help"]) == 0
    assert cli.main(["classify", "--n", "two"]) == 2
    assert len(builds) == 1
    assert "usage: uniserial check-uc" in capsys.readouterr().out
