"""The table pass of ``main`` against argparse: on every argv, ``_read_argv``
either declines or returns the namespace ``_parser().parse_args`` returns,
and every argv the benchmark writes takes the table pass, so a well-formed
call never builds the argparse parser."""

import contextlib
import io
import os
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeshift import cli
from treeshift.cli import main

from test_input_fuzz import ANALYSIS_FLAGS, BACKWARD_FLAGS, FUZZ, WINDOW_FLAGS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("binary-descent", "irregular-windows", "backward-cyclic")


def _argparse_vars(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


def _table_agrees(argv) -> bool:
    """Whether the table pass took ``argv``; it fails the test where it took
    it and argparse reads it otherwise."""
    table = cli._read_argv(list(argv))
    if table is not None:
        assert vars(table) == _argparse_vars(argv), argv
    return table is not None


@pytest.fixture(scope="module")
def round_zero(tmp_path_factory):
    """Every instance argv of round 0 of each workload at seeds 1 and 7, with
    ``--json`` as the benchmark runs them and without it."""
    runs = []
    for workload in WORKLOADS:
        for seed in (1, 7):
            directory = tmp_path_factory.mktemp(f"{workload}-{seed}")
            for inst in workloads.write_round(workload, seed, 0, str(directory))["instances"]:
                argv = inst["argv"]
                runs += [(workload, argv), (workload, [t for t in argv if t != "--json"])]
    return runs


def test_every_workload_argv_takes_the_table_pass(round_zero):
    assert {workload for workload, _ in round_zero} == set(WORKLOADS)
    for _, argv in round_zero:
        assert _table_agrees(argv), argv


def test_a_well_formed_call_never_builds_the_parser(round_zero, monkeypatch, capsys):
    built = []
    parser = cli._parser

    def counted():
        built.append(True)
        return parser()

    monkeypatch.setattr(cli, "_parser", counted)
    for _, argv in round_zero[::2]:  # seeds 1 and 7, with --json
        main(argv)  # the exit code is the benchmark checks' business
        capsys.readouterr()
    assert built == []


T, W, B = "t.json", "w.json", "b.json"
TREE = ["--tree", T, "--weights", W]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["--tree", T], ["analyze", "-h"], ["analyze", "--help"],
    ["analyze"], ["analyze", "--tree"], ["analyze", *TREE, "--dep", "3"],
    ["analyze", *TREE, "--dep=3"], ["analyze", "--tr", T, "--weights", W],
    ["analyze", *TREE, "--"], ["analyze", "--", *TREE], ["analyze", *TREE, "--levels", "-3:3"],
    ["analyze", *TREE, "--depth", "-3"], ["analyze", *TREE, "--json=x"],
    ["analyze", *TREE, "--json="],
    ["validate", "--tree=a=b"], ["validate", "--tree", "a=b"], ["validate", "--tree="],
    ["validate", "--tree", ""], ["analyze", *TREE, "--depth="], ["analyze", *TREE, "--depth", ""],
    ["analyze", *TREE, "--levels="], ["analyze", *TREE, "--depth", "3", "--depth", "0"],
    ["analyze", *TREE, "--depth", "0", "--depth", "3"],
    ["analyze", *TREE, *TREE, "--json", "--json"],
    ["analyze", *TREE, "stray"], ["analyze", "stray", *TREE], ["analyze", *TREE, "-"],
    ["analyze", *TREE, "-x"], ["analyze", "--tree", "--weights", W],
    ["analyze", *TREE, "--backward", B], ["validate", *TREE], ["validate", "--tree", T, "--json"],
    ["cyclic"], ["cyclic", "--backward", B], ["cyclic", "--backward=" + B, "--schedule=8"],
    ["cyclic", "--backward", B, "--window-k", "-1"], ["cyclic", "--backward", B, "--schedule", "x"],
    ["cyclic", "--tree", T], ["cyclic", *TREE, "--backward", B, "--window-k=0"],
    ["analyze", *TREE, "--levels=-8:8", "--breadth", "3", "--tol", "1e-3", "--zero-th", "0",
     "--depth", "9", "--json"],
    ["analyze", *TREE, "--levels", "1:x"], ["analyze", *TREE, "--tol", "nan"],
    ["analyze", *TREE, "--zero-th=inf"], ["analyze", *TREE, "--breadth", " 4 "],
    ["analyze", *TREE, "--breadth", "1_0"], ["cyclic", "--tree=--", "--weights", W],
    ["validate", "--tree=--"], ["analyze", *TREE, "--levels=--"],
])
def test_the_table_pass_agrees_on_awkward_argv(argv):
    _table_agrees(argv)


@pytest.mark.parametrize("argv", [
    ["analyze", *TREE, "--levels", "-3:3"], ["analyze", *TREE, "--depth", "-3"],
    ["analyze", *TREE, "--json=x"], ["analyze", *TREE, "--dep", "3"], ["analyze", "-h"],
    ["analyze", *TREE, "--", "x"], ["analyze", *TREE, "stray"], ["analyze", "--tree", T],
    ["analyze", *TREE, "--depth=0"], ["cyclic", "--backward", B, "--rank-tol", "1e-8"],
    ["cyclic", "--tree=--", "--weights", W], ["validate", "--tree=--"],
])
def test_the_table_pass_declines_what_argparse_must_read(argv):
    assert cli._read_argv(argv) is None


def _spelled(flags, equals):
    """``--flag=value`` or ``--flag value`` for each flag, as ``equals`` says."""
    argv = []
    for (flag, value), eq in zip(flags.items(), equals):
        argv += [f"{flag}={value}"] if eq else [flag, value]
    return argv


@FUZZ
@given(command=st.sampled_from(["validate", "analyze", "asymptote", "adjoint-asymptote",
                                "oracle", "similarity", "cyclic"]),
       flags=st.fixed_dictionaries({}, optional=ANALYSIS_FLAGS),
       equals=st.lists(st.booleans(), min_size=5, max_size=5),
       json=st.booleans())
def test_the_table_pass_agrees_on_fuzzed_tree_flags(command, flags, equals, json):
    if command == "validate":
        flags = {k: v for k, v in flags.items() if k in WINDOW_FLAGS}
        argv = [command, "--tree", T]
    else:
        argv = [command, *TREE]
    argv += _spelled(flags, equals) + ["--json"] * json
    _table_agrees(argv)


@FUZZ
@given(flags=st.fixed_dictionaries({}, optional=BACKWARD_FLAGS),
       equals=st.lists(st.booleans(), min_size=2, max_size=2))
def test_the_table_pass_agrees_on_fuzzed_backward_flags(flags, equals):
    _table_agrees(["cyclic", "--backward", B, *_spelled(flags, equals)])
