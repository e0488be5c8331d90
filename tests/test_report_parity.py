"""Text and ``--json`` report the same facts, and nothing else: every line a
run prints comes from ``Reporter.fact`` (a fact's text lines, or its one JSON
record) or from ``Reporter.rows`` (a fact's bulk rows under their header, or
one JSON line per row).  So a fact of the text output is a record of the JSON
output of the same run, and either stdout is exactly what the reporter was
given to print."""

import ast
import functools
import inspect
import json
import os
import sys

import pytest

from treeshift import cli
from treeshift.cli import main
from treeshift.records import dumps_sorted

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# The records of ``Reporter.rows``: the per-vertex limits and the stage lines,
# which carry no "record" key.
ROW_RECORDS = ("alpha", "a", None)


class LoggingReporter(cli.Reporter):
    """A ``Reporter`` that logs the kind of each fact, the header of each
    rows call and every line it prints, and adds itself to ``made``."""

    def __init__(self, made, as_json):
        super().__init__(as_json)
        self.facts, self.headers, self.printed = [], [], []
        made.append(self)

    def fact(self, kind, payload, *lines):
        assert lines, f"{kind} has no text line"
        self.facts.append(kind)
        self.printed += [dumps_sorted({"record": kind, **payload})] if self.as_json else lines
        super().fact(kind, payload, *lines)

    def rows(self, header, json_lines, text_lines):
        json_lines, text_lines = list(json_lines), list(text_lines)
        assert json_lines and text_lines, f"rows under {header!r} are empty"
        self.headers.append(header)
        self.printed += json_lines if self.as_json else [header] * (header is not None) + text_lines
        super().rows(header, json_lines, text_lines)


def _run(argv, monkeypatch, capsys):
    """Exit code, reporter and stdout of one ``main`` call."""
    made = []
    monkeypatch.setattr(cli, "Reporter", functools.partial(LoggingReporter, made))
    code = main(argv)
    (reporter,) = made
    return code, reporter, capsys.readouterr().out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_text_fact_is_a_json_record_of_the_same_run(workload, tmp_path, monkeypatch,
                                                          capsys):
    for instance in workloads.write_round(workload, 1, 0, str(tmp_path))["instances"]:
        text_argv = [a for a in instance["argv"] if a != "--json"]
        code, text, text_out = _run(text_argv, monkeypatch, capsys)
        json_code, as_json, json_out = _run(text_argv + ["--json"], monkeypatch, capsys)
        assert code == json_code, text_argv
        assert text_out == "".join(f"{line}\n" for line in text.printed), text_argv
        assert json_out == "".join(f"{line}\n" for line in as_json.printed), text_argv
        records = [json.loads(line).get("record") for line in json_out.splitlines()]
        assert text.facts == as_json.facts == [
            kind for kind in records if kind not in ROW_RECORDS], text_argv
        assert text.headers == as_json.headers, text_argv


def test_the_parity_rounds_run_every_command(tmp_path):
    commands = set()
    for workload in workloads.WORKLOADS:
        manifest = workloads.write_round(workload, 1, 0, str(tmp_path / workload))
        commands |= {instance["command"] for instance in manifest["instances"]}
    assert commands == set(cli.COMMANDS)


def test_the_reporter_is_the_only_output_path():
    """``Reporter`` has two ways to print, and no ``cmd_*`` function prints
    past them."""
    assert {name for name in vars(cli.Reporter) if not name.startswith("__")} == {"fact", "rows"}
    tree = ast.parse(inspect.getsource(cli))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert {node.name for node in commands} == {
        command.func.__name__ for command in cli.COMMANDS.values()}
    for node in commands:
        prints = [call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Name) and call.func.id == "print"]
        assert not prints, f"{node.name} calls print at line(s) {prints}"


def test_rows_read_only_the_side_they_print(capsys):
    def unread():
        raise AssertionError("the other side was read")
        yield

    cli.Reporter(True).rows("header:", ["{}", "{}"], unread())
    cli.Reporter(False).rows("header:", unread(), ["  x", "  y"])
    cli.Reporter(False).rows(None, unread(), ["  z"])
    assert capsys.readouterr().out == "{}\n{}\nheader:\n  x\n  y\n  z\n"
