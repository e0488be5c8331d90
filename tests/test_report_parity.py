"""Text and ``--json`` report the same facts: each ``Reporter.fact`` prints
its text lines or its JSON record, so a fact of the text output is a record
of the JSON output of the same run, and only the lines on ``TEXT_ONLY`` are
printed as text alone."""

import functools
import json
import os
import sys

import pytest

from treeshift import cli
from treeshift.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# The beginnings of the lines that only the text output has: two section
# headers and two remarks with no JSON record.
TEXT_ONLY = ("forward limits:", "adjoint limits (by level):", "contraction:",
             "boundary truncation:")
# JSON lines of the per-vertex and per-stage output, printed without ``Reporter``.
BULK_RECORDS = ("alpha", "a", None)


class LoggingReporter(cli.Reporter):
    """A ``Reporter`` that logs the kind of each fact and each text-only
    line, and adds itself to ``made``."""

    def __init__(self, made, as_json):
        super().__init__(as_json)
        self.facts, self.texts = [], []
        made.append(self)

    def fact(self, kind, payload, *lines):
        assert lines, f"{kind} has no text line"
        self.facts.append(kind)
        super().fact(kind, payload, *lines)

    def text(self, line):
        self.texts.append(line)
        super().text(line)


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
        code, text, _ = _run(text_argv, monkeypatch, capsys)
        json_code, as_json, out = _run(text_argv + ["--json"], monkeypatch, capsys)
        records = [json.loads(line).get("record") for line in out.splitlines()]
        assert code == json_code, text_argv
        assert text.facts == as_json.facts == [
            kind for kind in records if kind not in BULK_RECORDS], text_argv
        for line in text.texts + as_json.texts:
            assert line.startswith(TEXT_ONLY), (text_argv, line)


def test_the_parity_rounds_run_every_command(tmp_path):
    commands = set()
    for workload in workloads.WORKLOADS:
        manifest = workloads.write_round(workload, 1, 0, str(tmp_path / workload))
        commands |= {instance["command"] for instance in manifest["instances"]}
    assert commands == set(cli.COMMANDS)
