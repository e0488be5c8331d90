"""tools/bench_record.py: one file from the plain and traced runs of every
workload, and exit 1 naming a run that fails.  The runs are canned here, so
no benchmark starts."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _line(attempted, failed, correct, **metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}})


def test_every_workload_is_run_plain_then_traced_into_one_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    calls = []

    def run(argv):
        calls.append(argv[1:])
        workload, trace = argv[argv.index("--workload") + 1], argv[argv.index("--trace") + 1]
        index = len(calls)
        if trace == "0":
            return 0, f"workload={workload}\n{_line(10 * index, index, True, analyses_per_s=index)}\n"
        # the traced backward-cyclic run reads a traced output that differs
        return 0, _line(5, 0, workload != "backward-cyclic", **{"trees.children_calls": index})

    monkeypatch.setattr(bench_record, "run", run)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--seed", "7", "--seconds", "8", "--out", str(out)]) == 0
    workloads = bench_record.workload_names()
    assert workloads == ("binary-descent", "irregular-windows", "backward-cyclic")
    assert calls == [[os.path.join("perfbench", "run.py"), "--workload", w, "--seed", "7",
                      "--seconds", "8.0", "--trace", k] for w in workloads for k in "01"]
    record = json.loads(out.read_text())
    assert set(record) == {"commit", "nproc", "python", "seed", "seconds", "notes", "workloads"}
    assert (record["seed"], record["seconds"]) == (7, 8.0)
    assert "subcommand" in record["notes"]
    assert list(record["workloads"]) == sorted(workloads)
    for i, name in enumerate(workloads):
        plain = 2 * i + 1
        assert record["workloads"][name] == {
            "end_to_end": {"analyses_per_s": {"value": plain, "unit": "u"}},
            "per_layer": {"trees.children_calls": {"value": plain + 1, "unit": "u"}},
            "attempted": 10 * plain, "failed": plain,
            "correct": name != "backward-cyclic"}
    assert "irregular-windows --trace 1: correct" in capsys.readouterr().out


def test_a_failed_or_malformed_run_exits_1_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "BENCH.json"
    for reply, says in (((2, _line(1, 0, True)), "exited with code 2"),
                        ((0, "error: no result\n"), "no benchmark result: 'error: no result'"),
                        ((0, ""), "no benchmark result: ''"),
                        ((0, '{"correct": true, "attempted": 1, "failed": 0}'),
                         "no benchmark result")):
        calls = []

        def run(argv, reply=reply):
            calls.append(argv)
            return reply if "--trace" in argv and argv[-1] == "1" else (0, _line(1, 0, True))

        monkeypatch.setattr(bench_record, "run", run)
        assert bench_record.main(["--seed", "1", "--seconds", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: binary-descent --trace 1: ") and says in err, err
        assert len(calls) == 2 and not out.exists()
