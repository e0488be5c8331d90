"""tools/ab_pairs.py: alternating run order and the per-metric summary."""

import importlib.util
import json
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab_pairs", os.path.join(ROOT, "tools", "ab_pairs.py"))
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _result(rate, p90):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"analyses_per_s": {"value": rate, "unit": "1/s"},
                        "latency_p90_ms": {"value": p90, "unit": "ms"}}}


def test_sides_alternate_and_each_metric_counts_its_pairs(tmp_path, monkeypatch, capsys):
    for side in ("base", "head"):
        os.makedirs(tmp_path / side / "perfbench")
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "head" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "analyses_per_s", "better": "higher", "bound": 0.25},'
        ' {"name": "latency_p90_ms", "better": "lower", "bound": 0.1}]}')
    calls = []
    values = {"base": [(100.0, 5.0), (110.0, 4.0), (90.0, 6.0)],
              "head": [(120.0, 4.5), (105.0, 4.2), (130.0, 3.0)]}

    def run_side(root, workload, seed, seconds):
        side = os.path.basename(root)
        calls.append(side)
        assert (workload, seed, seconds) == ("backward-cyclic", 7, 2.0)
        return _result(*values[side][sum(c == side for c in calls) - 1])

    monkeypatch.setattr(ab_pairs, "run_side", run_side)
    assert ab_pairs.main(["--base", str(tmp_path / "base"), "--head", str(tmp_path / "head"),
                          "--workload", "backward-cyclic", "--seed", "7", "--seconds", "2",
                          "--pairs", "3"]) == 0
    assert calls == ["head", "base", "base", "head", "head", "base"]
    out = capsys.readouterr().out.splitlines()
    rate = next(line for line in out if line.startswith("analyses_per_s"))
    p90 = next(line for line in out if line.startswith("latency_p90_ms"))
    assert "base 100 (IQR 10)" in rate and "head 120" in rate and "+20.0%" in rate
    assert "head higher in 2/3, lower in 1/3" in rate and "head better in 2/3" in rate
    assert "base 5 (IQR 1)" in p90 and "head 4.2" in p90
    assert "head higher in 1/3, lower in 2/3" in p90 and "head better in 2/3" in p90
    assert rate.endswith("; bound 0.25)  within bound")
    assert p90.endswith("; bound 0.1)  within bound")


def test_a_median_worse_by_more_than_the_bound_is_beyond_it():
    """Worse by exactly bound x the base median is within; any more is beyond,
    in the metric's own direction.  A metric with no bound gets no verdict."""
    def pairs(base, heads):
        return [(_result(*base), _result(*head)) for head in heads]

    metrics = {"analyses_per_s": ("higher", 0.25), "latency_p90_ms": ("lower", 0.25)}
    cases = [((100.0, 4.0), [(75.0, 5.0)] * 3, ("within", "within")),
             ((100.0, 4.0), [(74.0, 5.1)] * 3, ("beyond", "beyond")),
             ((100.0, 4.0), [(80.0, 5.5), (60.0, 3.0), (70.0, 6.0)], ("beyond", "beyond")),
             ((100.0, 4.0), [(200.0, 1.0)] * 3, ("within", "within"))]
    for base, heads, verdicts in cases:
        lines = ab_pairs.summary(pairs(base, heads), metrics)
        assert [line.rsplit("  ", 1)[1] for line in lines] == [f"{v} bound" for v in verdicts]
    lines = ab_pairs.summary(pairs((100.0, 4.0), [(10.0, 40.0)]),
                             {"analyses_per_s": ("higher", None)})
    assert lines[0].endswith("head better in 0/1)") and "bound" not in "".join(lines)


def test_quartile_spread():
    assert ab_pairs.quartile_spread([4.0]) == 0.0
    assert ab_pairs.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def test_each_run_compiles_its_sources_afresh(tmp_path, monkeypatch):
    """No side reads a bytecode cache left in its checkout: the run writes no
    bytecode and looks for it under an empty directory outside the checkout."""
    seen = []

    def run(argv, cwd, env, **kwargs):
        cache = env["PYTHONPYCACHEPREFIX"]
        seen.append((cwd, env["PYTHONDONTWRITEBYTECODE"], cache, os.listdir(cache)))
        return subprocess.CompletedProcess(argv, 0, json.dumps(_result(1.0, 1.0)) + "\n", "")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "stale"))
    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    for _ in range(2):
        assert ab_pairs.run_side(str(tmp_path), "binary-descent", 7, 1.0) == _result(1.0, 1.0)
    (cwd, nobytecode, first, listing), (_, _, second, _) = seen
    assert (cwd, nobytecode, listing) == (str(tmp_path), "1", [])
    assert first != second and not first.startswith(str(tmp_path))
    assert not os.path.exists(first)


def test_each_side_runs_in_a_fresh_copy_at_a_path_of_equal_length(tmp_path, monkeypatch):
    """The checkouts lie at paths of different length; every run gets a copy
    of its checkout, without ``__pycache__`` or dot entries, and both copies
    share one parent, have paths of equal length and are gone afterwards."""
    checkouts = {"base": tmp_path / "a-longer-base-checkout", "head": tmp_path / "head"}
    for side, root in checkouts.items():
        for sub in ("perfbench", ".git", ".hypothesis", "__pycache__"):
            os.makedirs(root / sub)
        (root / "perfbench" / "run.py").write_text(side)
    roots = []

    def run_side(root, workload, seed, seconds):
        with open(os.path.join(root, "perfbench", "run.py")) as handle:
            side = handle.read()
        assert sorted(os.listdir(root)) == ["perfbench"]
        roots.append((side, root))
        return _result(1.0, 1.0)

    monkeypatch.setattr(ab_pairs, "run_side", run_side)
    assert ab_pairs.main(["--base", str(checkouts["base"]), "--head", str(checkouts["head"]),
                          "--workload", "backward-cyclic", "--seed", "7", "--seconds", "1",
                          "--pairs", "2"]) == 0
    copies = dict(roots)
    assert len(roots) == 4 and sorted(copies) == ["base", "head"]
    assert all(root == copies[side] for side, root in roots)
    assert not {os.path.abspath(root) for root in copies.values()} & {
        str(root) for root in checkouts.values()}
    assert len({os.path.dirname(root) for root in copies.values()}) == 1
    assert len(copies["base"]) == len(copies["head"])
    assert not any(os.path.exists(root) for root in copies.values())
