"""Each correctness check passes on the program's real output and counts a
failure when fed a deliberately corrupted record."""

import json

import pytest

import checks
import reference
from worker import call_main
from treeshift.cli import main


def _instance(tmp_path, argv, expect=(0,), **files):
    """Instance dict plus docs for ``argv``; ``files`` maps a flag to its JSON doc."""
    docs = {}
    argv = list(argv)
    for flag, doc in files.items():
        path = str(tmp_path / f"{flag}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        docs[path] = doc
        argv += [f"--{flag}", path]
    inst = {"slot": "T", "command": argv[0], "argv": argv + ["--json"],
            "expect": list(expect), "family": None}
    return inst, docs


def _run(inst):
    code, out, _, raised, _ = call_main(main, inst["argv"])
    assert raised is None and code == 0
    return out


def _names(outcome):
    return {name for name, _ in outcome.failures}


def _edit(stdout, kind, edit):
    """Apply ``edit`` to the first record of ``kind`` for which it returns True."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("record") == kind and edit(rec):
            lines[i] = json.dumps(rec)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no {kind} record accepted the edit")


EXP_RAY = {"kind": "family", "name": "exp-ray", "params": {"base": 2.0, "start_level": 1}}
BILATERAL = {"family": "bilateral-path", "params": {}}


@pytest.fixture
def analyze(tmp_path):
    inst, docs = _instance(tmp_path, ["analyze", "--levels=-3:3"],
                           tree=BILATERAL, weights=EXP_RAY)
    return inst, docs, _run(inst)


def test_analyze_output_passes_and_counts_settled(analyze):
    inst, docs, out = analyze
    outcome = checks.check(inst, 0, out, docs)
    assert outcome.failures == []
    assert outcome.estimates == 14 and outcome.settled == 14


def test_forward_range(analyze):
    inst, docs, out = analyze
    bad = _edit(out, "alpha", lambda r: r.update(estimate=1.5) is None)
    assert "forward-range" in _names(checks.check(inst, 0, bad, docs))


def test_forward_upper_bound(analyze):
    inst, docs, out = analyze
    tree = reference.RefTree(BILATERAL)
    weight = reference.RefWeights(EXP_RAY, tree)

    def raise_above_s4(rec):
        rec["estimate"] = reference.partial_sum(tree, weight, rec["vertex"], 4) + 1e-6
        return rec["estimate"] <= 1.0

    bad = _edit(out, "alpha", raise_above_s4)
    assert "forward-upper-bound" in _names(checks.check(inst, 0, bad, docs))


def test_alpha_recursion(analyze):
    inst, docs, out = analyze

    def lower(rec):
        if rec["vertex"] != "0":
            return False
        rec["estimate"] *= 1.0 - 1e-6
        return True

    bad = _edit(out, "alpha", lower)
    assert _names(checks.check(inst, 0, bad, docs)) == {"alpha-recursion"}


def test_asymptote_intertwining(tmp_path):
    inst, docs = _instance(tmp_path, ["asymptote", "--levels=0:3"],
                           tree={"family": "rooted-path", "params": {}}, weights=EXP_RAY)
    out = _run(inst)
    assert checks.check(inst, 0, out, docs).failures == []
    bad = _edit(out, "intertwining", lambda r: r.update(residual=1e-6) is None)
    assert _names(checks.check(inst, 0, bad, docs)) == {"intertwining"}


def test_similarity_witness_residual(tmp_path):
    weights = {"kind": "map", "values": {"1": 0.6, "1'": 0.7}, "default": 1.0}
    inst, docs = _instance(tmp_path, ["similarity", "--levels=-6:6"],
                           tree={"family": "tilde", "params": {}}, weights=weights)
    out = _run(inst)
    assert checks.check(inst, 0, out, docs).failures == []
    bad = _edit(out, "witness", lambda r: r.update(residual=1e-6) is None)
    assert _names(checks.check(inst, 0, bad, docs)) == {"intertwining"}


@pytest.mark.parametrize("key", ["apply_residual", "power_residual"])
def test_oracle_residuals(tmp_path, key):
    inst, docs = _instance(tmp_path, ["oracle", "--levels=-6:6"], tree=BILATERAL,
                           weights={"kind": "constant", "value": 0.8})
    out = _run(inst)
    assert checks.check(inst, 0, out, docs).failures == []
    bad = _edit(out, "oracle", lambda r: r.update({key: 1e-9}) is None)
    assert _names(checks.check(inst, 0, bad, docs)) == {"oracle-residual"}


@pytest.fixture
def backward(tmp_path):
    spec = {"branches": 1, "weights": {"kind": "hash-random", "seed": 7, "low": 0.5,
                                       "high": 0.99}}
    inst, docs = _instance(tmp_path, ["cyclic", "--schedule", "16", "--window-k", "40"],
                           backward=spec)
    return inst, docs, _run(inst)


def _edit_krylov(out, **fields):
    return _edit(out, "krylov", lambda r: r.update(fields) is None)


def test_backward_output_passes(backward):
    inst, docs, out = backward
    outcome = checks.check(inst, 0, out, docs)
    assert outcome.failures == []
    assert outcome.rank == outcome.dimension == 41


def _scale_stage(out, stage, factor):
    lines = out.splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("stage") == stage:
            rec["coefficient"] *= factor
            lines[i] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def _sigma_failures(inst, docs, stdout):
    outcome = checks.check(inst, 0, stdout, docs)
    return [(name, msg) for name, msg in outcome.failures if name == "sigma-bound"]


def test_sigma_bound(backward):
    inst, docs, out = backward
    failures = _sigma_failures(inst, docs, _scale_stage(out, 2, 100.0))
    assert failures
    assert all(checks.known_defect(n, inst, m) is None for n, m in failures)


def test_sigma_bound_with_subnormal_terms_is_a_known_defect(backward):
    inst, docs, out = backward
    tiny_tail = _scale_stage(_scale_stage(out, 2, 100.0), 16, 1e-300)
    failures = _sigma_failures(inst, docs, tiny_tail)
    assert failures
    assert all(checks.known_defect(n, inst, m) == "subnormal-sigma" for n, m in failures)


def test_krylov_rank_bound(backward):
    inst, docs, out = backward
    bad = _edit_krylov(out, rank=42)
    assert "krylov-rank-bound" in _names(checks.check(inst, 0, bad, docs))


def test_krylov_full_rank_on_one_branch(backward):
    inst, docs, out = backward
    outcome = checks.check(inst, 0, _edit_krylov(out, rank=40), docs)
    assert _names(outcome) == {"krylov-full-rank"}
    (name, message), = outcome.failures
    assert checks.known_defect(name, inst, message) == "krylov-rank-shortfall"
    assert checks.known_defect("sigma-bound", inst, message) is None


def test_exit_code_raised_and_malformed(backward):
    inst, docs, out = backward
    assert _names(checks.check(inst, 3, "", docs)) == {"exit-code"}
    assert _names(checks.check(inst, None, "", docs, raised="KeyError: 'x'")) == {"raised"}
    assert _names(checks.check(inst, 0, "not json\n", docs)) == {"records"}
    no_krylov = "\n".join(l for l in out.splitlines() if '"krylov"' not in l)
    assert _names(checks.check(inst, 0, no_krylov, docs)) == {"records"}


def test_every_check_name_is_exercised():
    exercised = {"exit-code", "raised", "records", "forward-range", "forward-upper-bound",
                 "alpha-recursion", "intertwining", "oracle-residual", "sigma-bound",
                 "krylov-rank-bound", "krylov-full-rank"}
    assert exercised == set(checks.CHECKS)
