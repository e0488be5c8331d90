"""End-to-end CLI runs: exit codes, text reports, JSON record streams."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import treeshift
from treeshift import cli, cyclicity
from treeshift.asymptotics import VertexEstimate
from treeshift.cli import main
from treeshift.errors import WeightError
from treeshift.shifts import ShiftOperator
from treeshift.sparse import SparseVector
from treeshift.trees import make_family, materialize_window
from treeshift.weights import MapWeights

from conftest import BINARY_ISOMETRY, NaNAdjoint, NaNApply


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def specs(tmp_path):
    return {
        "star": write(tmp_path, "star.json",
                      {"vertices": ["r", "a", "b"], "edges": [["r", "a"], ["r", "b"]],
                       "root": "r"}),
        "circuit": write(tmp_path, "circuit.json",
                         {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}),
        "tilde": write(tmp_path, "tilde.json", {"family": "tilde", "params": {}}),
        "binary": write(tmp_path, "binary.json", {"family": "rootless-binary", "params": {}}),
        "bilateral": write(tmp_path, "bilateral.json",
                           {"family": "bilateral-path", "params": {}}),
        "halves": write(tmp_path, "halves.json",
                        {"kind": "constant", "value": BINARY_ISOMETRY}),
        "ones": write(tmp_path, "ones.json", {"kind": "constant", "value": 1.0}),
        "star_w": write(tmp_path, "star_w.json",
                        {"kind": "map", "values": {"a": 0.6, "b": 0.8}}),
        "tilde_w": write(tmp_path, "tilde_w.json",
                         {"kind": "map", "values": {"1": 0.6, "1'": 0.7}, "default": 1.0}),
        "backward": write(tmp_path, "backward.json",
                          {"branches": 2, "weights": {"kind": "constant", "value": 1.0}}),
        "backward2z": write(tmp_path, "backward2z.json",
                            {"branches": 2, "weights": {"kind": "constant", "value": 0.9},
                             "zeros": [[0, 2], [1, 4]]}),
    }


def test_validate_finite_and_family(specs, capsys):
    assert main(["validate", "--tree", specs["star"]]) == 0
    out = capsys.readouterr().out
    assert "rooted" in out and "Br=1" in out

    assert main(["validate", "--tree", specs["tilde"]]) == 0
    out = capsys.readouterr().out
    assert "rootless" in out and "Br=1" in out


def test_validate_circuit_exit_code(specs, capsys):
    assert main(["validate", "--tree", specs["circuit"]]) == 2
    assert "CircuitFound" in capsys.readouterr().err


def test_analyze_binary(specs, capsys):
    assert main(["analyze", "--tree", specs["binary"], "--weights", specs["halves"],
                 "--levels", "0:4"]) == 0
    out = capsys.readouterr().out
    assert "C1dot / Cdot0" in out


def test_the_family_bound_proves_every_limit_zero(specs, tmp_path, capsys):
    # 2 * 0.7^2 < 1: no descent, no adjoint sweep, and no asymptote
    decay = write(tmp_path, "decay.json", {"kind": "constant", "value": 0.7})
    argv = ["--tree", specs["binary"], "--weights", decay, "--levels", "0:1"]
    assert main(["analyze", *argv]) == 0
    out = capsys.readouterr().out
    limits = [line for line in out.splitlines() if line.startswith(("  alpha[", "  a["))]
    assert len(limits) == 5 and all("= 0 (exact-zero" in line for line in limits)
    assert "stable subtree: 0/3 window vertices, Br(T')=0\n" in out
    assert main(["analyze", "--json", *argv]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (stable,) = [r for r in records if r["record"] == "stable-subtree"]
    assert (stable["branching"], stable["branching_exact"]) == ("0", True)
    assert all(r["depth"] == 0 and r["status"] == "exact-zero"
               for r in records if r["record"] in ("alpha", "a"))
    assert main(["asymptote", *argv]) == 4
    assert "StableSubtreeEmpty" in capsys.readouterr().err


def test_hash_weights_below_one_vanish_on_the_tilde_tree(specs, tmp_path, capsys):
    hashed = write(tmp_path, "hash.json", {"kind": "family", "name": "hash-random",
                                           "params": {"seed": 3, "low": 0.3, "high": 0.7}})
    assert main(["analyze", "--json", "--tree", specs["tilde"], "--weights", hashed,
                 "--levels=-6:6"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    limits = [r for r in records if r["record"] in ("alpha", "a")]
    assert len(limits) == 2 * 19 and all(r["status"] == "exact-zero" for r in limits)


def test_analyze_rooted_star_certified(specs, capsys):
    assert main(["analyze", "--tree", specs["star"], "--weights", specs["star_w"],
                 "--levels", "0:2"]) == 0
    out = capsys.readouterr().out
    assert "C0dot / Cdot0" in out and "certified" in out


def test_analyze_unitary_bilateral(specs, capsys):
    assert main(["analyze", "--tree", specs["bilateral"], "--weights", specs["ones"],
                 "--levels=-4:4"]) == 0
    out = capsys.readouterr().out
    assert "C1dot / Cdot1" in out


def test_analyze_not_a_contraction(specs, capsys):
    assert main(["analyze", "--tree", specs["tilde"], "--weights", specs["ones"]]) == 3
    assert "not a contraction" in capsys.readouterr().err


@pytest.mark.parametrize("ratio,levels", [(1.5, "0:0"), (1.0001, "0:1")])
def test_analyze_rejects_growing_geometric_weights(specs, tmp_path, capsys, ratio, levels):
    """scale * ratio^|level| with ratio > 1 has no largest weight (at ratio
    1.0001 the weights pass 1 from |level| 6932 on), so the certified norm
    is inf, whatever the window reads."""
    weights = write(tmp_path, "growing.json", {"kind": "family", "name": "geometric",
                                               "params": {"scale": 0.5, "ratio": ratio}})
    assert main(["analyze", "--tree", specs["bilateral"], "--weights", weights,
                 f"--levels={levels}"]) == 3
    captured = capsys.readouterr()
    assert "not a contraction: operator norm inf exceeds 1" in captured.err
    assert captured.out == ""  # no report of a shift that is not a contraction


@pytest.mark.parametrize("levels", ["1:9", "2:9", "-9:-2"])
def test_analyze_a_contraction_whose_window_misses_the_branch_vertex(tmp_path, capsys,
                                                                     levels):
    """The norm scan reads the branch vertex "0" outside the window, so the
    rest of the tilde tree has one child per vertex and the norm is the
    column of "0", not max_weight * sqrt(2) = 1.202..."""
    tilde = write(tmp_path, "tilde.json", {"family": "tilde"})
    rays = write(tmp_path, "rays.json", {"kind": "family", "name": "rays",
                                         "params": {"spine": 0.5, "primed": 0.85}})
    argv = ["analyze", "--tree", tilde, "--weights", rays, f"--levels={levels}"]
    assert main(argv + ["--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    norm = next(r for r in records if r["record"] == "norm")
    assert norm["certified"] is True
    assert norm["value"] == math.sqrt(0.5 ** 2 + 0.85 ** 2)
    assert main(argv) == 0
    assert "norm: 0.986154146166 (certified)" in capsys.readouterr().out.splitlines()
    if levels == "1:9":
        assert main(["similarity", "--tree", tilde, "--weights", rays, "--levels=1:9"]) == 6
        assert "window does not reach the primed ray" in capsys.readouterr().err


def test_analyze_json_stream(specs, capsys):
    assert main(["analyze", "--tree", specs["binary"], "--weights", specs["halves"],
                 "--levels", "0:3", "--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    kinds = {doc["record"] for doc in lines}
    assert {"norm", "alpha", "a", "stable-subtree", "classification"} <= kinds


def test_analyze_text_writes_no_per_vertex_json(specs, monkeypatch, capsys):
    """Text mode renders each per-vertex fact once, as text: no JSON line
    and no payload dict is built for it."""
    def refuse(*args):
        raise AssertionError("per-vertex JSON built in text mode")

    monkeypatch.setattr(VertexEstimate, "json_line", refuse)
    monkeypatch.setattr(VertexEstimate, "to_json", refuse)
    assert main(["analyze", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
                 "--levels=-3:3"]) == 0
    assert "alpha[" in capsys.readouterr().out


def test_the_generic_encoder_writes_no_per_vertex_or_stage_line(specs, monkeypatch, capsys):
    """``alpha`` and ``a`` lines come from ``VertexEstimate.json_line`` and
    stage lines from ``CyclicCandidate.to_json_lines``; the generic encoder
    keeps the one-per-call records."""
    encoded = []

    def spy(doc):
        encoded.append(doc)
        return json.dumps(doc, sort_keys=True)

    monkeypatch.setattr(cli, "dumps_sorted", spy)
    assert main(["analyze", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
                 "--levels=-3:3", "--json"]) == 0
    assert main(["cyclic", "--backward", specs["backward"], "--window-k", "30", "--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for kind in ("alpha", "a"):
        assert any(doc.get("record") == kind for doc in lines)
    assert any("stage" in doc for doc in lines)
    assert encoded == [doc for doc in lines if doc.get("record") not in (None, "alpha", "a")]


def test_asymptote_stable_tree_exit(specs, capsys):
    assert main(["asymptote", "--tree", specs["star"], "--weights", specs["star_w"],
                 "--levels", "0:2"]) == 4


def test_asymptote_binary(specs, capsys):
    assert main(["asymptote", "--tree", specs["binary"], "--weights", specs["halves"],
                 "--levels", "0:4"]) == 0
    out = capsys.readouterr().out
    assert "cnu-unilateral" in out and "multiplicity inf" in out


def test_binary_decay_is_stable(specs, tmp_path, capsys):
    # lim (2 * 0.6^2)^n = 0 at every vertex: no isometric asymptote
    decay = write(tmp_path, "decay.json", {"kind": "constant", "value": 0.6})
    argv = ["--tree", specs["binary"], "--weights", decay, "--levels=-8:8"]
    assert main(["analyze"] + argv) == 0
    assert "classification: C0dot / Cdot0" in capsys.readouterr().out
    assert main(["asymptote"] + argv) == 4
    assert "StableSubtreeEmpty" in capsys.readouterr().err


def test_adjoint_asymptote(specs, capsys):
    assert main(["adjoint-asymptote", "--tree", specs["bilateral"],
                 "--weights", specs["ones"], "--levels=-4:4"]) == 0
    assert "simple-bilateral" in capsys.readouterr().out
    assert main(["adjoint-asymptote", "--tree", specs["star"],
                 "--weights", specs["star_w"], "--levels", "0:2"]) == 4


def test_cyclic_tree_verdict(specs, capsys):
    assert main(["cyclic", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
                 "--levels=-6:6"]) == 0
    out = capsys.readouterr().out
    assert "non-cyclic [R6]" in out


COMB_MAP = {"kind": "map", "values": {"1": 0.6, "1'": 0.6}, "default": 1.0}


@pytest.mark.parametrize("tree,weights,levels,rule,verdict", [
    ({"vertices": ["r", "a", "b"], "edges": [["r", "a"], ["r", "b"]], "root": "r"},
     {"kind": "map", "values": {"a": 0.6, "b": 0.6}}, "0:2", "R1", "non-cyclic"),
    ({"family": "rootless-binary"}, {"kind": "constant", "value": 0.6}, "0:1", "R2",
     "non-cyclic"),
    ({"family": "comb", "params": {"primed_leaf": 3, "unprimed_leaf": 5}}, COMB_MAP, "-2:2",
     "R4", "cyclic"),
    ({"family": "comb", "params": {"primed_leaf": 3}}, COMB_MAP, "-2:2", "R5", "cyclic"),
    ({"family": "bilateral-path"}, {"kind": "map", "values": {"1": 0.6}, "default": 1.0},
     "-2:2", "R5'", "cyclic"),
    ({"family": "rooted-path"},
     {"kind": "family", "name": "exp-ray", "params": {"base": 2, "start_level": 1}}, "0:3",
     "R7", "adjoint-cyclic"),
    ({"family": "bilateral-path"},
     {"kind": "family", "name": "step", "params": {"low": 0.5, "high": 1.0, "cut": 0}},
     "-2:2", "R8", "adjoint-cyclic"),
], ids=["R1", "R2", "R4", "R5", "R5'", "R7", "R8"])
def test_cyclic_json_prints_each_tree_rule(tmp_path, capsys, tree, weights, levels, rule,
                                           verdict):
    assert main(["cyclic", "--tree", write(tmp_path, "tree.json", tree),
                 "--weights", write(tmp_path, "weights.json", weights),
                 f"--levels={levels}", "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["record"] for r in records] == ["classification", "verdict"]
    assert (records[1]["rule"], records[1]["verdict"]) == (rule, verdict)


def test_tree_cyclic_reports_the_classification_it_rules_on(specs, capsys):
    """Tree ``cyclic`` writes the ``classification`` fact of ``analyze``, notes
    included, before its verdict, as text and as one JSON record."""
    argv = ["--tree", specs["tilde"], "--weights", specs["tilde_w"], "--levels=-6:6"]
    assert main(["cyclic", *argv, "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["record"] for r in records] == ["classification", "verdict"]
    assert main(["analyze", *argv, "--json"]) == 0
    analyzed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r for r in analyzed if r["record"] == "classification"] == records[:1]
    assert main(["cyclic", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[:4] == [
        "classification: C1dot / Cdot1", "  forward: C1dot (numerical)",
        "  adjoint: Cdot1 (numerical)",
        "verdict: non-cyclic [R6] rootless Br=1 of class C1·: the isometric asymptote is "
        "the non-cyclic bilateral+unilateral sum"]


def test_cyclic_backward_construct_and_verify(specs, capsys):
    assert main(["cyclic", "--backward", specs["backward"], "--window-k", "30"]) == 0
    out = capsys.readouterr().out
    assert "cyclic [R3]" in out and "rank 62/62" in out


def test_cyclic_backward_two_zeros(specs, capsys):
    assert main(["cyclic", "--backward", specs["backward2z"]]) == 0
    assert "non-cyclic [R3]" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [("--tree", "tilde", "--weights", "tilde_w"),
                                   ("--tree", "tilde"), ("--weights", "tilde_w")])
def test_cyclic_refuses_backward_with_a_tree(specs, capsys, flags):
    """``--backward`` with ``--tree`` or ``--weights`` would report the
    backward shift alone and ignore the tree: argparse's exit 2 instead."""
    argv = ["cyclic", "--backward", specs["backward"]]
    argv += [specs[word] if word in specs else word for word in flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not both" in err


@pytest.mark.parametrize("weights, flags", [
    # the head's -4 is the sixth weight up from level 0, so the depth-6 sweep
    # ends on the jump, and -8 lies above it
    ({"-4": 0.5, "-8": 0.5}, ["--levels=0:1", "--depth", "6"]),
    # 64 unit weights, then the head's -70 above the sweep
    ({"-70": 0.5}, ["--levels=0:0"]),
])
def test_adjoint_unit_run_below_a_head_weight_is_not_convergence(specs, tmp_path, capsys,
                                                                 weights, flags):
    """Three flat column sums early in the sweep, or a sweep that never
    reaches the head weight, leave the true limit (0.0625 and 0.25) unseen:
    the level reads ``max-depth``, not ``converged``."""
    law = write(tmp_path, "head.json", {"kind": "map", "values": weights, "default": 1.0})
    assert main(["analyze", "--tree", specs["bilateral"], "--weights", law, *flags]) == 0
    out = capsys.readouterr().out
    levels = [line for line in out.splitlines() if line.startswith("  a[level ")]
    assert levels and all(line.endswith("(max-depth)") for line in levels)
    assert "adjoint: Cdot1" not in out


def test_cyclic_dimension_cap(specs, capsys):
    assert main(["cyclic", "--backward", specs["backward"], "--window-k", "4000"]) == 5


def test_a_long_schedule_exits_5_before_it_allocates(specs, capsys, monkeypatch):
    """k_L = L(L+1)/2 prefix products per branch: L = 100000 is refused by
    the dimension cap before the first one is taken."""
    def refuse(self, j, upto):
        raise AssertionError(f"prefix products up to {upto} taken")

    monkeypatch.setattr(cyclicity.BackwardShiftSpec, "prefix_products", refuse)
    assert main(["cyclic", "--backward", specs["backward"], "--schedule", "100000"]) == 5
    out, err = capsys.readouterr()
    assert err == "error: DimensionCap: dimension 5000050001 exceeds cap 4096\n"
    assert "candidate verified" not in out


def test_similarity_witness(specs, capsys):
    assert main(["similarity", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
                 "--levels=-6:6"]) == 0
    out = capsys.readouterr().out
    assert "mode similar" in out


def test_similarity_shape_mismatch(specs, capsys):
    assert main(["similarity", "--tree", specs["bilateral"], "--weights", specs["ones"],
                 "--levels=-4:4"]) == 6


def test_json_reports_are_reproducible(specs, capsys):
    argv = ["analyze", "--tree", specs["binary"], "--weights", specs["halves"],
            "--levels", "0:3", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_oracle(specs, capsys):
    assert main(["oracle", "--tree", specs["star"], "--weights", specs["star_w"],
                 "--levels", "0:2", "--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    doc = next(d for d in lines if d["record"] == "oracle")
    assert doc["apply_residual"] == 0.0
    assert doc["adjoint_residual"] == 0.0
    assert doc["cokernel"] == 2  # 1 + Br on the full finite window


def test_oracle_counts_a_tiny_weight_in_the_window_cokernel(tmp_path, capsys):
    """b = 1e-12 sits below the float rank threshold of 1e-8 times the
    largest entry, so an elimination counts its column as zero (cokernel 2).
    The columns of a tree truncation have disjoint supports, so the rank is
    3 and the cokernel exactly 1 (the root)."""
    tree = write(tmp_path, "path.json", {"vertices": ["r", "a", "b", "c"],
                                         "edges": [["r", "a"], ["a", "b"], ["b", "c"]],
                                         "root": "r"})
    weights = write(tmp_path, "path_w.json",
                    {"kind": "map", "values": {"a": 0.5, "b": 1e-12, "c": 0.5}})
    argv = ["oracle", "--tree", tree, "--weights", weights, "--levels", "0:3"]
    assert main(argv) == 0
    assert "window cokernel: 1 (exact count, 0 boundary-artificial)" in \
        capsys.readouterr().out.splitlines()
    assert main(argv + ["--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert next(d for d in lines if d["record"] == "oracle")["cokernel"] == 1


def test_no_command_runs_a_float_rank(specs, monkeypatch, capsys):
    """The float ranks stay library helpers: the oracle counts its cokernel
    and ``cyclic --backward`` ranks over F_p."""
    def refuse(*args, **kwargs):
        raise AssertionError("float rank called")

    for name in ("ge_rank", "cokernel_dimension"):
        monkeypatch.setattr(cyclicity, name, refuse)
    monkeypatch.setattr(cli, "cokernel_dimension", refuse)
    for argv in (["oracle", "--tree", specs["star"], "--weights", specs["star_w"],
                  "--levels", "0:2"],
                 ["oracle", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
                  "--levels=-4:4", "--json"],
                 ["cyclic", "--backward", specs["backward"], "--window-k", "20"],
                 ["cyclic", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
                  "--levels=-6:6", "--depth", "20"],
                 ["similarity", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
                  "--levels=-4:4"]):
        assert main(argv) == 0, argv
    capsys.readouterr()


class _DoubledAdjoint(ShiftOperator):
    def apply_adjoint(self, x):
        return super().apply_adjoint(x).scaled(2.0)


def test_oracle_adjoint_residual_catches_a_wrong_adjoint(specs, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ShiftOperator", _DoubledAdjoint)
    assert main(["oracle", "--tree", specs["star"], "--weights", specs["star_w"],
                 "--levels", "0:2", "--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    doc = next(d for d in lines if d["record"] == "oracle")
    assert doc["apply_residual"] == 0.0
    assert doc["adjoint_residual"] == pytest.approx(0.8)  # |2*0.8 - 0.8| at vertex b
    assert main(["oracle", "--tree", specs["star"], "--weights", specs["star_w"],
                 "--levels", "0:2"]) == 0
    assert "adjoint vs matrix transpose: 8.000e-01" in capsys.readouterr().out


class _DoubledApply(ShiftOperator):
    def apply(self, x):
        return super().apply(x).scaled(2.0)


def test_oracle_apply_residual_catches_a_wrong_apply(specs, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ShiftOperator", _DoubledApply)
    assert main(["oracle", "--tree", specs["star"], "--weights", specs["star_w"],
                 "--levels", "0:2", "--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    doc = next(d for d in lines if d["record"] == "oracle")
    assert doc["apply_residual"] == pytest.approx(0.8)  # |0.8 - 2*0.8| at vertex b
    assert doc["adjoint_residual"] == 0.0


@pytest.mark.parametrize("line,image,want", [
    ({"1": 0.5}, {}, 0.5),  # an entry of the line only
    ({}, {"-1": 0.25}, 0.25),  # an entry of the image only, inside the window
    ({}, {"7": 3.0}, 0.0),  # an image entry outside the window is compressed away
    ({"1": 0.5}, {"1": 0.375}, 0.125),  # one entry on both sides
    ({"1": 0.5}, {"1": 0.5, "-1": 0.25, "7": 3.0}, 0.25),
], ids=["line-only", "image-only", "outside", "shared", "mixed"])
def test_worst_residual_reads_every_entry_it_must(line, image, want):
    window = materialize_window(make_family("bilateral-path"), -2, 2)
    worst = cli._worst_residual(0.0, line, SparseVector(image), window)
    assert worst == want
    # A second pair with no line: its in-window image entry is its residual.
    assert cli._worst_residual(worst, {}, SparseVector({"-2": 0.0625}), window) == \
        max(want, 0.0625)


@pytest.mark.parametrize("operator_class, apply_nan, adjoint_nan", [
    (NaNApply, True, False), (NaNAdjoint, False, True)], ids=["apply", "adjoint"])
def test_oracle_residual_keeps_a_nan(specs, monkeypatch, capsys, operator_class,
                                     apply_nan, adjoint_nan):
    """``max(0.0, nan)`` is 0.0: a running max would print a NaN image as a
    residual of 0."""
    monkeypatch.setattr(cli, "ShiftOperator", operator_class)
    argv = ["oracle", "--tree", specs["star"], "--weights", specs["star_w"], "--levels", "0:2"]
    assert main(argv) == 0
    text = capsys.readouterr().out.splitlines()
    assert ("apply vs matrix (interior): nan" in text) is apply_nan
    assert ("adjoint vs matrix transpose: nan" in text) is adjoint_nan
    assert main(argv + ["--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    doc = next(d for d in lines if d["record"] == "oracle")
    assert math.isnan(doc["apply_residual"]) is apply_nan
    assert math.isnan(doc["adjoint_residual"]) is adjoint_nan
    assert doc["power_residual"] == 0.0  # S^2 = 0 on the star


def test_worst_residual_keeps_a_nan_entry():
    window = materialize_window(make_family("bilateral-path"), -2, 2)
    nan, other = SparseVector({"1": math.nan}), SparseVector({"2": 0.5})
    for line in ({"1": 0.5}, {}):  # NaN against a line entry, and image-only
        # the NaN pair first, and last after a finite residual
        assert math.isnan(cli._worst_residual(cli._worst_residual(0.0, line, nan, window),
                                              {}, other, window))
        assert math.isnan(cli._worst_residual(cli._worst_residual(0.0, {}, other, window),
                                              line, nan, window))


def test_oracle_builds_no_matrix(specs, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense truncation built")

    monkeypatch.setattr(ShiftOperator, "dense_truncation", refuse)
    for argv in (["oracle", "--tree", specs["star"], "--weights", specs["star_w"],
                  "--levels", "0:2"],
                 ["oracle", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
                  "--levels=-4:4", "--json"]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_oracle_runs_past_the_dense_cap(specs, capsys):
    """4,201 window vertices: more than DENSE_CAP, within WINDOW_CAP."""
    assert main(["oracle", "--tree", specs["bilateral"], "--weights", specs["halves"],
                 "--levels=-2100:2100", "--json"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    doc = next(d for d in lines if d["record"] == "oracle")
    assert doc["apply_residual"] == doc["adjoint_residual"] == doc["power_residual"] == 0.0
    assert doc["cokernel"] == 1


def test_oracle_counts_the_truncated_vertices_in_its_record(specs, capsys):
    """The window vertices with children outside the window: the ``truncated``
    key of the ``oracle`` record, and the first text line of the fact when
    there are any."""
    star = ["oracle", "--tree", specs["star"], "--weights", specs["star_w"], "--levels", "0:2"]
    tilde = ["oracle", "--tree", specs["tilde"], "--weights", specs["tilde_w"], "--levels=-3:3"]
    for argv, truncated in ((star, 0), (tilde, 2)):
        assert main(argv + ["--json"]) == 0
        (doc,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert doc["truncated"] == truncated
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("boundary truncation: 2 window vertices") == bool(truncated)


def test_parser_is_reused_across_calls(specs, capsys):
    runs = [["validate", "--tree", specs["tilde"], "--levels=-3:3"],
            ["analyze", "--tree", specs["star"], "--weights", specs["star_w"],
             "--levels", "0:2", "--json"],
            ["oracle", "--tree", specs["tilde"], "--weights", specs["tilde_w"], "--levels=-4:4"],
            ["cyclic", "--backward", specs["backward"], "--window-k", "20", "--json"],
            ["cyclic", "--tree", specs["tilde"], "--weights", specs["tilde_w"],
             "--levels=-6:6", "--depth", "20"],
            ["asymptote", "--tree", specs["star"], "--weights", specs["star_w"],
             "--levels", "0:2"],
            ["validate", "--tree", specs["star"], "--json"]]

    def run_all(fresh):
        seen = []
        for argv in runs:
            if fresh:
                cli._parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    cached = run_all(fresh=False)
    assert cli._parser() is cli._parser()
    assert cached == run_all(fresh=True)
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 0, 4, 0]


def test_parser_is_reused_across_declined_calls(specs, capsys):
    """Argv the table pass declines reach the cached argparse parser, which
    then reads or rejects them as a fresh one would, with well-formed calls
    in between."""
    star = ["--tree", specs["star"], "--weights", specs["star_w"]]
    runs = [["analyze", *star, "--lev=0:2", "--json"],
            ["validate", "--tree", specs["tilde"], "--levels", "-3:3"],
            ["validate", "--tree", specs["tilde"], "--levels=-3:3"],
            ["asymptote", "--tre", specs["star"], "--weights", specs["star_w"], "--levels", "0:2"],
            ["analyze", *star, "--depth=0"],
            ["cyclic", "--tree", specs["tilde"], "--levels=-6:6"],
            ["cyclic", "--tree=--", "--weights", specs["tilde_w"]],
            ["cyclic", "--backward", specs["backward"], "--window-k", "20", "--json"]]
    declined = [cli._read_argv(argv) is None for argv in runs]
    assert declined == [True, True, False, True, True, False, True, False]

    def run_all(fresh):
        seen = []
        for argv in runs:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    cached = run_all(fresh=False)
    assert cached == run_all(fresh=True)
    assert [code for code, _, _ in cached] == [0, 2, 0, 4, 2, 2, 2, 0]
    assert "cyclic needs either --backward" in cached[6][2]


def test_constant_nan_weight_exit_code(specs, tmp_path, capsys):
    nan = write(tmp_path, "nan.json", {"kind": "constant", "value": math.nan})
    assert main(["analyze", "--tree", specs["binary"], "--weights", nan,
                 "--levels", "0:1"]) == 2
    captured = capsys.readouterr()
    assert "WeightError" in captured.err and "certified" not in captured.out


def test_nan_inside_map_exit_code(specs, tmp_path, capsys):
    nan = write(tmp_path, "nan_map.json", {"kind": "map", "values": {"a": math.nan, "b": 0.5}})
    assert main(["analyze", "--tree", specs["star"], "--weights", nan,
                 "--levels", "0:2"]) == 2
    captured = capsys.readouterr()
    assert "WeightError" in captured.err and "norm" not in captured.out


@pytest.mark.parametrize("flag,value", [("--depth", "0"), ("--depth", "-3"), ("--tol", "0"),
                                        ("--tol", "-1"), ("--tol", "nan"),
                                        ("--zero-th", "-1e-9")])
def test_bad_numeric_flags_exit_code(specs, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--tree", specs["binary"], "--weights", specs["halves"],
              "--levels", "0:1", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--rank-tol", "nan"), ("--rank-tol", "-1"),
                                        ("--rank-tol", "0"), ("--rank-tol", "inf")])
def test_bad_rank_tol_exit_code(specs, capsys, flag, value):
    """``cyclic --backward`` has no ``--rank-tol`` either: any value is an
    unrecognized argument."""
    with pytest.raises(SystemExit) as exc:
        main(["cyclic", "--backward", specs["backward"], f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}={value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "asymptote", "adjoint-asymptote",
                                     "similarity", "oracle"])
def test_rank_tol_is_rejected_where_nothing_reads_it(specs, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--tree", specs["star"], "--weights", specs["star_w"],
              "--levels", "0:2", "--rank-tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rank-tol 1e-8" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--window-k", "-1"), ("--schedule", "0"),
                                        ("--schedule", "-4")])
def test_bad_backward_flags_exit_code(specs, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["cyclic", "--backward", specs["backward"], f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_short_schedule_exit_code(specs, capsys):
    assert main(["cyclic", "--backward", specs["backward"], "--schedule", "7"]) == 2
    assert "ScheduleTooShort" in capsys.readouterr().err


def test_smallest_backward_window_is_accepted(specs, capsys):
    assert main(["cyclic", "--backward", specs["backward"], "--window-k", "0"]) == 0
    assert "rank 2/2" in capsys.readouterr().out


@pytest.mark.parametrize("params", [{"lo": 0.5}, {"low": 0.5, "high": 0.7, "lo": 0.5},
                                    {"high": 0.7}, [0.5, 0.7]])
def test_bad_family_params_exit_code(specs, tmp_path, capsys, params):
    path = write(tmp_path, "step.json", {"kind": "family", "name": "step", "params": params})
    assert main(["analyze", "--tree", specs["bilateral"], "--weights", path,
                 "--levels=-2:2"]) == 2
    err = capsys.readouterr().err
    assert "WeightError" in err and "'step'" in err and "Traceback" not in err


@pytest.mark.parametrize("params,name", [({"low": 0.5, "high": 1e200}, "high"),
                                         ({"low": 1e200, "high": 0.5}, "low")])
def test_step_weight_whose_square_overflows_exit_code(tmp_path, capsys, params, name):
    path = write(tmp_path, "step.json", {"kind": "family", "name": "step", "params": params})
    assert main(["analyze", "--tree", write(tmp_path, "tree.json", {"family": "rooted-path"}),
                 "--weights", path, "--levels=0:3"]) == 2
    assert capsys.readouterr().err == (f"error: WeightError: step {name} must be at most "
                                       "1.34078e+154, so that its square is finite, got 1e+200\n")


@pytest.mark.parametrize("params", [{"primed_leaf": 2.5}, {"primed_leaf": "3"},
                                    {"primed_leaf": True}, {"primed_leaf": 2, "unprimed_leaf": 4.0}])
def test_non_integer_comb_leaf_exit_code(specs, tmp_path, capsys, params):
    tree = write(tmp_path, "comb.json", {"family": "comb", "params": params})
    assert main(["validate", "--tree", tree]) == 2
    err = capsys.readouterr().err
    assert "TreeSpecError" in err and "must be an integer" in err


@pytest.mark.parametrize("family,params,takes", [
    ("tilde", {"primed_leaf": 3}, []),
    ("comb", {"primed_leaf": 3, "unprimed": 4}, ["primed_leaf", "unprimed_leaf"]),
    ("rooted-path", {"lenght": 5}, []),
], ids=["tilde", "comb", "rooted-path"])
def test_a_tree_param_the_family_does_not_take_exit_code(tmp_path, capsys, family, params,
                                                          takes):
    """A misspelt or foreign param is an error, not a silently different tree."""
    tree = write(tmp_path, "tree.json", {"family": family, "params": params})
    assert main(["validate", "--tree", tree]) == 2
    assert capsys.readouterr() == ("", f"error: TreeSpecError: tree family {family!r} takes "
                                       f"params {takes}, got {json.dumps(params)}\n")


def test_a_map_key_that_is_no_vertex_carries_no_level(specs, tmp_path, capsys):
    # "9_9" parses as the integer 99 but is no bilateral-path vertex, so it
    # must not deepen the descent's convergence floor.
    outputs = []
    for values in ({"2": 0.5, "9_9": 0.7}, {"2": 0.5}):
        weights = write(tmp_path, "map.json", {"kind": "map", "values": values, "default": 1.0})
        assert main(["analyze", "--tree", specs["bilateral"], "--weights", weights,
                     "--levels=0:2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert "alpha[0] = 0.25 (converged, depth 10)" in outputs[0]
    assert outputs[0] == outputs[1]


def test_zero_threshold_of_zero_is_accepted(specs, capsys):
    assert main(["analyze", "--tree", specs["binary"], "--weights", specs["halves"],
                 "--levels", "0:1", "--zero-th", "0", "--depth", "1"]) == 0


@pytest.mark.parametrize("weights", [
    {"kind": "constant", "value": 0}, {"kind": "constant", "value": 1.5},
    {"kind": "constant", "value": -0.5}, {"kind": "constant", "value": math.nan},
    {"kind": "constant", "value": "0.5"}, {"kind": "constant"},
    {"kind": "hash-random", "seed": 3, "low": 0.5, "high": 1.5},
    {"kind": "hash-random", "seed": 3, "low": 0.0, "high": 0.9},
    {"kind": "hash-random", "seed": 3, "low": 0.9, "high": 0.5},
    {"kind": "hash-random", "seed": 3, "low": math.nan, "high": 0.9},
    {"kind": "hash-random", "seed": 3, "low": 0.5, "high": math.nan},
    {"kind": "hash-random", "seed": 3, "low": 0.5, "high": math.inf},
    {"kind": "hash-random", "seed": 2.5, "low": 0.5, "high": 0.9},
    {"kind": "hash-random", "seed": True, "low": 0.5, "high": 0.9},
    {"kind": "hash-random", "seed": math.nan, "low": 0.5, "high": 0.9},
    {"kind": "hash-random", "seed": 3, "high": 0.9},
    {"kind": "geometric", "value": 0.5}, [0.5],
])
def test_bad_backward_weights_exit_before_output(tmp_path, capsys, weights):
    spec = write(tmp_path, "bad.json", {"branches": 1, "weights": weights})
    assert main(["cyclic", "--backward", spec, "--schedule", "4", "--window-k", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "WeightError" in captured.err


@pytest.mark.parametrize("doc", [
    [1], {"weights": {"kind": "constant", "value": 0.5}}, {"branches": 1.5},
    {"branches": True}, {"branches": "2"}, {"branches": 0},
    {"branches": 1, "zeros": [[0]]}, {"branches": 1, "zeros": 3},
    {"branches": 1, "zeros": [[0, 2.5]]}, {"branches": 1, "zeros": [[1, 0]]},
])
def test_bad_backward_shape_exit_before_output(tmp_path, capsys, doc):
    spec = write(tmp_path, "bad.json", doc)
    assert main(["cyclic", "--backward", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_backward_zero_weights_come_only_from_zeros(tmp_path, capsys):
    spec = write(tmp_path, "zeros.json", {"branches": 1, "weights": {"kind": "constant",
                                                                     "value": 1},
                                          "zeros": [[0, 3.0]]})
    assert main(["cyclic", "--backward", spec]) == 0
    assert "1 zero weight(s)" in capsys.readouterr().out


@pytest.mark.parametrize("name,key,params", [
    ("step", "cut", {"low": 0.5, "high": 0.7}),
    ("exp-ray", "start_level", {"base": 2.0}),
    ("hash-random", "seed", {"low": 0.5, "high": 0.7}),
])
@pytest.mark.parametrize("value", [2.5, True, "2", math.nan])
def test_non_integer_family_params_exit_code(specs, tmp_path, capsys, name, key, params,
                                            value):
    path = write(tmp_path, "w.json", {"kind": "family", "name": name,
                                      "params": {**params, key: value}})
    assert main(["analyze", "--tree", specs["bilateral"], "--weights", path,
                 "--levels=-2:2"]) == 2
    err = capsys.readouterr().err
    assert "WeightError" in err and "must be an integer" in err


@pytest.mark.parametrize("name,key,params", [
    ("step", "cut", {"low": 0.5, "high": 0.7}),
    ("exp-ray", "start_level", {"base": 2.0}),
    ("hash-random", "seed", {"low": 0.5, "high": 0.7}),
])
def test_integral_float_family_params_are_accepted(specs, tmp_path, capsys, name, key, params):
    outputs = []
    for value in (2, 2.0):
        path = write(tmp_path, "w.json", {"kind": "family", "name": name,
                                          "params": {**params, key: value}})
        assert main(["analyze", "--tree", specs["bilateral"], "--weights", path,
                     "--levels=-2:2", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("doc", [
    None, [1], 3,
    {"vertices": None, "edges": []}, {"vertices": ["r"], "edges": {}},
    {"vertices": "r", "edges": []}, {"edges": []}, {"vertices": ["r"]},
    {"vertices": ["r", 1], "edges": []}, {"vertices": ["r", "a"], "edges": [["r"]]},
    {"vertices": ["r", "a"], "edges": [["r", ["a"]]]}, {"vertices": ["r", "a"], "edges": [1]},
    {"family": "comb", "params": [1]}, {"family": "tilde", "params": 2},
], ids=repr)
def test_malformed_tree_doc_exit_code(tmp_path, capsys, doc):
    path = write(tmp_path, "tree.json", doc)
    assert main(["validate", "--tree", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: TreeSpecError: ") and err.count("\n") == 1


@pytest.mark.parametrize("law,levels,line", [
    # 0.4995^1074 underflows to 0: met by the forward descent below a deep
    # window, and by the adjoint chain above a shallow one.  The unit weight
    # at level 0 keeps the family bound M^2 < 1 from proving the limits 0,
    # which would skip both.
    ({"name": "geometric", "params": {"scale": 1.0, "ratio": 0.4995}}, "1070:1071",
     "geometric weight at level 1074 is out of range (0.0)"),
    ({"name": "geometric", "params": {"scale": 1.0, "ratio": 0.4995}}, "-1071:-1070",
     "geometric weight at level -1074 is out of range (0.0)"),
    # exp(-2^10) underflows to 0, six levels above the window
    ({"name": "exp-ray", "params": {"base": 2.0, "start_level": -20}}, "-5:-4",
     "exp-ray weight at level -10 is out of range (0.0)"),
])
def test_a_level_law_out_of_range_names_its_level(specs, tmp_path, capsys, law, levels, line):
    weights = write(tmp_path, "law.json", {"kind": "family", **law})
    assert main(["analyze", "--tree", specs["bilateral"], "--weights", weights,
                 f"--levels={levels}"]) == 2
    assert capsys.readouterr() == ("", f"error: WeightError: {line}\n")


def _subprocess_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(treeshift.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_weight_error_names_the_same_vertex_under_every_hash_seed(specs, tmp_path):
    weights = write(tmp_path, "partial.json", {"kind": "map", "values": {"a": 0.6, "b": 0.8}})
    argv = [sys.executable, "-m", "treeshift.cli", "analyze", "--tree", specs["tilde"],
            "--weights", weights, "--levels=-2:2"]
    errs = set()
    for seed in range(1, 7):
        done = subprocess.run(argv, env={**_subprocess_env(), "PYTHONHASHSEED": str(seed)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        errs.add(done.stderr)
    assert len(errs) == 1 and "WeightError" in errs.pop()


def test_structural_violation_names_the_same_vertex_under_every_hash_seed(specs, tmp_path):
    # 2 * scale^2 > 1: the family bound proves nothing, and the capped
    # descents' upper bounds are thresholded
    weights = write(tmp_path, "geometric.json", {"kind": "family", "name": "geometric",
                                                  "params": {"scale": BINARY_ISOMETRY,
                                                             "ratio": 0.9}})
    argv = [sys.executable, "-m", "treeshift.cli", "analyze", "--tree", specs["binary"],
            "--weights", weights, "--levels=-2:2", "--depth", "12"]
    errs = []
    for seed in (0, 1):
        done = subprocess.run(argv, env={**_subprocess_env(), "PYTHONHASHSEED": str(seed)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        errs.append(done.stderr)
    assert errs[0] == errs[1] and "StructuralViolation" in errs[0]


def test_reader_closing_early_exits_1_without_an_error_line(specs, tmp_path):
    # About 200 kB of records: more than the pipe holds, so the writer is
    # still printing when the reader goes away.
    decay = write(tmp_path, "decay.json", {"kind": "constant", "value": 0.6})
    argv = [sys.executable, "-m", "treeshift.cli", "analyze", "--json", "--tree",
            specs["binary"], "--weights", decay, "--levels", "0:9", "--breadth", "256"]
    proc = subprocess.Popen(argv, env=_subprocess_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert json.loads(proc.stdout.readline())["record"] == "norm"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


_COLD_START = """
import sys

import treeshift
import treeshift.cli
from treeshift.cli import main

assert "numpy" not in sys.modules, "importing treeshift loads numpy"
assert "hashlib" not in sys.modules, "importing treeshift loads hashlib"
assert "dataclasses" not in sys.modules, "importing treeshift loads dataclasses"
assert "inspect" not in sys.modules, "importing treeshift loads inspect"
for name in ("argparse", "gettext"):
    assert name not in sys.modules, f"importing treeshift.cli loads {name}"
# the layers of one command each, loaded by the command that uses it
lazy = ("treeshift.cyclicity", "treeshift.similarity")
for name in lazy:
    assert name not in sys.modules, f"importing treeshift.cli loads {name}"
star, star_w, binary, decay, hashed, tilde, tilde_w, backward, hashed_backward = sys.argv[1:]
for argv, code, loaded in (
        (["validate", "--tree", star], 0, ()),
        (["analyze", "--tree", binary, "--weights", decay, "--levels=0:2"], 0, ()),
        (["analyze", "--tree", binary, "--weights", hashed, "--levels=0:2"], 0, ()),
        (["asymptote", "--tree", binary, "--weights", decay, "--levels=0:2"], 4, ()),
        (["oracle", "--tree", star, "--weights", star_w, "--levels", "0:2"], 0, ()),
        (["similarity", "--tree", tilde, "--weights", tilde_w, "--levels=-4:4"], 0,
         ("treeshift.similarity",)),
        (["cyclic", "--tree", tilde, "--weights", tilde_w, "--levels=-6:6"], 0, lazy)):
    assert main(argv) == code, argv
    assert "numpy" not in sys.modules, f"{argv[0]} loads numpy"
    for name in lazy:
        assert (name in sys.modules) == (name in loaded), f"after {argv[0]}: {name}"
assert "hashlib" in sys.modules, "the hash-random analyze run hashed nothing"
assert main(["cyclic", "--backward", backward, "--window-k", "8"]) == 0
assert "numpy" in sys.modules, "cyclic --backward ran without numpy"
assert main(["cyclic", "--backward", hashed_backward, "--window-k", "8"]) == 0
for name in ("argparse", "gettext"):
    assert name not in sys.modules, f"a well-formed call loads {name}"
try:
    main(["analyze", "--tree", binary, "--weights", decay, "--depth=0"])
except SystemExit as exc:
    assert exc.code == 2, exc.code
else:
    raise AssertionError("--depth=0 was accepted")
"""


def test_matrix_free_subcommands_start_without_numpy(specs, tmp_path):
    """A fresh interpreter, as the ``treeshift`` command starts, imports
    numpy only for ``cyclic --backward`` (hashed tree weights load none),
    and importing ``treeshift.cli`` loads neither hashlib nor dataclasses
    nor inspect."""
    decay = write(tmp_path, "decay.json", {"kind": "constant", "value": 0.6})
    hashed = write(tmp_path, "hashed.json", {"kind": "family", "name": "hash-random",
                                             "params": {"seed": 3, "low": 0.3, "high": 0.65}})
    hashed_backward = write(tmp_path, "hashed_backward.json",
                            {"branches": 2, "weights": {"kind": "hash-random", "seed": 5,
                                                        "low": 0.5, "high": 0.99}})
    stderr = _run_fresh(_COLD_START, specs["star"], specs["star_w"], specs["binary"], decay,
                        hashed, specs["tilde"], specs["tilde_w"], specs["backward"],
                        hashed_backward)
    assert "error: argument --depth: must be >= 1, got 0" in stderr


def _run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout, with
    no bytecode cache, as the ``treeshift`` command starts; it must exit 0.
    Returns its standard error."""
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env={**_subprocess_env(), "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stderr


def test_a_name_bound_in_cli_before_its_layer_loads_keeps_its_value(specs):
    """A tracer binds its wrapper in ``cli`` before the first ``cyclic``
    run; loading ``cyclicity`` then keeps the wrapper, which the run calls."""
    _run_fresh("""
import sys
import treeshift.cli as cli
calls = []
def spy(*args):
    from treeshift.cyclicity import construct_backward_cyclic
    calls.append(args)
    return construct_backward_cyclic(*args)
cli.construct_backward_cyclic = spy
assert "treeshift.cyclicity" not in sys.modules
assert cli.main(["cyclic", "--backward", sys.argv[1], "--window-k", "8"]) == 0
assert len(calls) == 1, calls
assert cli.construct_backward_cyclic is spy
""", specs["backward"])


def test_every_traced_name_reads_as_its_home_modules_object():
    """``getattr(cli, name)`` for each name the benchmark's tracer wraps is
    the object of that name in its home layer, loaded on first access."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    _run_fresh("""
import importlib, sys
sys.path.insert(0, sys.argv[1])
from tracing import TRACED_FUNCTIONS
from treeshift import cli
for name, layer in TRACED_FUNCTIONS.items():
    home = importlib.import_module(f"treeshift.{layer}")
    assert getattr(cli, name) is getattr(home, name), name
try:
    cli.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("cli.no_such_name was found")
""", perfbench)


def test_import_treeshift_loads_no_layer():
    _run_fresh("""
import sys
import treeshift
loaded = sorted(name for name in sys.modules if name.startswith("treeshift"))
assert loaded == ["treeshift", "treeshift.errors"], loaded
""")


def test_star_import_binds_every_public_name_to_its_home_object():
    _run_fresh("""
import sys, types
import treeshift
from treeshift import *
for name in treeshift.__all__:
    value = globals()[name]
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"treeshift.{name}"], name
    else:
        assert value.__module__.startswith("treeshift."), (name, value.__module__)
        assert getattr(sys.modules[value.__module__], name) is value, name
assert len(set(treeshift.__all__)) == len(treeshift.__all__) == 35
""")


_TREE_FLAGS = ["--tree", "--levels", "--breadth", "--json"]
_OPERATOR_FLAGS = _TREE_FLAGS + ["--weights"]
_ANALYSIS_FLAGS = _OPERATOR_FLAGS + ["--tol", "--zero-th", "--depth"]
_HELP = {"validate": _TREE_FLAGS, "analyze": _ANALYSIS_FLAGS, "asymptote": _ANALYSIS_FLAGS,
         "adjoint-asymptote": _ANALYSIS_FLAGS, "similarity": _OPERATOR_FLAGS,
         "oracle": _OPERATOR_FLAGS,
         "cyclic": _ANALYSIS_FLAGS + ["--backward", "--schedule", "--window-k"]}


@pytest.mark.parametrize("argv,names", [(["-h"], list(_HELP)),
                                        *(([command, "-h"], flags)
                                          for command, flags in _HELP.items())])
def test_help_exits_0_naming_every_command_and_flag(argv, names, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: treeshift {' '.join(argv[:-1])}".rstrip())
    for name in names:
        assert name in out, (argv, name)


@pytest.mark.parametrize("command,tree,flag", [("similarity", "tilde", ["--depth", "5"]),
                                               ("oracle", "star", ["--tol", "1e-3"])])
def test_similarity_and_oracle_reject_the_analysis_flags(specs, capsys, command, tree, flag):
    """The two commands read no --tol, --zero-th or --depth, so they take none:
    argparse names the flag, and their help lists none of the three."""
    argv = [command, "--tree", specs[tree], "--weights", specs[f"{tree}_w"], "--levels=-3:3"]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")
    with pytest.raises(SystemExit):
        main([command, "-h"])
    out = capsys.readouterr().out
    assert not [name for name in ("--tol", "--zero-th", "--depth") if name in out]


def test_a_file_holding_a_json_string_is_not_decoded_twice(specs, tmp_path, capsys):
    tree = write(tmp_path, "tree.json", json.dumps({"family": "tilde", "params": {}}))
    weights = write(tmp_path, "weights.json", json.dumps({"kind": "constant", "value": 0.5}))
    backward = write(tmp_path, "backward.json", json.dumps({"branches": 1}))
    assert main(["validate", "--tree", tree]) == 2
    assert main(["analyze", "--tree", specs["tilde"], "--weights", weights]) == 2
    assert main(["cyclic", "--backward", backward]) == 2
    errors = [line.split(":")[1].strip() for line in capsys.readouterr().err.splitlines()]
    assert errors == ["TreeSpecError", "WeightError", "TreeSpecError"]


def test_a_window_below_a_finite_tree_fails_at_once(tmp_path):
    """The levels of a tree are contiguous: an empty first level ends the
    window build, however deep the requested range reaches."""
    path = write(tmp_path, "path.json", {"vertices": ["r", "a", "b"],
                                         "edges": [["r", "a"], ["a", "b"]]})
    argv = [sys.executable, "-m", "treeshift.cli", "validate", "--tree", path,
            "--levels=5:1000000000000"]
    done = subprocess.run(argv, env=_subprocess_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: EmptyWindow: window [5,1000000000000] contains no vertices\n"


@pytest.mark.parametrize("tree,levels", [
    ({"vertices": ["r", "a"], "edges": [["r", "a"]]}, "3:9"),
    ({"vertices": ["r", "a"], "edges": [["r", "a"]]}, "-4:-1"),
    ({"family": "rooted-path"}, "-4:-1"),
    ({"family": "comb", "params": {"primed_leaf": 2, "unprimed_leaf": 4}}, "6:9")])
def test_empty_window_message(tmp_path, capsys, tree, levels):
    assert main(["validate", "--tree", write(tmp_path, "tree.json", tree),
                 f"--levels={levels}"]) == 2
    out, err = capsys.readouterr()
    lo, hi = levels.split(":")
    assert out == "" and err == f"error: EmptyWindow: window [{lo},{hi}] contains no vertices\n"


@pytest.mark.parametrize("value,shown", [(None, "null"), (True, "true"), ("1'", '"1\'"')])
def test_bad_values_are_shown_as_json(tmp_path, capsys, value, shown):
    tilde = write(tmp_path, "tilde.json", {"family": "tilde"})
    runs = [["validate", "--tree", write(tmp_path, "tree.json", value)],
            ["cyclic", "--backward", write(tmp_path, "backward.json", {
                "branches": 1, "weights": {"kind": "constant", "value": value}})],
            ["cyclic", "--backward", write(tmp_path, "seed.json", {
                "branches": 1, "weights": {"kind": "hash-random", "seed": value,
                                           "low": 0.5, "high": 0.9}})]]
    if value is not None:  # a null leaf is the default: no leaf
        runs.append(["validate", "--tree", write(tmp_path, "comb.json", {
            "family": "comb", "params": {"primed_leaf": value}})])
        runs.append(["analyze", "--tree", tilde, "--weights", write(tmp_path, "step.json", {
            "kind": "family", "name": "step", "params": {"low": 0.5, "high": 0.6,
                                                         "cut": value}})])
    if value is not True:  # a boolean weight reads as the number 1
        runs.append(["analyze", "--tree", tilde, "--weights", write(
            tmp_path, "weights.json", {"kind": "constant", "value": value})])
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.endswith(f"got {shown}\n") and err.count("\n") == 1, err


def test_long_bad_values_are_cut(tmp_path, capsys):
    long_list = list(range(10_000))
    tilde = write(tmp_path, "tilde.json", {"family": "tilde"})
    runs = {
        "tree": ["validate", "--tree", write(tmp_path, "tree.json", long_list)],
        "map": ["analyze", "--tree", tilde, "--weights",
                write(tmp_path, "map.json", {"kind": "map", "values": long_list})],
        "params": ["analyze", "--tree", tilde, "--weights",
                   write(tmp_path, "params.json", {"kind": "family", "name": "step",
                                                   "params": long_list})],
        "zeros": ["cyclic", "--backward",
                  write(tmp_path, "zeros.json", {"branches": 1, "zeros": long_list})],
    }
    cut = json.dumps(long_list)[:57] + "..."
    for name, argv in runs.items():
        assert main(argv) == 2, name
        err = capsys.readouterr().err
        assert err.endswith(f"got {cut}\n") and err.count("\n") == 1, (name, err)


@pytest.mark.parametrize("value,shown", [(True, "true"), (False, "false"), ("0.5", '"0.5"'),
                                         (" 7e-1 ", '" 7e-1 "'), ("1", '"1"')])
def test_weight_numbers_reject_booleans_and_strings(tmp_path, capsys, value, shown):
    tilde = write(tmp_path, "tilde.json", {"family": "tilde"})
    docs = {
        "constant": {"kind": "constant", "value": value},
        "map": {"kind": "map", "values": {"1": 0.5, "1'": value}, "default": 0.5},
        "map-default": {"kind": "map", "values": {"1": 0.5}, "default": value},
        "geometric": {"kind": "family", "name": "geometric",
                      "params": {"scale": 0.5, "ratio": value}},
        "rays": {"kind": "family", "name": "rays", "params": {"spine": value, "primed": 0.5}},
    }
    for name, doc in docs.items():
        argv = ["analyze", "--tree", tilde, "--weights", write(tmp_path, f"{name}.json", doc)]
        assert main(argv) == 2, name
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"must be a number, got {shown}\n"), (name, err)
        assert err.count("\n") == 1, (name, err)


@pytest.mark.parametrize("value,text", [
    (0.0, "must be finite and strictly positive, got 0.0"),
    (-0.5, "must be finite and strictly positive, got -0.5"),
    (math.inf, "must be finite and strictly positive, got inf"),
    (math.nan, "must be finite and strictly positive, got nan"),
    (1e200, "must be at most 1.34078e+154, so that its square is finite, got 1e+200"),
])
def test_map_weights_name_the_vertex_of_an_out_of_range_value(value, text):
    """A map's in-range floats skip the generic checks; any other value is
    rejected with the vertex it sits at, and a default with its own name."""
    assert MapWeights({"1": 0.5, "1'": 2.0}).head == {"1": 0.5, "1'": 2.0}
    with pytest.raises(WeightError) as err:
        MapWeights({"1": 0.5, "1'": value})
    assert str(err.value) == f"weight at \"1'\" {text}"
    with pytest.raises(WeightError) as err:
        MapWeights({"1": 0.5}, default=value)
    assert str(err.value) == f"default weight {text}"


def test_cyclic_backward_reports_the_exact_certificate(tmp_path, capsys):
    spec = write(tmp_path, "one.json", {"branches": 1, "weights": {
        "kind": "hash-random", "seed": 1, "low": 0.5, "high": 0.99}})
    assert main(["cyclic", "--backward", spec, "--schedule", "40", "--window-k", "200",
                 "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    krylov = [r for r in records if r.get("record") == "krylov"]
    assert len(krylov) == 1
    krylov = krylov[0]
    assert (krylov["rank"], krylov["dimension"], krylov["certified"], krylov["modulus"]) == \
        (201, 201, True, 2 ** 31 - 1)
    assert "numerical_rank" not in krylov and "residual" not in krylov

    short = write(tmp_path, "three.json", {"branches": 3})
    assert main(["cyclic", "--backward", short, "--schedule", "12", "--window-k", "40"]) == 0
    out = capsys.readouterr().out
    assert "rank 79/123 mod 2147483647 (not certified); the window is deeper" in out


def test_cyclic_backward_certified_window_is_cyclic_whatever_the_float_residual(
        tmp_path, capsys):
    spec = write(tmp_path, "one.json", {"branches": 1, "weights": {
        "kind": "hash-random", "seed": 1, "low": 0.5, "high": 0.99}})
    assert main(["cyclic", "--backward", spec, "--schedule", "40", "--window-k", "200",
                 "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    krylov = next(r for r in records if r.get("record") == "krylov")
    assert krylov["certified"] is True
    assert "residual" not in krylov and "numerical_rank" not in krylov


def test_cyclic_backward_short_window_names_its_nonzero_columns(tmp_path, capsys):
    spec = write(tmp_path, "one.json", {"branches": 1, "weights": {
        "kind": "hash-random", "seed": 1, "low": 0.5, "high": 0.99}})
    assert main(["cyclic", "--backward", spec, "--schedule", "16", "--window-k", "200"]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines()
                if x.startswith("candidate verified"))
    assert line == ("candidate verified: rank 137/201 mod 2147483647 (not certified); the "
                    "window is deeper than the candidate's support, so the rank is short by "
                    "counting (137 columns < 201 rows)")


# The (J, L, K) shapes of the backward-cyclic benchmark workload.
BENCHMARK_SHAPES = ((1, 16, 40), (1, 16, 50), (1, 20, 64), (1, 24, 100), (1, 30, 120),
                    (1, 40, 200), (2, 16, 40), (2, 20, 80), (2, 24, 150), (3, 12, 40),
                    (3, 16, 60), (3, 20, 100))


@pytest.mark.parametrize("branches,L,K", BENCHMARK_SHAPES)
def test_cyclic_backward_runs_no_svd_where_the_exact_rank_decides(tmp_path, capsys,
                                                                  monkeypatch, branches, L, K):
    def refuse(*args, **kwargs):
        raise AssertionError("float SVD on a decided window")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    spec = write(tmp_path, "spec.json", {"branches": branches, "weights": {
        "kind": "hash-random", "seed": 5, "low": 0.5, "high": 0.99}})
    assert main(["cyclic", "--backward", spec, "--schedule", str(L), "--window-k", str(K),
                 "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    krylov = next(r for r in records if r.get("record") == "krylov")
    assert krylov["certified"] == (branches * (K + 1) <= L * (L + 1) // 2 + 1)


@pytest.mark.parametrize("branches,L,K,columns", [(2, 24, 150, 301), (1, 40, 200, 821),
                                                   (2, 10, 27, 56)])
def test_cyclic_backward_says_when_the_window_is_deeper_than_the_support(
        tmp_path, capsys, branches, L, K, columns):
    spec = write(tmp_path, "spec.json", {"branches": branches, "weights": {
        "kind": "hash-random", "seed": 1, "low": 0.5, "high": 0.99}})
    argv = ["cyclic", "--backward", spec, "--schedule", str(L), "--window-k", str(K)]
    assert main(argv + ["--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    krylov = next(r for r in records if r.get("record") == "krylov")
    assert set(krylov) == {"record", "rank", "dimension", "range_membership_n2",
                           "certified", "modulus", "columns"}
    assert (krylov["columns"], krylov["dimension"]) == (columns, branches * (K + 1))
    assert main(argv) == 0
    line = next(x for x in capsys.readouterr().out.splitlines()
                if x.startswith("candidate verified"))
    note = (f"; the window is deeper than the candidate's support, so the rank is short by "
            f"counting ({columns} columns < {branches * (K + 1)} rows)")
    if columns < branches * (K + 1):
        assert not krylov["certified"] and line.endswith(note)
    else:
        assert krylov["certified"] and "deeper" not in line


@pytest.mark.parametrize("flag,value", [("--levels", "abc"), ("--levels", "5:1"),
                                        ("--levels", "3"), ("--levels", "1:x"),
                                        ("--breadth", "0"), ("--breadth", "-2"),
                                        ("--breadth", "two")])
def test_bad_window_flags_exit_code(specs, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--tree", specs["tilde"], f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_a_finite_tree_without_vertices_exits_2(tmp_path, capsys):
    tree = write(tmp_path, "empty.json", {"vertices": [], "edges": []})
    assert main(["validate", "--tree", tree]) == 2
    assert capsys.readouterr().err == \
        "error: TreeSpecError: a finite tree needs at least one vertex\n"


@pytest.mark.parametrize("command,family,default", [("similarity", "tilde", 0.5),
                                                    ("analyze", "bilateral-path", 1.0)])
def test_map_keys_that_are_not_vertices_carry_no_weight(tmp_path, capsys, command, family,
                                                        default):
    tree = write(tmp_path, "tree.json", {"family": family})
    weights = write(tmp_path, "weights.json",
                    {"kind": "map", "values": {"x": 0.5, "1": 0.6}, "default": default})
    assert main([command, "--tree", tree, "--weights", weights, "--levels=-2:2"]) == 0
    assert capsys.readouterr().err == ""


def test_a_window_past_the_vertex_cap_exits_5(tmp_path):
    """The cap is checked as levels are added, so a range of 10^8 levels
    fails in about a second instead of exhausting memory."""
    tree = write(tmp_path, "rooted.json", {"family": "rooted-path"})
    argv = [sys.executable, "-m", "treeshift.cli", "validate", "--tree", tree,
            "--levels=0:100000000"]
    done = subprocess.run(argv, env=_subprocess_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 5 and done.stdout == ""
    assert done.stderr == ("error: WindowTooLarge: window has more than the cap of 262144 "
                           "vertices\n")


@pytest.mark.parametrize("weights,schedule,stage", [
    ({"kind": "constant", "value": 0.5}, 39, 38),
    ({"kind": "hash-random", "seed": 3, "low": 1e-200, "high": 1e-200}, 4, 1),
    ({"kind": "hash-random", "seed": 3, "low": 0.5, "high": 0.99}, 50, 44)])
def test_a_stage_bound_that_underflows_exits_5_naming_the_stage(tmp_path, capsys, weights,
                                                                 schedule, stage):
    spec = write(tmp_path, "spec.json", {"branches": 1, "weights": weights})
    for fmt in ([], ["--json"]):
        assert main(["cyclic", "--backward", spec, "--schedule", str(schedule),
                     "--window-k", "40"] + fmt) == 5
        out, err = capsys.readouterr()
        assert err == (f"error: StageUnderflow: stage {stage}: a divisor of the bound "
                       f"Sigma_{stage} underflows to 0.0 in double precision\n")
        assert "candidate verified" not in out and '"krylov"' not in out


def test_the_longest_constant_half_schedule_still_runs(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"branches": 1,
                                         "weights": {"kind": "constant", "value": 0.5}})
    assert main(["cyclic", "--backward", spec, "--schedule", "38", "--window-k", "40"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "candidate verified: rank 41/41" in out
