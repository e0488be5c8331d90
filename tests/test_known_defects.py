"""The reproductions of ROADMAP's open defects, each run through ``main``.

Every test asserts that its defect is absent, and is marked
``xfail(strict=True)`` with the item it reproduces: while the defect stands
the test fails on its assertion, as expected; the change that mends it must
remove the mark, since a strict xfail that passes fails the run.
"""

import json
import math

import pytest

from treeshift.cli import main
from treeshift.cyclicity import (backward_spec_from_json, construct_backward_cyclic,
                                 sigma_m)


def known(item, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {what}")


def run(tmp_path, capsys, argv, **docs):
    """(exit code, stdout) of ``main(argv)``, after writing each JSON doc of
    ``docs`` to a file and adding it to argv as ``--<name> <file>``."""
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, f"--{name}", str(path)]
    code = main(argv)
    return code, capsys.readouterr().out


@known(1, "a norm within CONTRACTION_SLACK of 1 is printed as a certified 1")
@pytest.mark.parametrize("family,value,levels", [
    ("rootless-binary", 0.7071067811866, "0:1"),
    ("rootless-binary", math.sqrt(0.5), "0:1"),
    ("bilateral-path", 1.00000000000005, "-1:1")])
def test_a_non_contraction_is_not_certified_a_contraction(tmp_path, capsys, family, value,
                                                           levels):
    code, out = run(tmp_path, capsys, ["analyze", f"--levels={levels}"],
                    tree={"family": family}, weights={"kind": "constant", "value": value})
    assert not (code == 0 and "norm: 1 (certified)" in out.splitlines())


@known(2, "the norm bound reads the largest map key, not each column's square-sum")
def test_a_contraction_whose_largest_key_is_above_the_column_bound_is_analyzed(
        tmp_path, capsys):
    # Every column has square-sum at most 2 * 0.6^2 = 0.72.
    code, _ = run(tmp_path, capsys, ["analyze", "--levels=-1:1"],
                  tree={"family": "rootless-binary"},
                  weights={"kind": "map", "values": {"1": 0.75, "0:1": 0.3}, "default": 0.6})
    assert code != 3


@known(2, "a map key that is not a vertex enters the certified norm")
def test_a_key_that_is_not_a_vertex_does_not_set_the_norm(tmp_path, capsys):
    # 1' is not a vertex of the path, so the norm is 0.6.
    _, out = run(tmp_path, capsys, ["analyze", "--levels=-2:2"],
                 tree={"family": "bilateral-path"},
                 weights={"kind": "map", "values": {"1": 0.6, "1'": 0.7}, "default": 0.5})
    assert "norm: 0.7 (certified)" not in out.splitlines()


@known(5, "an upper bound below the zero threshold cuts the stable subtree")
def test_a_steep_exp_ray_has_a_parent_closed_stable_subtree(tmp_path, capsys):
    code, _ = run(tmp_path, capsys, ["analyze", "--levels=-3:3"],
                  tree={"family": "bilateral-path"},
                  weights={"kind": "family", "name": "exp-ray",
                           "params": {"base": 3.0, "start_level": -3}})
    assert code != 2


@known(12, "stage 39's bound exceeds 2^-39 by rounding, and the candidate is certified")
def test_a_certified_candidate_meets_every_stage_bound(tmp_path, capsys):
    doc = {"branches": 1,
           "weights": {"kind": "hash-random", "seed": 929756531, "low": 0.5, "high": 0.99}}
    code, out = run(tmp_path, capsys, ["cyclic", "--schedule", "40", "--json"], backward=doc)
    assert code == 0
    (krylov,) = [record for record in map(json.loads, out.splitlines())
                 if record.get("record") == "krylov"]
    spec = backward_spec_from_json(doc)
    candidate = construct_backward_cyclic(spec, 40)
    sigmas = [sigma_m(candidate, spec, m) for m in range(1, 41)]
    assert not krylov["certified"] or all(s <= 2.0 ** -m for m, s in enumerate(sigmas, 1))
