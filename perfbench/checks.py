"""Per-analysis correctness checks on the parsed ``--json`` records.

``check`` turns one analysis (instance, exit code, stdout) into an
``Outcome``: the list of failed checks plus the counts the end-to-end
quality ratios are built from.  Every numeric check compares the program's
output with a bound it must satisfy, using ``reference`` for anything that
needs the tree, the weights or the backward-shift spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from reference import RefTree, RefWeights, partial_sum, sigma_terms_subnormal, sigmas

UPPER_BOUND_SLACK = 1e-12  # forward estimate vs the reference partial sum s_4
RECURSION_TOL = 1e-9       # alpha(u) = sum over children v of lambda_v^2 alpha(v)
INTERTWINING_TOL = 1e-8
ORACLE_TOL = 1e-12
SETTLED = ("converged", "exact-zero", "exact-one")
SUBNORMAL = " (some terms fall below the smallest normal double)"

# A failed check is a (name, message) pair with one of these names.
CHECKS = ("exit-code", "raised", "records", "forward-range", "forward-upper-bound",
          "alpha-recursion", "intertwining", "oracle-residual", "sigma-bound",
          "krylov-rank-bound", "krylov-full-rank")


@dataclass(frozen=True)
class KnownDefect:
    """A wrong answer the program gives at the commit that introduced the
    benchmark.  It still counts as a failed analysis; it only keeps a run's
    ``correct`` flag true, so that a new kind of failure stands out."""

    check: str
    description: str
    applies: Callable[[dict, str], bool]  # (instance, failure message)


KNOWN_DEFECTS = {
    "krylov-rank-shortfall": KnownDefect(
        "krylov-full-rank",
        "the floating-point Krylov rank of a one-branch truncation falls short of K+1 "
        "(ROADMAP item 3)",
        lambda inst, msg: True),
    "asymptote-from-capped-descent": KnownDefect(
        "intertwining",
        "on the rootless binary tree the forward descent stops at the frontier cap and "
        "asymptote builds an isometric asymptote from those upper bounds instead of "
        "exiting 4; its own intertwining residual exposes it (ROADMAP item 2)",
        lambda inst, msg: inst["command"] == "asymptote"
        and inst["family"] == "rootless-binary"),
    "thresholded-stable-subtree": KnownDefect(
        "exit-code",
        "the stable subtree is cut at the zero threshold from estimates that are upper "
        "bounds, so it can break its own structural laws and the run exits 2 as if the "
        "input were malformed",
        lambda inst, msg: "StructuralViolation: stable subtree property" in msg),
    "subnormal-sigma": KnownDefect(
        "sigma-bound",
        "after some 40 rescalings the coefficients times the weight prefix products "
        "fall below the smallest normal double, and the construction's own Sigma_m "
        "exceeds 2^-m, so its certificate does not hold",
        lambda inst, msg: msg.endswith(SUBNORMAL)),
}


def known_defect(name: str, instance: dict, message: str):
    """Id of the known defect that explains a failed check, or None."""
    for defect_id, defect in KNOWN_DEFECTS.items():
        if defect.check == name and defect.applies(instance, message):
            return defect_id
    return None


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    estimates: int = 0
    settled: int = 0
    rank: int = 0
    dimension: int = 0

    def fail(self, name: str, message: str):
        self.failures.append((name, message))


def parse_records(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _by_kind(records, kind):
    return [r for r in records if r.get("record") == kind]


def _reference(instance, docs):
    argv = instance["argv"]
    tree = RefTree(docs[argv[argv.index("--tree") + 1]])
    weights = RefWeights(docs[argv[argv.index("--weights") + 1]], tree)
    return tree, weights


def _check_forward(outcome, records, instance, docs):
    alpha = {r["vertex"]: r for r in _by_kind(records, "alpha")}
    if not alpha:
        outcome.fail("records", "no alpha records")
        return
    tree, weight = _reference(instance, docs)
    for u, rec in alpha.items():
        est = rec["estimate"]
        if not 0.0 <= est <= 1.0:
            outcome.fail("forward-range", f"alpha[{u}] = {est} outside [0, 1]")
        bound = partial_sum(tree, weight, u, 4)
        if not est <= bound + UPPER_BOUND_SLACK:
            outcome.fail("forward-upper-bound", f"alpha[{u}] = {est} > s_4 = {bound}")
    for u, rec in alpha.items():
        kids = tree.children(u)
        if rec["status"] not in SETTLED or not all(
                v in alpha and alpha[v]["status"] in SETTLED for v in kids):
            continue
        rhs = sum(weight(v) ** 2 * alpha[v]["estimate"] for v in kids)
        if abs(rec["estimate"] - rhs) > RECURSION_TOL:
            outcome.fail("alpha-recursion",
                         f"alpha[{u}] = {rec['estimate']} but the children give {rhs}")


def _check_residual(outcome, records, kind, key):
    found = _by_kind(records, kind)
    if not found:
        outcome.fail("records", f"no {kind} record")
    for rec in found:
        if not rec[key] <= INTERTWINING_TOL:
            outcome.fail("intertwining", f"{kind} residual {rec[key]} > {INTERTWINING_TOL}")


def _check_oracle(outcome, records):
    found = _by_kind(records, "oracle")
    if not found:
        outcome.fail("records", "no oracle record")
    for rec in found:
        for key in ("apply_residual", "power_residual"):
            if not rec[key] <= ORACLE_TOL:
                outcome.fail("oracle-residual", f"{key} {rec[key]} > {ORACLE_TOL}")


def _check_backward(outcome, records, instance, docs):
    argv = instance["argv"]
    spec = docs[argv[argv.index("--backward") + 1]]
    window_k = int(argv[argv.index("--window-k") + 1])
    krylov = _by_kind(records, "krylov")
    stages = sorted((r for r in records if "stage" in r), key=lambda r: r["stage"])
    if len(krylov) != 1 or not stages:
        outcome.fail("records", "expected one krylov record and the candidate stages")
        return
    schedule = [(r["branch"], r["index"]) for r in stages]
    xi = [r["coefficient"] for r in stages]
    over = [(m, s) for m, s in enumerate(sigmas(spec, schedule, xi), 1) if not s <= 2.0 ** (-m)]
    if over:
        note = SUBNORMAL if sigma_terms_subnormal(spec, schedule, xi) else ""
        for m, s in over:
            outcome.fail("sigma-bound", f"Sigma_{m} = {s} > 2^-{m}{note}")
    rank, dim = krylov[0]["rank"], krylov[0]["dimension"]
    outcome.rank, outcome.dimension = rank, dim
    k_last = max(k for _, k in schedule)
    if rank > min(dim, k_last + 1):
        outcome.fail("krylov-rank-bound", f"rank {rank} > min({dim}, k_L+1={k_last + 1})")
    # For one branch the deepest schedule point puts row i's last nonzero in
    # column k_L - i, so the truncated Krylov matrix has full rank K+1.
    if spec["branches"] == 1 and k_last >= window_k and rank < window_k + 1:
        outcome.fail("krylov-full-rank", f"rank {rank}/{window_k + 1} on a J=1 window "
                                         f"whose true rank is {window_k + 1}")


def _check_records(outcome, instance, records, docs):
    cmd = instance["command"]
    if cmd == "analyze":
        _check_forward(outcome, records, instance, docs)
        for rec in _by_kind(records, "alpha") + _by_kind(records, "a"):
            outcome.estimates += 1
            outcome.settled += rec["status"] in SETTLED
    elif cmd in ("asymptote", "adjoint-asymptote"):
        _check_residual(outcome, records, "intertwining", "residual")
    elif cmd == "similarity":
        _check_residual(outcome, records, "witness", "residual")
    elif cmd == "oracle":
        _check_oracle(outcome, records)
    elif cmd == "cyclic" and "--backward" in instance["argv"]:
        _check_backward(outcome, records, instance, docs)
    elif cmd in ("cyclic", "validate"):
        kind = "verdict" if cmd == "cyclic" else "tree"
        if len(_by_kind(records, kind)) != 1:
            outcome.fail("records", f"expected one {kind} record")


def check(instance: dict, code, stdout: str, docs: dict, raised: str | None = None,
          stderr: str = "") -> Outcome:
    """Every check that applies to one analysis; ``raised`` names an exception
    that escaped ``main``."""
    outcome = Outcome()
    if raised is not None:
        outcome.fail("raised", raised)
        return outcome
    if code not in instance["expect"]:
        outcome.fail("exit-code", f"exit code {code} not in {instance['expect']}: "
                                  f"{stderr.strip()[-300:]}")
        return outcome
    if code != 0:
        return outcome
    try:
        records = parse_records(stdout)
        _check_records(outcome, instance, records, docs)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        outcome.fail("records", f"malformed output: {type(exc).__name__}: {exc}")
    return outcome
