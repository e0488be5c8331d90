"""Independent reference model of the benchmark's input files.

The correctness checks must not trust the program they check, so this module
re-derives, from the same JSON documents the program reads, the children,
levels and weights of every tree family and weight kind the workloads use,
and the backward-shift weights.  It imports nothing from ``treeshift``.
"""

from __future__ import annotations

import hashlib
import math
import sys


def _primed(v: str) -> bool:
    return v.endswith("'")


class RefTree:
    """Children and level for a tree spec (family or finite)."""

    def __init__(self, doc: dict):
        self.family = doc.get("family")
        params = doc.get("params") or {}
        self.primed_leaf = params.get("primed_leaf")
        self.unprimed_leaf = params.get("unprimed_leaf")
        if self.family is None:
            parent = {v: u for u, v in doc["edges"]}
            root = next(v for v in doc["vertices"] if v not in parent)
            kids = {v: [] for v in doc["vertices"]}
            for u, v in doc["edges"]:
                kids[u].append(v)
            self._kids = {u: tuple(sorted(vs)) for u, vs in kids.items()}
            self._level = {root: 0}
            stack = [root]
            while stack:
                u = stack.pop()
                for v in self._kids[u]:
                    self._level[v] = self._level[u] + 1
                    stack.append(v)

    def children(self, u: str) -> tuple:
        fam = self.family
        if fam is None:
            return self._kids[u]
        if fam in ("rooted-path", "bilateral-path"):
            return (str(int(u) + 1),)
        if fam == "rootless-binary":
            if ":" in u:
                return (u + "0", u + "1")
            return (str(int(u) + 1), f"{u}:1")
        # tilde / comb
        if _primed(u):
            k = int(u[:-1])
            if self.primed_leaf is not None and k >= self.primed_leaf:
                return ()
            return (f"{k + 1}'",)
        n = int(u)
        if self.unprimed_leaf is not None and n >= self.unprimed_leaf:
            return ()
        return ("1", "1'") if n == 0 else (str(n + 1),)

    def level(self, u: str) -> int:
        if self.family is None:
            return self._level[u]
        if self.family == "rootless-binary" and ":" in u:
            m, w = u.split(":", 1)
            return int(m) + len(w)
        return int(u[:-1]) if _primed(u) else int(u)


def hash_unit(key: str) -> float:
    """Uniform [0, 1) value of a keyed blake2b digest, as the input schema defines."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class RefWeights:
    """Weight of a non-root vertex for a weight spec."""

    def __init__(self, doc: dict, tree: RefTree):
        self.doc = doc
        self.tree = tree

    def __call__(self, v: str) -> float:
        doc = self.doc
        kind = doc["kind"]
        if kind == "constant":
            return float(doc["value"])
        if kind == "map":
            if v in doc["values"]:
                return float(doc["values"][v])
            return float(doc["default"])
        name, p = doc["name"], doc["params"]
        lvl = self.tree.level(v)
        if name == "geometric":
            return p["scale"] * p["ratio"] ** abs(lvl)
        if name == "step":
            return p["high"] if lvl > p["cut"] else p["low"]
        if name == "exp-ray":
            return 1.0 if lvl < p["start_level"] else math.exp(-p["base"] ** (-lvl))
        if name == "hash-random":
            return p["low"] + (p["high"] - p["low"]) * hash_unit(f"{p['seed']}:{v}")
        raise ValueError(f"reference model has no weight family {name!r}")


def partial_sum(tree: RefTree, weight: RefWeights, u: str, n: int) -> float:
    """s_n(u): sum over the n-th descendants v of u of the squared weight
    products along the path from u down to v (0 when the cone dies out)."""
    frontier = {u: 1.0}
    for _ in range(n):
        frontier = {v: p * weight(v) ** 2
                    for w, p in frontier.items() for v in tree.children(w)}
    return math.fsum(frontier.values())


def backward_weight(doc: dict, j: int, k: int) -> float:
    """w_{j,k} of a backward-shift spec with constant or hash-random weights."""
    w = doc["weights"]
    if w["kind"] == "constant":
        return float(w["value"])
    return w["low"] + (w["high"] - w["low"]) * hash_unit(f"{w['seed']}:{j}:{k}")


def _prefix_products(doc: dict, schedule: list) -> dict:
    """branch j -> [w_{j,0} * ... * w_{j,t-1} for t = 0..k_L]."""
    kmax = schedule[-1][1]
    prefix = {}
    for j in {j for j, _ in schedule}:
        out = [1.0]
        for k in range(kmax):
            out.append(out[-1] * backward_weight(doc, j, k))
        prefix[j] = out
    return prefix


def sigmas(doc: dict, schedule: list, xi: list) -> list:
    """Stage tail bounds Sigma_1..Sigma_L of a backward-shift cyclic candidate.

    The summation order is that of the construction, so each value computed
    here is bit-identical to the one the construction compared with 2^-m.
    """
    prefix = _prefix_products(doc, schedule)
    result = []
    for m in range(1, len(schedule) + 1):
        j_m, k_m = schedule[m - 1]
        k_prev = schedule[m - 2][1] if m >= 2 else -1
        best = 0.0
        for k in range(k_prev + 1, k_m + 1):
            denom = xi[m - 1] * prefix[j_m][k_m] / prefix[j_m][k_m - k]
            total = 0.0
            for l in range(m + 1, len(schedule) + 1):
                j_l, k_l = schedule[l - 1]
                num = xi[l - 1] * prefix[j_l][k_l] / prefix[j_l][k_l - k]
                total += (num / denom) ** 2
            best = max(best, total)
        result.append(best)
    return result


def sigma_terms_subnormal(doc: dict, schedule: list, xi: list) -> bool:
    """True when some product xi_l * P_{j_l}[k_l] inside Sigma_m falls below
    the smallest normal double, where it loses relative precision."""
    prefix = _prefix_products(doc, schedule)
    return any(x * prefix[j][k] < sys.float_info.min for (j, k), x in zip(schedule, xi))
