"""Seeded input generator for the three benchmark workloads.

A workload is an endless sequence of rounds.  Round ``r`` of workload ``w``
under seed ``s`` is a fixed list of instance slots whose shapes (tree
family, window, schedule length, Krylov window) never change, while the
numbers inside them (weight parameters, hash seeds, random finite trees)
come from ``random.Random(f"{w}:{s}:{r}")``.  Fixed shapes keep the cost of
a round, and so every end-to-end figure, comparable across seeds; fresh
numbers in every round mean the program never sees the same input twice.

``write_round`` writes the tree, weight and backward-spec JSON files of one
round plus ``manifest.json``, which lists each instance's argv and the set
of exit codes it may return.  The program only ever sees those files.
"""

from __future__ import annotations

import json
import math
import os
import random

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "binary-descent": "level-only weights on the rootless binary tree: nearly all time is "
                      "the forward descent and adjoint sweep in asymptotics",
    "irregular-windows": "per-vertex weights on wide Br=1 windows and random finite trees: "
                         "time spread over shifts, similarity, residuals and the cokernel",
    "backward-cyclic": "backward-shift cyclic vectors: weight hashing, the Sigma_m rescaling "
                       "loop and dense Krylov rank, with no tree layer at all",
}

WORKLOADS = tuple(WHY)

# Seconds one round spent inside ``main`` at the commit that introduced the
# benchmark, on a 2-CPU sandbox (Intel Xeon).  A run of ``--seconds`` covers
# ``ceil(seconds / ROUND_S)`` rounds (see worker.py): a fixed amount of work,
# so a seed always gives the same analyses and the same failures.
ROUND_S = {"binary-descent": 2.8, "irregular-windows": 1.6, "backward-cyclic": 1.15}

OK = [0]
OK_OR_STABLE = [0, 4]  # 4: the stable subtree (or the adjoint) is empty
STABLE = [4]

# Finite-tree sizes used by irregular-windows, per command.
FINITE_SLOTS = (("validate", 100), ("validate", 1000), ("analyze", 200),
                ("analyze", 1000), ("asymptote", 150), ("oracle", 100),
                ("oracle", 250), ("oracle", 500), ("oracle", 1000))

# (branches J, schedule length L, Krylov window K) of backward-cyclic.
BACKWARD_SHAPES = ((1, 16, 40), (1, 16, 50), (1, 20, 64), (1, 24, 100), (1, 30, 120),
                   (1, 40, 200), (2, 16, 40), (2, 20, 80), (2, 24, 150), (3, 12, 40),
                   (3, 16, 60), (3, 20, 100))


class _Round:
    def __init__(self, directory: str):
        self.dir = directory
        self.instances = []
        self.docs = {}

    def file(self, name: str, doc: dict) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self.docs[path] = doc
        return path

    def add(self, slot: str, argv: list, expect: list, family: str | None = None):
        self.instances.append({"slot": slot, "command": argv[0], "argv": argv + ["--json"],
                               "expect": expect, "family": family})


def _tree_argv(cmd, tree, weights, lo, hi, breadth=None):
    argv = [cmd, "--tree", tree]
    if weights is not None:
        argv += ["--weights", weights]
    argv.append(f"--levels={lo}:{hi}")
    if breadth is not None:
        argv += ["--breadth", str(breadth)]
    return argv


def _level_weights(rng, kind):
    """Weights that depend only on the level and keep the binary tree contractive
    (every weight at most 0.7 < 1/sqrt(2))."""
    if kind == "constant":
        return {"kind": "constant", "value": rng.uniform(0.5, 0.69)}
    if kind == "geometric":
        return {"kind": "family", "name": "geometric",
                "params": {"scale": rng.uniform(0.55, 0.7), "ratio": rng.uniform(0.85, 0.99)}}
    if kind == "step":
        return {"kind": "family", "name": "step",
                "params": {"low": rng.uniform(0.5, 0.7), "high": rng.uniform(0.5, 0.7),
                           "cut": rng.choice([-1, 0, 1])}}
    raise ValueError(kind)


def _exp_ray(rng, lo_start, hi_start):
    return {"kind": "family", "name": "exp-ray",
            "params": {"base": rng.uniform(1.5, 3.0), "start_level": rng.randint(lo_start, hi_start)}}


def _binary_descent(rnd: _Round, rng: random.Random):
    binary = rnd.file("binary.json", {"family": "rootless-binary", "params": {}})
    bilateral = rnd.file("bilateral.json", {"family": "bilateral-path", "params": {}})
    rooted = rnd.file("rooted.json", {"family": "rooted-path", "params": {}})
    slots = (("B1", "analyze", "constant", 0, 0), ("B2", "analyze", "geometric", 0, 1),
             ("B3", "analyze", "step", -1, 0), ("B4", "analyze", "constant", 0, 2),
             ("B5", "asymptote", "constant", 0, 1), ("B6", "asymptote", "geometric", 0, 0),
             ("B7", "asymptote", "step", -1, 0))
    for slot, cmd, kind, lo, hi in slots:
        w = rnd.file(f"{slot}.weights.json", _level_weights(rng, kind))
        rnd.add(slot, _tree_argv(cmd, binary, w, lo, hi),
                OK if cmd == "analyze" else OK_OR_STABLE, family="rootless-binary")
    w = rnd.file("P1.weights.json", _exp_ray(rng, -3, 1))
    rnd.add("P1", _tree_argv("analyze", bilateral, w, -3, 3), OK, family="bilateral-path")
    w = rnd.file("P2.weights.json", _exp_ray(rng, -3, 1))
    rnd.add("P2", _tree_argv("asymptote", bilateral, w, -3, 3), OK, family="bilateral-path")
    w = rnd.file("P3.weights.json", {"kind": "family", "name": "geometric",
                                     "params": {"scale": rng.uniform(0.8, 1.0),
                                                "ratio": rng.uniform(0.8, 0.99)}})
    rnd.add("P3", _tree_argv("analyze", rooted, w, 0, 3), OK, family="rooted-path")
    w = rnd.file("P4.weights.json", _exp_ray(rng, 1, 3))
    rnd.add("P4", _tree_argv("asymptote", rooted, w, 0, 3), OK, family="rooted-path")


def _hash_weights(rng):
    """Per-vertex pseudo-random weights; high <= 0.7 keeps the branch vertex of
    the tilde/comb shapes contractive."""
    return {"kind": "family", "name": "hash-random",
            "params": {"seed": rng.randrange(2 ** 31), "low": rng.uniform(0.3, 0.4),
                       "high": rng.uniform(0.6, 0.7)}}


def _padded_map(rng, width, primed_upto):
    """Explicit weights on a random part of the window, padded with 1.0.

    The two children of the branch vertex 0 share a squared sum below 1, so
    the shift stays a contraction; the unit padding keeps the forward and
    adjoint limits away from zero.
    """
    values = {}
    for n in range(-width, width + 1):
        if (n != 1 or not primed_upto) and rng.random() < 0.5:
            values[str(n)] = rng.uniform(0.6, 1.0)
    for k in range(2, primed_upto + 1):
        if rng.random() < 0.5:
            values[f"{k}'"] = rng.uniform(0.6, 1.0)
    if primed_upto:
        theta = rng.uniform(0.2, math.pi / 2 - 0.2)
        values["1"] = 0.999 * math.cos(theta)
        values["1'"] = 0.999 * math.sin(theta)
    return {"kind": "map", "values": values, "default": 1.0}


def _finite_tree(rng, n):
    """Random recursive tree on n vertices with weights scaled so that every
    vertex's children have squared weights summing to at most 0.998."""
    names = [f"v{i:04d}" for i in range(n)]
    edges = [[names[rng.randrange(i)], names[i]] for i in range(1, n)]
    kids = {}
    for u, v in edges:
        kids.setdefault(u, []).append(v)
    values = {}
    for vs in kids.values():
        raw = [rng.uniform(0.2, 1.0) for _ in vs]
        scale = min(1.0, 0.999 / math.sqrt(sum(x * x for x in raw)))
        for v, x in zip(vs, raw):
            values[v] = x * scale
    tree = {"vertices": names, "edges": edges, "root": names[0]}
    return tree, {"kind": "map", "values": values}


def _irregular_windows(rnd: _Round, rng: random.Random):
    tilde = rnd.file("tilde.json", {"family": "tilde", "params": {}})
    bilateral = rnd.file("bilateral.json", {"family": "bilateral-path", "params": {}})
    slots = (("I1", "analyze", "tilde", "hash", OK), ("I2", "analyze", "tilde", "map", OK),
             ("I3", "analyze", "bilateral", "hash", OK),
             ("I4", "asymptote", "tilde", "map", OK),
             ("I5", "asymptote", "tilde", "hash", STABLE),
             ("I6", "asymptote", "bilateral", "map", OK),
             ("I7", "adjoint-asymptote", "tilde", "map", OK),
             ("I8", "adjoint-asymptote", "bilateral", "map", OK),
             ("I9", "similarity", "tilde", "hash", OK), ("I10", "similarity", "tilde", "map", OK),
             ("I11", "similarity", "comb", "hash", OK), ("I12", "cyclic", "tilde", "hash", OK),
             ("I13", "cyclic", "comb", "map", OK), ("I14", "oracle", "tilde", "hash", OK),
             ("I15", "oracle", "comb", "map", OK), ("I16", "oracle", "bilateral", "hash", OK))
    for slot, cmd, shape, kind, expect in slots:
        width = rng.randint(8, 20)
        if shape == "comb":
            leaf = rng.randint(3, 12)
            tree = rnd.file(f"{slot}.tree.json", {"family": "comb", "params": {"primed_leaf": leaf}})
            primed = leaf
        else:
            tree = tilde if shape == "tilde" else bilateral
            primed = width if shape == "tilde" else 0
        doc = _hash_weights(rng) if kind == "hash" else _padded_map(rng, width, primed)
        w = rnd.file(f"{slot}.weights.json", doc)
        rnd.add(slot, _tree_argv(cmd, tree, w, -width, width), expect, family=shape)
    for i, (cmd, n) in enumerate(FINITE_SLOTS, 1):
        tree_doc, weight_doc = _finite_tree(rng, n)
        tree = rnd.file(f"F{i}.tree.json", tree_doc)
        w = None if cmd == "validate" else rnd.file(f"F{i}.weights.json", weight_doc)
        rnd.add(f"F{i}", _tree_argv(cmd, tree, w, 0, n, breadth=n),
                STABLE if cmd == "asymptote" else OK, family="finite")


def _backward_cyclic(rnd: _Round, rng: random.Random):
    for i, (branches, length, window) in enumerate(BACKWARD_SHAPES, 1):
        spec = {"branches": branches,
                "weights": {"kind": "hash-random", "seed": rng.randrange(2 ** 31),
                            "low": 0.5, "high": 0.99}}
        path = rnd.file(f"C{i}.backward.json", spec)
        rnd.add(f"C{i}", ["cyclic", "--backward", path, "--schedule", str(length),
                          "--window-k", str(window)], OK)


_BUILDERS = {"binary-descent": _binary_descent, "irregular-windows": _irregular_windows,
             "backward-cyclic": _backward_cyclic}


def write_round(workload: str, seed: int, index: int, directory: str) -> dict:
    """Write round ``index`` of a workload into ``directory``; return the manifest.

    The manifest holds the instances (argv, expected exit codes, tree family)
    and, for the correctness checks, every JSON document written, by path.
    """
    os.makedirs(directory, exist_ok=True)
    rnd = _Round(directory)
    _BUILDERS[workload](rnd, random.Random(f"{workload}:{seed}:{index}"))
    manifest = {"workload": workload, "seed": seed, "round": index,
                "instances": rnd.instances}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    manifest["docs"] = rnd.docs
    return manifest
