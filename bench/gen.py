"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain data or JSON
text; the program under test only ever sees that text.  Sizes are fixed by
the caller, so the seed changes structure and values but never the load.
"""

from __future__ import annotations

import json
import random

# blocks / edges / expressions of the three fixed CFG sizes.
SIZES = {
    "small": (7, 12, 5),
    "medium": (36, 71, 15),
    "large": (114, 249, 28),
}


def cfg_edges(rng: random.Random, n_blocks: int, n_edges: int) -> list[tuple[int, int]]:
    """A CFG over blocks 0..n-1 with exactly ``n_edges`` edges: entry 0 has
    no predecessors, exit n-1 no successors, every block is reachable from
    the entry and reaches the exit, no self loops, no duplicate edges."""
    while True:
        edges: set[tuple[int, int]] = set()
        for i in range(1, n_blocks):
            edges.add((rng.randrange(i), i))
        for i in range(n_blocks - 1):
            if not any(src == i for src, _ in edges):
                edges.add((i, rng.randrange(i + 1, n_blocks)))
        if len(edges) > n_edges:
            continue
        while len(edges) < n_edges:
            src = rng.randrange(n_blocks - 1)
            dst = rng.randrange(1, n_blocks)
            if src != dst:
                edges.add((src, dst))
        return sorted(edges)


def lcm_problem_text(rng: random.Random, size: str, mode: str, logic: str) -> str:
    """JSON text of an LCM problem of the given size.

    Rows are 0/1 with P(1)=0.4 in crisp mode, U[0,1] in fuzzy mode and
    sorted pairs of two U[0,1] draws in interval mode.  Forward weights are
    1/in-degree, backward weights 1/out-degree.
    """
    n_blocks, n_edges, n_exprs = SIZES[size]
    edges = cfg_edges(rng, n_blocks, n_edges)
    in_deg = [0] * n_blocks
    out_deg = [0] * n_blocks
    for src, dst in edges:
        in_deg[dst] += 1
        out_deg[src] += 1
    blocks = [f"b{i}" for i in range(n_blocks)]

    def cell():
        if mode == "crisp":
            return float(rng.random() < 0.4)
        if mode == "fuzzy":
            return rng.random()
        return sorted((rng.random(), rng.random()))

    def matrix():
        return {b: [cell() for _ in range(n_exprs)] for b in blocks}

    problem = {
        "mode": mode,
        "logic": logic,
        "entry": blocks[0],
        "exit": blocks[-1],
        "blocks": blocks,
        "edges": [
            {"from": blocks[s], "to": blocks[d], "alpha": 1.0 / in_deg[d], "alpha_back": 1.0 / out_deg[s]}
            for s, d in edges
        ],
        "exprs": [f"e{k}" for k in range(n_exprs)],
        "dee": matrix(),
        "uee": matrix(),
        "kill": matrix(),
    }
    return json.dumps(problem)


def anfis_period(seed: int, index: int, length: int, dim: int, flip_every: int):
    """Period ``index`` of a seeded sample stream in [0,1]^dim.

    The label is whether the sample lies above the hyperplane with normal
    (1, -1, 1, ...) through the centre of the cube.  The plane is the same
    for every seed, so that the seed changes the samples but not how hard
    they are to learn, which sets the number of LMS steps.  The regime flips
    (labels invert) every ``flip_every`` periods, which is what drives the
    harness's error rate to the refit threshold.
    """
    w = [(-1.0) ** k for k in range(dim)]
    bias = -0.5 * sum(w)
    rng = random.Random(seed * 1_000_003 + index)
    flipped = (index // flip_every) % 2 == 1
    xs, ys = [], []
    for _ in range(length):
        x = [rng.random() for _ in range(dim)]
        above = sum(a * v for a, v in zip(w, x)) + bias > 0.0
        xs.append(x)
        ys.append(above != flipped)
    return xs, ys
