import random
from pathlib import Path

import pytest

import baseline_loop
from fuzzydfa import And, Const, Edge, FlowGraph, LogicFamily, Not, Or, Var
from fuzzydfa.truth import _FRANK_PRODUCT_BAND

DATA_DIR = Path(__file__).resolve().parents[1] / "demos" / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def on_numpy_loops(family: LogicFamily) -> bool:
    """Whether the array T-norm of ``family`` calls numpy's expm1 and log1p
    (Frank off the product band), so that it gives the scalar T-norm's bits
    only on numpy's baseline loops (see ``baseline_loop``)."""
    return family.kind == "frank" and abs(family.s - 1.0) > _FRANK_PRODUCT_BAND


@pytest.fixture(scope="session")
def baseline() -> dict:
    """What ``baseline_loop.run`` computes on numpy's baseline loops, in one
    child process per test run."""
    return baseline_loop.run()


@pytest.fixture(scope="session")
def libm_baseline(baseline) -> dict:
    """``baseline``, if numpy's expm1 and log1p were the C library's
    there; else the exact checks that need it are skipped."""
    if not baseline["libm"]:
        pytest.skip(baseline_loop.SKIP_REASON)
    return baseline


def ltr_sum(values):
    """Added left to right from 0.0, as the built-in ``sum`` of floats does
    before Python 3.12 (it compensates from 3.12 on), so that generated data
    and oracles are the same on every Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


FAMILIES = [
    LogicFamily.minmax(),
    LogicFamily.product(),
    LogicFamily.lukasiewicz(),
    LogicFamily.frank(0.01),
    LogicFamily.frank(2.0),
    LogicFamily.frank(100.0),
]


def random_family(rng: random.Random) -> LogicFamily:
    pick = rng.randrange(4)
    if pick == 0:
        return LogicFamily.minmax()
    if pick == 1:
        return LogicFamily.product()
    if pick == 2:
        return LogicFamily.lukasiewicz()
    # log-uniform over a moderate range; extreme parameters get their own
    # dedicated limit tests.
    return LogicFamily.frank(10 ** rng.uniform(-3, 3))


def random_formula(rng: random.Random, variables: list[str], depth: int, linear: bool = False):
    """Random formula tree over ``variables``.

    With ``linear=True`` each variable occurs at most once, the shape for
    which the 1-Lipschitz structural induction is exact (a repeated variable
    multiplies the local constant: a & a is a^2 under the product logic).
    """
    pool = list(variables)

    def gen(depth: int):
        if depth <= 0 or rng.random() < 0.3:
            if pool and rng.random() < 0.6:
                name = pool[rng.randrange(len(pool))]
                if linear:
                    pool.remove(name)
                return Var(name)
            return Const(rng.random())
        pick = rng.random()
        if pick < 0.4:
            return And(gen(depth - 1), gen(depth - 1))
        if pick < 0.8:
            return Or(gen(depth - 1), gen(depth - 1))
        return Not(gen(depth - 1))

    return gen(depth)


def random_flowgraph(
    rng: random.Random,
    n_nodes: int = 5,
    start_weight: float = 0.0,
    depth: int = 3,
) -> FlowGraph:
    """A validated random graph over one property "Out".

    Every non-start node collects from a random predecessor set (cycles
    allowed).  With ``start_weight`` > 0 the start contributes at least that
    much to every node, which makes the functional a contraction.
    """
    names = ["start"] + [f"n{i}" for i in range(1, n_nodes)]
    transfers = {}
    edges = []
    for i, name in enumerate(names):
        transfers[name] = {"Out": random_formula(rng, ["In"], depth, linear=True)}
        if i == 0:
            continue
        others = [p for p in names if p != name]
        preds = rng.sample(others, k=rng.randint(1, min(3, len(others))))
        if start_weight > 0.0 and "start" not in preds:
            preds.append("start")
        weights = [rng.random() + 0.05 for _ in preds]
        if start_weight > 0.0:
            rest = ltr_sum(w for p, w in zip(preds, weights) if p != "start")
            if rest == 0.0:
                weights = [1.0 for _ in preds]  # start is the only predecessor
            else:
                scale = (1.0 - start_weight) / rest
                weights = [
                    start_weight if p == "start" else w * scale for p, w in zip(preds, weights)
                ]
        else:
            total = ltr_sum(weights)
            weights = [w / total for w in weights]
        for pred, weight in zip(preds, weights):
            edges.append(Edge(pred, name, weight))
    return FlowGraph(
        transfers=transfers,
        edges=edges,
        start="start",
        seeds={"start": {"Out": rng.random()}},
    )
