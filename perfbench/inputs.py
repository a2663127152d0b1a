"""Seeded inputs of the four benchmark workloads.

Only numpy is used here: the parent process generates the inputs and the
worker receives them as JSON, never the seed.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("exponent-curve", "bound-table", "np-oracle", "saddle-corpus")

TERNARY = [[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.0, 0.3, 0.7]]
BAC = [[0.95, 0.05], [0.2, 0.8]]

# The corpus channels are one fixed draw; --seed draws the composition and
# the rate of every item. Capacity and R_inf depend on the channel alone and
# make up all of the item-time tail, so a channel list redrawn per seed moved
# item_ms.p95 by 30-60% between seeds. The size keeps one repetition near
# 20 s on 2 vCPUs, 6-10 s of it in one draw whose R_inf returns +inf.
CORPUS_CHANNEL_SEED = 2026
CORPUS_SIZE = 100
# An item that uses more process CPU time than this stops and fails, so a
# hang cannot overrun the run's time limit. No draw of the corpus comes near
# it: the slowest spends 6-10 s in r_infinity and then returns +inf, which
# the R_inf invariant check counts as the program's own failure.
ITEM_CPU_LIMIT_S = 30.0
ORACLE_EVERY = 10

NP_BUDGETS = 16


def corpus_channels(n: int = CORPUS_SIZE, seed: int = CORPUS_CHANNEL_SEED) -> list[list[list[float]]]:
    """Channels drawn like the test suite's `random_channel`, unfiltered.

    |X|, |Y| uniform on 2..4; every third channel has 30% of its entries
    zeroed (each row keeps its largest entry). No draw is resampled or
    dropped, whatever the library later computes for it.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        rows = rng.dirichlet(np.ones(ny) * 2.0, size=nx)
        if k % 3 == 0:
            mask = rng.random((nx, ny)) < 0.3
            mask[np.arange(nx), rows.argmax(axis=1)] = False
            rows = np.where(mask, 0.0, rows)
            rows = rows / rows.sum(axis=1, keepdims=True)
        out.append(rows.tolist())
    return out


def corpus_items(seed: int, n: int = CORPUS_SIZE) -> list[dict]:
    """The corpus channels with a composition P ~ Dirichlet(4) and a rate
    fraction ~ U(0.3, 0.8) drawn from `seed`."""
    rng = np.random.default_rng(seed)
    items = []
    for rows in corpus_channels(n):
        nx = len(rows)
        items.append(
            {
                "rows": rows,
                "p": rng.dirichlet(np.ones(nx) * 4.0).tolist(),
                "frac": float(rng.uniform(0.3, 0.8)),
            }
        )
    return items


def np_laws(seed: int) -> dict:
    """Four Neyman-Pearson laws with 16 seeded budgets (rates) each, and a
    threshold test.

    Single-letter laws (one row against Q*, BSC against uniform) next to a
    cross-letter composition law whose atom count is a product.
    """
    rng = np.random.default_rng(seed)

    def budgets() -> list[float]:
        return sorted(float(v) for v in rng.uniform(0.02, 0.5, NP_BUDGETS))

    return {
        "bac": BAC,
        "ternary": TERNARY,
        "laws": [
            {"name": "bac-composition", "n": 500, "rates": budgets()},
            {"name": "ternary-row", "n": 400, "rates": budgets()},
            {"name": "ternary-composition", "n": 40, "rates": budgets()},
            {"name": "bsc-binomial", "n": 2000, "rates": budgets()},
        ],
        "threshold": {"n": 500, "zeta": 0.1},
    }


def make_inputs(workload: str, seed: int) -> dict:
    """Everything one run's workers need, as JSON-ready data."""
    if workload == "exponent-curve":
        return {
            "channel": TERNARY,
            "argv": ["exponent", "--R", "0.1:0.4:4", "--resolution", "16"],
        }
    if workload == "bound-table":
        return {
            "channel": BAC,
            "argv": [
                "bound", "--R", "0.15", "--zeta", "0.1", "--P", "0.5,0.5",
                "--N", "64,128,256,512,1024", "--resolution", "16",
            ],
        }
    if workload == "np-oracle":
        return np_laws(seed)
    if workload == "saddle-corpus":
        return {
            "items": corpus_items(seed),
            "cpu_limit_s": ITEM_CPU_LIMIT_S,
            "oracle_every": ORACLE_EVERY,
        }
    raise ValueError(f"unknown workload {workload!r}")
