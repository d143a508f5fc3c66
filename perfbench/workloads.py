"""The benchmark's workloads: three of the paper's queries, each with a
seeded pool of input sets and a DuckDB oracle check.

Pool sizes are log-spaced over the workload's range, ``k`` points from
its low to its high end, each jittered by up to ±2 % from the seed and
clipped to the range. Every seed thus gives the same spread of sizes, and
the jitter never moves a size across a power of two that the MPC sort
pads to, so runs with different seeds are comparable; the sizes and the
data still come from the seed. The pool runs in a fixed interleaved order
(even points, then odd), so consecutive queries differ in size and every
seed sees the same pattern of hits and misses in the sort-network cache.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import duckdb
import numpy as np
import pandas as pd

from repro.queries import comorbidity, credit_card, market_concentration
from repro.queries.base import QuerySpec

#: relative jitter of a pool size around its log-spaced point
SIZE_JITTER = 0.02
#: tolerance for fixed-point columns revealed from MPC
FIXED_POINT_ATOL = 1e-4


class WrongAnswer(AssertionError):
    """The engine's answer disagrees with the DuckDB oracle."""


@dataclass
class InputSet:
    tables: dict[str, pd.DataFrame]
    rows: int
    expected: object = None
    frames: dict = field(default_factory=dict)  # name -> cached Spark DataFrame


@dataclass
class Workload:
    name: str
    build: Callable[[], QuerySpec]
    size_range: tuple[int, int]
    pool_size: int
    gen: Callable[[int, int], dict[str, pd.DataFrame]]
    oracle: Callable[[QuerySpec, dict[str, pd.DataFrame]], object]
    check: Callable[[pd.DataFrame, object], None]
    #: mean seconds per query on the reference box (4 cores); sets how
    #: many passes a run makes, so the work measured does not depend on
    #: the speed of the code under test
    query_s: float
    #: untimed queries on the smallest input set first, until Spark's
    #: JIT-compiled planner settles
    warmup_queries: int

    def passes(self, seconds: float) -> int:
        """The fewest whole passes that take ``seconds`` on the reference box."""
        return max(1, math.ceil(seconds / (self.query_s * self.pool_size) - 1e-9))

    def sizes(self, rng: np.random.Generator) -> list[int]:
        lo, hi = self.size_range
        k = self.pool_size
        order = sorted(range(k), key=lambda i: (i % 2, i))
        out = []
        for i in order:
            point = lo * (hi / lo) ** (i / (k - 1))
            jittered = point * (1 + rng.uniform(-SIZE_JITTER, SIZE_JITTER))
            out.append(int(round(min(hi, max(lo, jittered)))))
        return out

    def make_pool(self, seed: int) -> list[InputSet]:
        rng = np.random.default_rng(seed)
        pool = []
        for size in self.sizes(rng):
            tables = self.gen(size, int(rng.integers(0, 2**31)))
            pool.append(InputSet(tables, sum(len(t) for t in tables.values())))
        return pool


def duck(sql: str, tables: dict[str, pd.DataFrame]) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


# ------------------------------------------------------------ market_hhi
def _market_check(got: pd.DataFrame, expected: float) -> None:
    if len(got) != 1 or not math.isclose(
        float(got["hhi"].iloc[0]), expected, rel_tol=0, abs_tol=FIXED_POINT_ATOL
    ):
        raise WrongAnswer(f"hhi {got.to_dict('list')} != {expected}")


# --------------------------------------------------------- credit_hybrid
def _credit_check(got: pd.DataFrame, expected: pd.DataFrame) -> None:
    got = got.sort_values("zip").reset_index(drop=True)
    exp = expected.sort_values("zip").reset_index(drop=True)
    if len(got) != len(exp):
        raise WrongAnswer(f"{len(got)} zip groups, oracle has {len(exp)}")
    for col in ("zip", "total", "cnt"):
        g = got[col].to_numpy()
        if not np.issubdtype(g.dtype, np.integer) or not np.array_equal(
            g, exp[col].to_numpy().astype(np.int64)
        ):
            raise WrongAnswer(f"column {col} differs from the oracle")
    if not np.allclose(got["avg_score"].to_numpy(dtype=float),
                       exp["avg_score"].to_numpy(dtype=float),
                       rtol=0, atol=FIXED_POINT_ATOL):
        raise WrongAnswer("avg_score differs from the oracle beyond 1e-4")


# ------------------------------------------------------ comorbidity_sort
def _comorbidity_oracle(spec: QuerySpec, tables) -> dict:
    top = duck(spec.oracle_sql, tables)
    groups = duck(
        "SELECT diag, COUNT(*) AS cnt FROM (SELECT * FROM cdiag_h1 "
        "UNION ALL SELECT * FROM cdiag_h2) GROUP BY diag",
        tables,
    )
    return {
        "top_counts": sorted(top["cnt"].astype(int).tolist(), reverse=True),
        "groups": dict(zip(groups["diag"].astype(int), groups["cnt"].astype(int))),
    }


def _comorbidity_check(got: pd.DataFrame, expected: dict) -> None:
    # Ties in the top-10 make the diag choice ambiguous: compare the count
    # multiset, and check that each returned pair is a true group count.
    counts = sorted(got["cnt"].astype(int).tolist(), reverse=True)
    if counts != expected["top_counts"]:
        raise WrongAnswer(f"top counts {counts} != {expected['top_counts']}")
    groups = expected["groups"]
    for diag, cnt in zip(got["diag"].astype(int), got["cnt"].astype(int)):
        if groups.get(diag) != cnt:
            raise WrongAnswer(f"diag {diag} has count {groups.get(diag)}, not {cnt}")


WORKLOADS = {
    "market_hhi": Workload(
        name="market_hhi",
        build=market_concentration.build,
        size_range=(200_000, 400_000),
        pool_size=3,
        gen=lambda n, s: market_concentration.gen_inputs(n_per_party=n, seed=s),
        oracle=lambda spec, t: float(duck(spec.oracle_sql, t)["hhi"].iloc[0]),
        check=_market_check,
        query_s=0.4,
        warmup_queries=10,
    ),
    "credit_hybrid": Workload(
        name="credit_hybrid",
        build=lambda: credit_card.build(with_trust=True),
        size_range=(20_000, 40_000),
        pool_size=5,
        gen=lambda n, s: credit_card.gen_inputs(n_holders=n, seed=s),
        oracle=lambda spec, t: duck(spec.oracle_sql, t),
        check=_credit_check,
        query_s=2.8,
        warmup_queries=1,
    ),
    "comorbidity_sort": Workload(
        name="comorbidity_sort",
        build=comorbidity.build,
        size_range=(40_000, 320_000),
        pool_size=7,
        gen=lambda n, s: comorbidity.gen_inputs(
            n_per_party=n, distinct_key_frac=0.1, seed=s
        ),
        oracle=_comorbidity_oracle,
        check=_comorbidity_check,
        query_s=1.8,
        warmup_queries=3,
    ),
}
