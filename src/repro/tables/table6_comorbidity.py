"""Table T6 — §7.4 Figure 7b: the comorbidity query, Conclave vs SMCQL.

Both systems run the same compiled plan through one ``Engine`` code
path (``smcql.runners.run_comorbidity``): the split aggregation's local
Spark pre-counts, then the MPC combine + order-by + limit 10. Only the
MPC backend differs — Conclave's secret sharing (Sharemind-style) vs
SMCQL's garbled circuits (ObliVM-style, with ObliVM's gate rate and
32 GB memory cap) — which is exactly the paper's explanation for the
Figure 7b gap. Distinct diagnosis keys are 10% of the per-party row
count, per §7.4.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..bench_util import Point, run_point
from ..mpc.accounting import Meter
from ..queries import comorbidity as Q
from ..smcql.runners import run_comorbidity

FULL_NS = {
    "conclave": [2000, 20_000, 200_000],
    "smcql": [2000, 20_000, 200_000],
}
QUICK_NS = {
    "conclave": [2000, 20_000],
    "smcql": [2000, 20_000],
}


def _run_system(spark: SparkSession, system: str, n_per_party: int) -> Meter:
    gen = Q.gen_inputs(n_per_party=n_per_party, distinct_key_frac=0.1, seed=1)
    _, meter = run_comorbidity(spark, gen, system)
    return meter


def run(spark: SparkSession, *, quick: bool = False) -> list[Point]:
    ns = QUICK_NS if quick else FULL_NS
    points: list[Point] = []
    for system, sizes in ns.items():
        for n in sizes:
            points.append(run_point(system, n, lambda: _run_system(spark, system, n)))
    return points
