"""Table T4 — §7.3 Figure 6: the credit-card regulation query.

Two systems over growing total record counts:

* **conclave-hybrid** — trust annotations make the regulator an STP, so
  the compiler emits a hybrid join + hybrid aggregations;
* **sharemind** — the same query entirely under secret-sharing MPC,
  whose O(n²) join stops scaling in the tens of thousands (the paper's
  baseline does not complete 30k within two hours; our simulated VM
  OOMs on the quadratic pair state, the same cliff).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from ..bench_util import Point, run_point
from ..core.compiler import CompileOptions, compile_query
from ..mpc.accounting import Meter
from ..queries import credit_card as Q
from ..queries.base import gen_to_spark
from ..runtime.engine import Engine

FULL_NS = {
    "conclave-hybrid": [300, 3000, 30_000, 300_000],
    "sharemind": [300, 3000, 30_000],
}
QUICK_NS = {
    "conclave-hybrid": [300, 3000],
    "sharemind": [300, 3000],
}


def _run_system(spark: SparkSession, system: str, n_total: int) -> Meter:
    spec = Q.build(with_trust=(system == "conclave-hybrid"))
    gen = Q.gen_inputs(n_holders=n_total)
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    data = gen_to_spark(spark, gen)
    eng = Engine(spark, [p.name for p in spec.parties])
    eng.run(plan, data).collect()
    return eng.meter


def run(spark: SparkSession, *, quick: bool = False) -> list[Point]:
    ns = QUICK_NS if quick else FULL_NS
    points: list[Point] = []
    for system, sizes in ns.items():
        for n in sizes:
            points.append(run_point(system, n, lambda: _run_system(spark, system, n)))
    return points
