"""§7.4 execution modes for the aspirin-count and comorbidity queries.

Three runners, matching the paper's Figure 7 comparison:

* ``run_aspirin_smcql`` — SMCQL: slicing on the public patient ID, then
  one small garbled-circuit MPC *per shared slice* on the ObliVM
  backend (join + filters + distinct contribution), single-party slices
  processed locally in Spark;
* ``run_aspirin_conclave`` — Conclave: the same slicing and local Spark
  counts (the paper combined SMCQL's slicing with Conclave by hand), then
  ``aspirin.build()`` through ``compile_query`` + ``Engine`` on the
  shared slices: a §5.3 public join, MPC filters and a §5.4
  sort-eliminated distinct count on the secret-sharing backend;
* ``run_comorbidity`` — ``comorbidity.build()`` through ``compile_query``
  + ``Engine``: the split aggregation's local Spark pre-counts, then the
  MPC combine/sort/limit on the ObliVM-style garbled-circuit backend
  (``"smcql"``) or the Sharemind-style secret-sharing backend
  (``"conclave"``).

Each runner returns ``(result, meter)``; runtimes are the meter's hybrid
clock, whose wall part runs from the meter's creation.
"""
from __future__ import annotations

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from .. import synth_data
from ..backends.oblivc_sim import OBLIVM_GATES_PER_SECOND
from ..core.compiler import CompileOptions, compile_query
from ..mpc.accounting import Meter
from ..mpc.circuits import gate_counts
from ..mpc.gc_backend import WIRE_BYTES
from ..queries import aspirin, comorbidity
from ..queries.base import gen_to_spark
from ..runtime.engine import Engine
from .slicing import key_locations, slice_by_key

_GC_BITS = 32
#: SMCQL spawns one ObliVM garbled-circuit session per shared slice;
#: session setup (JVM circuit generation + OT base phase) costs ~1 s —
#: this is what makes sliced execution minutes-slow at tens of
#: thousands of records (Figure 7a: 14.3 min at 40k rows ≈ 800 slices).
SMCQL_SLICE_SETUP_SECONDS = 1.0


def _oblivm_meter(memory_cap_gib: int = 32) -> Meter:
    """§7.4 setup: SMCQL experiments ran on 32 GB VMs."""
    m = Meter(gc_gates_per_second=OBLIVM_GATES_PER_SECOND)
    m.memory_cap_bytes = memory_cap_gib << 30
    return m


def _local_aspirin_count(spark: SparkSession, diag: pd.DataFrame,
                         med: pd.DataFrame) -> int:
    """One party's clear contribution: distinct c.diff+aspirin patients
    among its single-party slices, computed in Spark."""
    if len(diag) == 0 or len(med) == 0:
        return 0
    d = spark.createDataFrame(diag).where(
        F.col("diag") == synth_data.CDIFF_CODE
    )
    m = spark.createDataFrame(med).where(
        F.col("med") == synth_data.ASPIRIN_CODE
    )
    row = (
        d.join(m, on="patient_id")
        .agg(F.countDistinct("patient_id").alias("c"))
        .collect()[0]
    )
    return int(row["c"])


def _slice_aspirin(spark: SparkSession, gen: dict[str, pd.DataFrame]):
    """SMCQL slicing, shared by both systems: returns the diagnosis and
    medication slices and the local counts of the single-party slices."""
    diag_parts = {"h1": gen["diag_h1"], "h2": gen["diag_h2"]}
    med_parts = {"h1": gen["med_h1"], "h2": gen["med_h2"]}
    locs = key_locations([diag_parts, med_parts], "patient_id")
    dslice = slice_by_key(diag_parts, "patient_id", key_locations=locs)
    mslice = slice_by_key(med_parts, "patient_id", key_locations=locs)
    count = sum(
        _local_aspirin_count(spark, dslice.single[p], mslice.single[p])
        for p in ("h1", "h2")
    )
    return dslice, mslice, count


def run_aspirin_smcql(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *, meter: Meter | None = None
) -> tuple[int, Meter]:
    meter = meter or _oblivm_meter()
    dslice, mslice, count = _slice_aspirin(spark, gen)
    # shared slices: one garbled-circuit MPC per patient slice. SMCQL
    # runs the join *obliviously within each slice* — quadratic in slice
    # size — plus filters and the distinct-count contribution.
    dsh = pd.concat(dslice.shared.values(), ignore_index=True)
    msh = pd.concat(mslice.shared.values(), ignore_index=True)
    dsizes = dsh["patient_id"].value_counts()
    msizes = msh["patient_id"].value_counts()
    sizes = pd.concat([dsizes, msizes], axis=1, keys=["d", "m"]).fillna(0)
    pair_count = float((sizes["d"] * sizes["m"]).sum())
    eq_and, _ = gate_counts("eq", _GC_BITS)
    mux_and, _ = gate_counts("mux", _GC_BITS)
    # per candidate pair: key-eq + the two filter comparisons + result mux
    meter.charge_gates(and_gates=pair_count * (3 * eq_and + 2 * mux_and))
    # per-slice MPCs are small; memory is the largest single slice
    max_pairs = float((sizes["d"] * sizes["m"]).max()) if len(sizes) else 0.0
    meter.charge_memory("smcql slice join", max_pairs * 3 * _GC_BITS * WIRE_BYTES)
    # one ObliVM session per shared slice
    meter.charge_extra(len(sizes) * SMCQL_SLICE_SETUP_SECONDS)
    # semantic result of the sliced MPCs
    matched = dsh[dsh["diag"] == synth_data.CDIFF_CODE].merge(
        msh[msh["med"] == synth_data.ASPIRIN_CODE], on="patient_id"
    )
    count += int(matched["patient_id"].nunique())
    return count, meter


def run_aspirin_conclave(
    spark: SparkSession, gen: dict[str, pd.DataFrame], *, meter: Meter | None = None
) -> tuple[int, Meter]:
    meter = meter or Meter()
    dslice, mslice, count = _slice_aspirin(spark, gen)
    if len(dslice.shared_keys) == 0:
        return count, meter  # no shared slices: nothing enters MPC
    shared = {f"diag_{p}": df for p, df in dslice.shared.items()}
    shared |= {f"med_{p}": df for p, df in mslice.shared.items()}
    spec = aspirin.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    engine = Engine(spark, [p.name for p in spec.parties], meter=meter)
    out = engine.run(plan, gen_to_spark(spark, shared)).toPandas()
    return count + int(out["rx_cnt"].iloc[0]), meter


def run_comorbidity(
    spark: SparkSession, gen: dict[str, pd.DataFrame], system: str, *,
    meter: Meter | None = None,
) -> tuple[pd.DataFrame, Meter]:
    """The comorbidity plan on SMCQL's (``"smcql"``) or Conclave's
    (``"conclave"``) MPC backend."""
    spec = comorbidity.build()
    plan = compile_query(spec.output, CompileOptions(parties=spec.parties))
    inputs = gen_to_spark(spark, gen)
    if system == "smcql":
        backend, meter = "oblivc", meter or _oblivm_meter()
    elif system == "conclave":
        backend = "sharemind"
    else:
        raise ValueError(system)
    engine = Engine(spark, [p.name for p in spec.parties], backend=backend, meter=meter)
    return engine.run(plan, inputs).toPandas(), engine.meter
