"""Obliv-C-style MPC stage executor over the garbled-circuit backend.

Provides the engine-facing interface for 2-party garbled-circuit
execution of MPC stages (used by the §2.3 microbenchmarks and the
SMCQL baseline, which runs on ObliVM — the same backend with a lower
gate throughput). Hybrid operators are not supported here: the paper's
hybrid protocols are built on the secret-sharing backend.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..mpc.accounting import Meter
from ..mpc.gc_backend import GCBackend, GCRelation

#: ObliVM (SMCQL's backend, Java) is far slower than Obliv-C (§7.4):
#: calibrated so 20k-row MPC aggregation+sort lands in the >1 h regime.
OBLIVM_GATES_PER_SECOND = 1e5


class OblivcBackend:
    """Engine adapter around :class:`GCBackend`."""

    name = "oblivc"

    def __init__(self, meter: Meter, *, bit_width: int = 32):
        self.gc = GCBackend(meter, bit_width=bit_width)
        self.meter = meter

    def input_rel(self, pdf: pd.DataFrame) -> GCRelation:
        return self.gc.input_relation(pdf)

    def reveal(self, r: GCRelation) -> pd.DataFrame:
        pdf = self.gc.reveal(r)
        if "__mask" in pdf.columns:
            pdf = pdf[pdf["__mask"] == 1].drop(columns="__mask")
        return pdf.reset_index(drop=True)

    def concat(self, rels: list[GCRelation]) -> GCRelation:
        return GCRelation(
            pd.concat([r.pdf for r in rels], ignore_index=True)
        )

    def project(self, r: GCRelation, cols: list[str]) -> GCRelation:
        keep = list(cols) + (["__mask"] if "__mask" in r.pdf.columns else [])
        return self.gc.project(r, keep)

    def filter_eq(self, r: GCRelation, col: str, value: int) -> GCRelation:
        return self.gc.filter_eq(r, col, value)

    def arith(self, r: GCRelation, out: str, left: str, op: str, right) -> GCRelation:
        raise NotImplementedError(
            "garbled-circuit backend supports relational ops only in this "
            "reproduction; arithmetic-heavy queries run on Sharemind (§7.4)"
        )

    def aggregate(
        self, r: GCRelation, group: list[str], agg_op: str, over: str | None,
        out_col: str, *, input_sorted: bool = False,
    ) -> GCRelation:
        pdf = r.pdf
        if agg_op == "count" or over is None:
            pdf = pdf.copy()
            pdf["__ones"] = np.int64(1)
            over = "__ones"
            r = GCRelation(pdf)
        if not group:
            # scalar sum: an adder chain, linear gates
            from ..mpc.circuits import gate_counts

            add_and, _ = gate_counts("add", self.gc.k)
            self.meter.charge_gates(and_gates=r.n_rows * add_and)
            work = pdf[pdf["__mask"] == 1] if "__mask" in pdf.columns else pdf
            return GCRelation(
                pd.DataFrame({out_col: [np.int64(work[over].sum())]})
            )
        out = self.gc.agg_sum_by_key(
            self.gc.project(r, [group[0], over]), group[0], over,
            presorted=input_sorted,
        )
        return GCRelation(out.pdf.rename(columns={over: out_col}))

    def join(self, left: GCRelation, right: GCRelation, lk: str, rk: str) -> GCRelation:
        if not lk:
            raise NotImplementedError("cross join unsupported on GC backend")
        return self.gc.join(left, right, lk, rk)

    def distinct_count(
        self, r: GCRelation, col: str, out_col: str, *, input_sorted: bool
    ) -> GCRelation:
        cnt = self.gc.distinct_count(r, col, presorted=input_sorted)
        return GCRelation(pd.DataFrame({out_col: [np.int64(cnt)]}))

    def sort_by(self, r: GCRelation, col: str, ascending: bool) -> GCRelation:
        out = self.gc.top_k_by(r, col, r.n_rows)
        pdf = out.pdf if not ascending else out.pdf.iloc[::-1].reset_index(drop=True)
        return GCRelation(pdf)

    def take(self, r: GCRelation, idx) -> GCRelation:
        """Rows at public positions (an index array or a slice)."""
        return GCRelation(r.pdf.iloc[idx].reset_index(drop=True))

    def concat_columns(self, a: GCRelation, b: GCRelation) -> GCRelation:
        return GCRelation(pd.concat([a.pdf, b.pdf], axis=1))
