"""Sharemind-style MPC stage executor over the secret-sharing VM.

Adapts the protocol library (:mod:`repro.mpc.protocols`) to the
engine's needs: relations carry per-column fixed-point *scales* (power-
of-two exponents) so division/multiplication chains stay in the integer
ring and are descaled on reveal, plus an optional oblivious filter mask
column ``__mask``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..mpc import protocols as P
from ..mpc.secret_sharing import SecretSharingVM, SharedVector
from ..mpc.shared_rel import SharedRelation, share_dataframe

#: fixed-point fraction bits for secret-shared division
FP_BITS = 20
MASK = "__mask"


@dataclass
class SSRel:
    """A secret-shared relation plus engine metadata."""

    rel: SharedRelation
    scales: dict[str, int] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.rel.n_rows

    def scale_of(self, col: str) -> int:
        return self.scales.get(col, 0)

    @property
    def has_mask(self) -> bool:
        return MASK in self.rel.columns


class SharemindBackend:
    """One MPC session across the parties, Sharemind-style."""

    name = "sharemind"

    def __init__(self, vm: SecretSharingVM, rng: np.random.Generator):
        self.vm = vm
        self.rng = rng

    # -------------------------------------------------------------- I/O
    def input_rel(self, pdf: pd.DataFrame) -> SSRel:
        return SSRel(share_dataframe(self.vm, pdf))

    def reveal(self, r: SSRel) -> pd.DataFrame:
        """Open to all parties, de-scaling fixed-point columns to float
        and dropping masked-out rows (mask reveal leaks the filtered
        cardinality — authorized at output time, the recipients see the
        rows anyway)."""
        out = {}
        mask = None
        if r.has_mask:
            mask = self.vm.reveal(r.rel.columns[MASK]) == 1
        for name, vec in r.rel.columns.items():
            if name == MASK:
                continue
            vals = self.vm.reveal(vec)
            if mask is not None:
                vals = vals[mask]
            s = r.scale_of(name)
            out[name] = vals / float(1 << s) if s else vals
        return pd.DataFrame(out)

    # -------------------------------------------------------- operators
    def concat(self, rels: list[SSRel]) -> SSRel:
        scales = rels[0].scales
        for r in rels[1:]:
            if r.scales != scales:
                raise ValueError("concat scale mismatch")
        cols = {
            n: self.vm.concat([r.rel.columns[n] for r in rels])
            for n in rels[0].rel.column_names
        }
        return SSRel(SharedRelation(cols), dict(scales))

    def project(self, r: SSRel, cols: list[str]) -> SSRel:
        keep = list(cols) + ([MASK] if r.has_mask else [])
        return SSRel(
            r.rel.project(keep), {c: r.scales[c] for c in keep if c in r.scales}
        )

    def filter_eq(self, r: SSRel, col: str, value: int) -> SSRel:
        flags = P.filter_eq_flags(self.vm, r.rel.columns[col], value)
        if r.has_mask:
            flags = self.vm.mul(flags, r.rel.columns[MASK])
        cols = dict(r.rel.columns)
        cols[MASK] = flags
        return SSRel(SharedRelation(cols), dict(r.scales))

    def arith(self, r: SSRel, out: str, left: str, op: str, right) -> SSRel:
        lv = r.rel.columns[left]
        ls = r.scale_of(left)
        cols = dict(r.rel.columns)
        scales = dict(r.scales)
        if op == "*":
            if isinstance(right, str):
                cols[out] = self.vm.mul(lv, r.rel.columns[right])
                scales[out] = ls + r.scale_of(right)
            else:
                cols[out] = self.vm.mul_public(lv, int(right))
                scales[out] = ls
        elif op == "/":
            if isinstance(right, str):
                rv = r.rel.columns[right]
                rs = r.scale_of(right)
            else:
                rv = self.vm.share(np.full(r.n_rows, int(right), np.int64))
                rs = 0
            cols[out] = self.vm.div_fixed(lv, rv, 1 << FP_BITS)
            scales[out] = ls - rs + FP_BITS
        else:  # pragma: no cover
            raise ValueError(op)
        return SSRel(SharedRelation(cols), scales)

    def _masked_value(self, r: SSRel, over: str | None, agg_op: str) -> SharedVector:
        """The value vector to aggregate: the `over` column for SUM, ones
        for COUNT — multiplied by the filter mask if present."""
        if agg_op == "count" or over is None:
            v = self.vm.share(np.ones(r.n_rows, np.int64))
        else:
            v = r.rel.columns[over]
        if r.has_mask:
            v = self.vm.mul(v, r.rel.columns[MASK])
        return v

    def aggregate(
        self, r: SSRel, group: list[str], agg_op: str, over: str | None,
        out_col: str, *, input_sorted: bool = False,
    ) -> SSRel:
        val = self._masked_value(r, over, agg_op)
        scale = r.scale_of(over) if (agg_op == "sum" and over) else 0
        if not group:
            out = SharedRelation({out_col: self.vm.sum(val)})
            return SSRel(out, {out_col: scale} if scale else {})
        if len(group) != 1:
            raise NotImplementedError("multi-column group-by")
        work = SharedRelation({group[0]: r.rel.columns[group[0]], out_col: val})
        agg = P.aggregate_sum_by_key(
            self.vm, work, group[0], out_col, self.rng, input_sorted=input_sorted
        )
        return SSRel(agg, {out_col: scale} if scale else {})

    def join(self, left: SSRel, right: SSRel, lk: str, rk: str) -> SSRel:
        if left.has_mask or right.has_mask:
            raise NotImplementedError("join over filtered MPC relations")
        if not lk:  # cross join: broadcast a 1-row right side
            if right.n_rows != 1:
                raise NotImplementedError("cross join needs a scalar right side")
            idx = np.zeros(left.n_rows, dtype=np.int64)
            cols = dict(left.rel.columns)
            for n, v in right.rel.columns.items():
                cols[n] = self.vm.take(v, idx)
            return SSRel(SharedRelation(cols), {**left.scales, **right.scales})
        joined = P.join_cartesian(self.vm, left.rel, right.rel, lk, rk, self.rng)
        return SSRel(joined, {**left.scales, **right.scales})

    def distinct_count(
        self, r: SSRel, col: str, out_col: str, *, input_sorted: bool
    ) -> SSRel:
        key = r.rel.columns[col]
        mask = r.rel.columns[MASK] if r.has_mask else None
        if not input_sorted:
            work_cols = {col: key}
            if mask is not None:
                work_cols[MASK] = mask
            work = P.oblivious_sort(self.vm, SharedRelation(work_cols), col)
            key = work.columns[col]
            mask = work.columns.get(MASK)
        cnt = P.distinct_count_sorted(self.vm, key, mask)
        return SSRel(SharedRelation({out_col: cnt}))

    def sort_by(self, r: SSRel, col: str, ascending: bool) -> SSRel:
        if r.has_mask:
            raise NotImplementedError("sort over filtered MPC relations")
        return SSRel(
            P.oblivious_sort(self.vm, r.rel, col, descending=not ascending),
            dict(r.scales),
        )

    def take(self, r: SSRel, idx) -> SSRel:
        """Rows at public positions (an index array or a slice, e.g. a
        LIMIT): share-local, free."""
        return SSRel(
            SharedRelation({c: self.vm.take(v, idx) for c, v in r.rel.columns.items()}),
            dict(r.scales),
        )

    # ------------------------------------------------ hybrid sub-protocols
    def shuffle(self, r: SSRel) -> SSRel:
        rel, _ = P.oblivious_shuffle(self.vm, r.rel, self.rng)
        return SSRel(rel, dict(r.scales))

    def reveal_col_to(self, r: SSRel, col: str, party: str) -> np.ndarray:
        return self.vm.reveal_to(r.rel.columns[col], party)

    def select_rows(self, r: SSRel, idx: np.ndarray) -> SSRel:
        return SSRel(P.select_by_public_index(self.vm, r.rel, idx), dict(r.scales))

    def reorder_public(self, r: SSRel, order: np.ndarray) -> SSRel:
        return SSRel(
            SharedRelation(
                {c: self.vm.permute_public(v, order) for c, v in r.rel.columns.items()}
            ),
            dict(r.scales),
        )

    def aggregate_stp_sorted(
        self, r: SSRel, order: np.ndarray, same: np.ndarray, group: str,
        agg_op: str, over: str | None, out_col: str,
    ) -> SSRel:
        """MPC half of the §5.3 hybrid aggregation. The STP sorted the
        revealed ``group`` column in the clear: ``order`` lists the rows in
        key order and ``same[i] = [row i has the key of row i-1]`` in that
        order. The parties reorder their shares by ``order`` (public,
        free), the STP shares its flags, a segmented scan accumulates each
        group into its last row, and only the group ends are kept."""
        reordered = self.reorder_public(r, order)
        flags = self.vm.share(same)
        val = self._masked_value(reordered, over, agg_op)
        scale = reordered.scale_of(over) if (agg_op == "sum" and over) else 0
        sums = P.segmented_scan_sum(self.vm, val, flags)
        is_end = np.ones(len(same), dtype=np.int64)
        is_end[:-1] = 1 - same[1:]
        kept = P.keep_group_ends(
            self.vm,
            SharedRelation({group: reordered.rel.columns[group], out_col: sums}),
            self.vm.share(is_end),
            self.rng,
        )
        return SSRel(kept, {out_col: scale} if scale else {})

    def concat_columns(self, a: SSRel, b: SSRel) -> SSRel:
        cols = dict(a.rel.columns)
        for n, v in b.rel.columns.items():
            cols[n] = v
        return SSRel(SharedRelation(cols), {**a.scales, **b.scales})
