"""Multi-party execution engine for compiled Conclave plans.

Interprets the annotated DAG in topological order, exactly mirroring the
paper's deployment model:

* each simulated party's local data lives in Spark DataFrames, and every
  ``("clear", party)`` node runs as Spark DataFrame transformations on
  that party's data (§4.1: "optionally, a parallel data processing
  system");
* ``("mpc",)`` nodes run on the selected MPC backend (Sharemind-style
  secret sharing or Obliv-C-style garbled circuits) over secret-shared
  state, entered via ``inputToMPC`` (``DataFrame.toPandas`` → share) and
  left via ``revealTo`` (reveal → ``spark.createDataFrame``);
* ``("hybrid", stp)`` nodes execute the §5.3 hybrid join / hybrid
  aggregation, with the STP's cleartext steps in Spark;
* ``("public", party)`` nodes execute the public join: key columns move
  in the clear, only matching rows re-enter MPC (or, when nothing
  downstream needs MPC, the result is assembled in the clear).

The STP's and the public join's clear steps join or sort (key, row
position) arrays the engine already holds, so they run as
single-partition Spark plans (``to_spark_single_partition``): Catalyst
plans them with no shuffle. Clear stages over the parties' own inputs
keep the session's shuffle partitions.

The engine only dispatches. A value is either a :class:`ClearVal` or an
opaque backend value, which it passes to the backend's public methods
(``input_rel``, ``reveal``, the relational operators, ``take`` and the
hybrid operators' MPC steps) and never looks inside. The STP's Spark steps and
the clear transfers run here, between backend calls.

All MPC/communication work is charged to one :class:`Meter`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..backends.oblivc_sim import OblivcBackend
from ..backends.sharemind_sim import SharemindBackend
from ..backends.spark_clear import (
    exec_clear_node,
    to_spark,
    to_spark_single_partition,
)
from ..core import dag as D
from ..core.compiler import Plan
from ..mpc.accounting import Meter
from ..mpc.secret_sharing import SecretSharingVM


@dataclass
class ClearVal:
    """A relation in the clear, one Spark DataFrame per party holding a
    part of it (a single entry unless it is a partitioned concat)."""

    parts: dict[str, DataFrame]


class Engine:
    """Executes a compiled plan across simulated parties."""

    def __init__(
        self,
        spark: SparkSession,
        parties: list[str],
        *,
        backend: str = "sharemind",
        meter: Meter | None = None,
        seed: int = 17,
    ):
        self.spark = spark
        self.parties = list(parties)
        self.meter = meter if meter is not None else Meter()
        self.rng = np.random.default_rng(seed)
        if backend == "sharemind":
            vm = SecretSharingVM(n_parties=len(parties), meter=self.meter, seed=seed)
            self.backend = SharemindBackend(vm, self.rng)
        elif backend == "oblivc":
            self.backend = OblivcBackend(self.meter)
        else:  # pragma: no cover
            raise ValueError(backend)

    # ------------------------------------------------------------ helpers
    def _charge_transfer(self, n_rows: int, n_cols: int) -> None:
        self.meter.charge_comm(rounds=1, bytes_sent=float(n_rows) * n_cols * 8)

    def _ensure_mpc(self, val):
        """inputToMPC: secret-share each part of a clear relation."""
        if not isinstance(val, ClearVal):
            return val
        shared = [
            self.backend.input_rel(df.toPandas()) for _, df in sorted(val.parts.items())
        ]
        return shared[0] if len(shared) == 1 else self.backend.concat(shared)

    def _as_clear_at(self, val, party: str) -> DataFrame:
        """The relation as one DataFrame at ``party``: parts held elsewhere
        are shipped there, a backend value is revealed (revealTo)."""
        if not isinstance(val, ClearVal):
            return to_spark(self.spark, self.backend.reveal(val))
        for p, df in val.parts.items():
            if p != party:
                self._charge_transfer(df.count(), len(df.columns))
        return reduce(DataFrame.unionByName, val.parts.values())

    @staticmethod
    def _concat_clear(pvals: list[ClearVal]) -> ClearVal:
        """Concat that leaves each party's rows where they are."""
        parts: dict[str, DataFrame] = {}
        for v in pvals:
            for p, df in v.parts.items():
                parts[p] = parts[p].unionByName(df) if p in parts else df
        return ClearVal(parts)

    @staticmethod
    def _downstream_has_mpc(cons: dict[int, list[D.Node]], node: D.Node) -> bool:
        stack, seen = list(cons.get(id(node), [])), set()
        while stack:
            n = stack.pop()
            if id(n) in seen:
                continue
            seen.add(id(n))
            if n.site and n.site[0] in ("mpc", "hybrid"):
                return True
            stack.extend(cons.get(id(n), []))
        return False

    # ---------------------------------------------------------------- run
    def run(self, plan: Plan, inputs: dict[str, DataFrame]) -> DataFrame:
        """Execute the plan; returns the recipient's result DataFrame. The
        meter's wall clock is left running: it counts from the meter's
        creation, so a caller can charge its own steps to the same clock."""
        dag = plan.dag
        cons = dag.consumers()
        values: dict[int, object] = {}
        for n in dag.topo_order():
            pvals = [values[id(p)] for p in n.parents]
            values[id(n)] = self._exec_node(n, pvals, inputs, cons)
        (out,) = values[id(dag.outputs[0])].parts.values()
        return out

    # ----------------------------------------------------------- dispatch
    def _exec_node(self, n: D.Node, pvals, inputs, cons):
        if isinstance(n, D.Input):
            return ClearVal({n.party.name: inputs[n.name].select(*n.out_cols)})
        if isinstance(n, D.Output):
            party = n.recipients[0].name
            return ClearVal({party: self._as_clear_at(pvals[0], party)})
        site = n.site
        assert site is not None, f"uncompiled node {n.name}"
        if isinstance(n, D.Concat) and (
            site[0] == "clear"
            # a concat feeding a public join stays partitioned in the
            # clear — the public join shares only the matching rows
            or any(isinstance(c, D.PublicJoin) for c in cons.get(id(n), []))
        ):
            return self._concat_clear(pvals)
        if site[0] == "clear":
            dfs = [self._as_clear_at(v, site[1]) for v in pvals]
            return ClearVal({site[1]: exec_clear_node(n, dfs)})
        if site[0] == "public":
            return self._exec_public_join(n, pvals, cons)
        if site[0] == "hybrid":
            if not isinstance(self.backend, SharemindBackend):
                raise NotImplementedError(
                    "hybrid operators need the secret-sharing backend"
                )
            if isinstance(n, D.HybridJoin):
                return self._exec_hybrid_join(n, pvals)
            return self._exec_hybrid_agg(n, pvals)
        return self._exec_mpc(n, pvals)

    # --------------------------------------------------------------- mpc
    def _exec_mpc(self, n: D.Node, pvals):
        be = self.backend
        if isinstance(n, D.Concat):
            return be.concat([self._ensure_mpc(v) for v in pvals])
        rel = self._ensure_mpc(pvals[0])
        if isinstance(n, D.Project):
            return be.project(rel, n.cols)
        if isinstance(n, D.Filter):
            if n.op != "==":
                raise NotImplementedError(f"MPC filter op {n.op}")
            return be.filter_eq(rel, n.col, n.value)
        if isinstance(n, D.Arith):
            return be.arith(rel, n.out_col, n.left, n.op, n.right)
        if isinstance(n, D.Aggregate):
            return be.aggregate(
                rel, n.group_cols, n.agg_op, n.over, n.out_col,
                input_sorted=n.input_sorted,
            )
        if isinstance(n, D.Join):
            return be.join(rel, self._ensure_mpc(pvals[1]), n.left_key, n.right_key)
        if isinstance(n, D.DistinctCount):
            return be.distinct_count(rel, n.col, n.out_col, input_sorted=n.input_sorted)
        if isinstance(n, D.SortBy):
            return be.sort_by(rel, n.col, n.ascending)
        if isinstance(n, D.Limit):
            return be.take(rel, slice(0, n.n))
        raise NotImplementedError(type(n))  # pragma: no cover

    # ------------------------------------------------------- public join
    def _exec_public_join(self, n: D.PublicJoin, pvals, cons):
        """§5.3 public join. Key columns are public: they travel in the
        clear to ``n.at``, which computes matching row-id pairs with a
        single-partition Spark join and sort. Only matching rows then
        re-enter MPC (or, with no MPC downstream, the result is assembled
        in the clear)."""
        lparts = [df.toPandas() for _, df in sorted(pvals[0].parts.items())]
        rparts = [df.toPandas() for _, df in sorted(pvals[1].parts.items())]
        lfull = pd.concat(lparts, ignore_index=True)
        rfull = pd.concat(rparts, ignore_index=True)
        # the key columns, with their row positions, cross the network in
        # the clear
        self._charge_transfer(len(lfull) + len(rfull), 2)
        # clear join at the chosen party, in Spark, on one partition
        key = n.left_key
        ldf = to_spark_single_partition(
            self.spark, pd.DataFrame({key: lfull[key], "lgid": np.arange(len(lfull))})
        )
        rdf = to_spark_single_partition(
            self.spark,
            pd.DataFrame({key: rfull[n.right_key], "rgid": np.arange(len(rfull))}),
        )
        pairs = (
            ldf.join(rdf, on=key).orderBy(key, "lgid", "rgid")
            .select("lgid", "rgid").toPandas()
        )
        lgid, rgid = pairs["lgid"].to_numpy(), pairs["rgid"].to_numpy()
        # index pairs go back to every party
        self._charge_transfer(len(pairs) * len(self.parties), 2)
        rcols = [c for c in rfull.columns if c != n.right_key]

        if not self._downstream_has_mpc(cons, n):
            # assemble the join result in the clear at `n.at` (reaches
            # the recipient anyway; §7.2 "public join avoids MPC")
            self._charge_transfer(len(lfull), len(lfull.columns))
            self._charge_transfer(len(rfull), len(rfull.columns))
            out = pd.concat(
                [
                    lfull.iloc[lgid].reset_index(drop=True),
                    rfull.iloc[rgid][rcols].reset_index(drop=True),
                ],
                axis=1,
            )
            return ClearVal({n.at: to_spark(self.spark, out[n.out_cols])})

        left_shared, li = self._share_matched(lparts, lgid, list(lfull.columns))
        right_shared, ri = self._share_matched(rparts, rgid, rcols)
        # public indices: selection is share-local (free)
        return self.backend.concat_columns(
            self.backend.take(left_shared, li), self.backend.take(right_shared, ri)
        )

    def _share_matched(self, parts: list[pd.DataFrame], gids: np.ndarray,
                       cols: list[str]):
        """Each party secret-shares its own rows among ``gids`` (positions
        in the concatenation of ``parts``). Returns the shared relation and
        each gid's row in it."""
        needed, pos = np.unique(gids, return_inverse=True)
        bounds = np.cumsum([len(pdf) for pdf in parts])
        per_party = np.split(needed, np.searchsorted(needed, bounds[:-1]))
        shared = [
            self.backend.input_rel(pdf[cols].iloc[rows - (end - len(pdf))])
            for pdf, rows, end in zip(parts, per_party, bounds)
            if len(rows)
        ]
        if not shared:
            empty = pd.DataFrame(np.zeros((0, len(cols)), np.int64), columns=cols)
            return self.backend.input_rel(empty), pos
        return self.backend.concat(shared), pos

    # ------------------------------------------------------- hybrid join
    def _exec_hybrid_join(self, n: D.HybridJoin, pvals):
        """§5.3 hybrid join (Figure 3): oblivious shuffles, key columns
        revealed to the STP, clear join + enumeration at the STP (a
        single-partition Spark join and sort), oblivious indexing to
        rebuild the result under MPC."""
        be = self.backend
        left = be.shuffle(self._ensure_mpc(pvals[0]))
        right = be.shuffle(self._ensure_mpc(pvals[1]))
        # reveal key-only projections to the STP
        lk = be.reveal_col_to(left, n.left_key, n.stp)
        rk = be.reveal_col_to(right, n.right_key, n.stp)
        # STP: enumerate + clear join in Spark, on one partition
        ldf = to_spark_single_partition(
            self.spark, pd.DataFrame({"k": lk, "li": np.arange(len(lk))})
        )
        rdf = to_spark_single_partition(
            self.spark, pd.DataFrame({"k": rk, "ri": np.arange(len(rk))})
        )
        pairs = ldf.join(rdf, on="k").orderBy("li", "ri").select("li", "ri").toPandas()
        li = pairs["li"].to_numpy().astype(np.int64)
        ri = pairs["ri"].to_numpy().astype(np.int64)
        # STP secret-shares the index relations (inputToMPC)
        self._charge_transfer(len(li) + len(ri), 1)
        # oblivious indexing back under MPC
        left_rows = be.select_rows(left, li)
        right_cols = [c for c in n.parents[1].out_cols if c != n.right_key]
        right_rows = be.select_rows(be.project(right, right_cols), ri)
        return be.shuffle(be.concat_columns(left_rows, right_rows))

    # ------------------------------------------------ hybrid aggregation
    def _exec_hybrid_agg(self, n: D.HybridAggregate, pvals):
        """§5.3 hybrid aggregation: shuffle, reveal the group-by column
        to the STP, clear sort at the STP (a single-partition Spark sort),
        then the backend's oblivious accumulation over the STP's order and
        equality flags. One group-by column only, as under MPC."""
        if len(n.group_cols) != 1:
            raise NotImplementedError("multi-column group-by")
        (group,) = n.group_cols
        be = self.backend
        rel = be.shuffle(self._ensure_mpc(pvals[0]))
        keys = be.reveal_col_to(rel, group, n.stp)
        # STP: sort the (key, idx) relation in the clear, in Spark, on one
        # partition
        kdf = to_spark_single_partition(
            self.spark, pd.DataFrame({"k": keys, "idx": np.arange(len(keys))})
        )
        ordered = kdf.orderBy("k", "idx").toPandas()
        order = ordered["idx"].to_numpy().astype(np.int64)
        sorted_keys = ordered["k"].to_numpy()
        same = np.zeros(len(keys), dtype=np.int64)
        same[1:] = sorted_keys[1:] == sorted_keys[:-1]
        # indexes travel in the clear; parties reorder locally (free)
        self._charge_transfer(len(order) * len(self.parties), 1)
        return be.aggregate_stp_sorted(
            rel, order, same, group, n.agg_op, n.over, n.out_col
        )
