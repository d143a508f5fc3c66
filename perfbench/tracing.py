"""Outside-in tracing of the Conclave layers for the benchmark.

The tracer wraps each layer's public entry points (see ``install``) and
changes no program code. Every wrapped call becomes a span with its name,
layer, start, end, parent span and query id; spans stay in memory until
the run writes them out. ``Meter.charge_comm`` is wrapped as well, so each
modelled-cost charge is attributed either to the outermost MPC span that
made it or to the engine (a clear transfer).

Per-query metrics (``query_metrics``) follow two rules: a layer's time is
the union of its outermost spans, and a span's self time is its duration
minus the part its direct children cover.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark.sql import SparkSession
from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

from repro.backends.sharemind_sim import SharemindBackend
from repro.core import compiler as C
from repro.mpc import protocols as P
from repro.mpc.accounting import Meter
from repro.mpc.secret_sharing import SecretSharingVM
from repro.runtime.engine import Engine

#: protocol functions timed at any nesting depth (``protocols.<fn>_s``)
PROTOCOLS = (
    "oblivious_sort",
    "oblivious_shuffle",
    "segmented_scan_sum",
    "aggregate_sum_by_key",
    "select_by_public_index",
)
#: VM methods the engine calls directly; ``mul``/``share``/``reveal`` also
#: count the elements they process
VM_METHODS = ("share", "reveal", "take", "permute_public", "mul")
VM_ELEMS = ("mul", "share", "reveal")
#: SharemindBackend methods (its whole public surface)
BACKEND_METHODS = tuple(
    n for n, f in vars(SharemindBackend).items()
    if not n.startswith("_") and callable(f)
)
MPC_LAYER = "mpc"
SPARK_LAYER = "spark"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    qid: int | None
    end: float = 0.0
    rows: int = 0
    #: (rounds, bytes_sent) charged inside this span, for outermost MPC spans
    cost: tuple[int, float] | None = None
    children: list[int] = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and meter charges while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._mpc_depth = 0
        self._mpc_outer: int | None = None
        self.qid: int | None = None
        self.active = False
        #: (qid, outermost MPC span index or None, rounds, bytes_sent)
        self.charges: list[tuple[int | None, int | None, int, float]] = []
        #: qid -> {"mul": n, "share": n, "reveal": n}
        self.vm_elems: dict[int | None, dict[str, int]] = defaultdict(
            lambda: dict.fromkeys(VM_ELEMS, 0)
        )
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    @contextmanager
    def span(self, layer: str, name: str, meter: Meter | None = None):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        s = Span(name, layer, 0.0, parent, self.qid)
        self.spans.append(s)
        if parent is not None:
            self.spans[parent].children.append(idx)
        outer_mpc = layer == MPC_LAYER and self._mpc_depth == 0
        if layer == MPC_LAYER:
            self._mpc_depth += 1
        if outer_mpc:
            self._mpc_outer = idx
            before = (meter.rounds, meter.bytes_sent) if meter else None
        self._stack.append(idx)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if layer == MPC_LAYER:
                self._mpc_depth -= 1
            if outer_mpc:
                self._mpc_outer = None
                if before is not None:
                    s.cost = (meter.rounds - before[0],
                              meter.bytes_sent - before[1])

    @contextmanager
    def query(self, qid: int):
        """Trace one query: everything wrapped runs under its span."""
        self.qid, self.active = qid, True
        try:
            with self.span("query", "query"):
                yield
        finally:
            self.active = False

    # --------------------------------------------------------- patching
    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per tracer)."""
        if self._patches:
            return
        tr = self

        def plain(layer, name):
            def make(orig):
                def w(*a, **k):
                    if not tr.active:
                        return orig(*a, **k)
                    with tr.span(layer, name):
                        return orig(*a, **k)
                return w
            return make

        self._patch(C, "compile_query", plain("core", "compile_query"))
        self._patch(Engine, "run", plain("engine", "run"))

        def spark_call(name, rows_of):
            def make(orig):
                def w(*a, **k):
                    if not tr.active:
                        return orig(*a, **k)
                    with tr.span(SPARK_LAYER, name) as s:
                        out = orig(*a, **k)
                        s.rows = rows_of(a, out)
                        return out
                return w
            return make

        # PySpark 4.1 keeps the actions on the classic subclass; wrapping
        # pyspark.sql.DataFrame would catch nothing.
        self._patch(ClassicDataFrame, "toPandas",
                    spark_call("to_pandas", lambda a, out: len(out)))
        self._patch(ClassicDataFrame, "collect",
                    spark_call("collect", lambda a, out: len(out)))
        self._patch(ClassicDataFrame, "count",
                    spark_call("count", lambda a, out: 0))
        self._patch(SparkSession, "createDataFrame",
                    spark_call("create_df", lambda a, out: _len_or_zero(a[1:2])))

        def mpc_call(name, meter_of, rows_of=None):
            def make(orig):
                def w(*a, **k):
                    if not tr.active:
                        return orig(*a, **k)
                    with tr.span(MPC_LAYER, name, meter_of(a)) as s:
                        if rows_of is not None:
                            s.rows = rows_of(a)
                        return orig(*a, **k)
                return w
            return make

        for m in BACKEND_METHODS:
            self._patch(SharemindBackend, m, mpc_call(
                m, lambda a: a[0].vm.meter,
                (lambda a: len(a[1])) if m == "input_rel" else None,
            ))
        for fn in PROTOCOLS:
            self._patch(P, fn, mpc_call(
                f"protocols.{fn}", lambda a: a[0].meter,
                (lambda a: a[1].n_rows) if fn == "oblivious_sort" else None,
            ))
        for m in VM_METHODS:
            def vm_make(orig, m=m):
                span_w = mpc_call(f"vm.{m}", lambda a: a[0].meter)(orig)

                def w(*a, **k):
                    if tr.active and m in VM_ELEMS:
                        tr.vm_elems[tr.qid][m] += len(a[1])
                    return span_w(*a, **k)
                return w
            self._patch(SecretSharingVM, m, vm_make)

        def charge_make(orig):
            def w(meter, *, rounds, bytes_sent):
                if tr.active:
                    tr.charges.append((tr.qid, tr._mpc_outer, rounds, bytes_sent))
                return orig(meter, rounds=rounds, bytes_sent=bytes_sent)
            return w
        self._patch(Meter, "charge_comm", charge_make)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ export
    def dump(self) -> list[dict]:
        return [
            {"i": i, "name": s.name, "layer": s.layer, "start": s.start,
             "end": s.end, "parent": s.parent, "qid": s.qid, "rows": s.rows}
            for i, s in enumerate(self.spans)
        ]


def _len_or_zero(args: tuple) -> int:
    """Rows of ``createDataFrame``'s positional data argument, if sized."""
    try:
        return len(args[0])
    except (IndexError, TypeError):
        return 0


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _outermost(spans: list[Span], idxs: list[int], layer: str) -> list[int]:
    """Spans of ``layer`` with no ancestor of the same layer."""
    out = []
    for i in idxs:
        s = spans[i]
        if s.layer != layer:
            continue
        p = s.parent
        while p is not None and spans[p].layer != layer:
            p = spans[p].parent
        if p is None:
            out.append(i)
    return out


def _within(spans: list[Span], i: int, root: int) -> bool:
    while i is not None:
        if i == root:
            return True
        i = spans[i].parent
    return False


def query_metrics(tr: Tracer, qid: int, meter: Meter) -> dict:
    """Per-layer metrics of one traced query, plus its consistency checks.

    Returns the metric dict; ``_check`` keys hold the two reconciliation
    residues (layer times vs ``engine.run_s``; modelled cost vs meter).
    """
    spans = tr.spans
    idxs = [i for i, s in enumerate(spans) if s.qid == qid]
    m: dict[str, float] = {}
    m["query.wall_s"] = next(spans[i].dur for i in idxs if spans[i].layer == "query")

    compile_ = [i for i in idxs if spans[i].name == "compile_query"]
    m["core.compile_s"] = sum(spans[i].dur for i in compile_)
    run = [i for i in idxs if spans[i].layer == "engine"]
    run_i = run[0]
    run_s = spans[run_i].dur
    m["engine.run_s"] = run_s
    m["engine.self_s"] = run_s - sum(spans[c].dur for c in spans[run_i].children)

    spark_outer = _outermost(spans, idxs, SPARK_LAYER)
    mpc_outer = _outermost(spans, idxs, MPC_LAYER)
    in_run = lambda lst: [i for i in lst if _within(spans, i, run_i)]  # noqa: E731
    spark_run = _union([(spans[i].start, spans[i].end) for i in in_run(spark_outer)])
    mpc_run = _union([(spans[i].start, spans[i].end) for i in in_run(mpc_outer)])
    m["spark.total_s"] = _union([(spans[i].start, spans[i].end) for i in spark_outer])
    m["mpc.sim_s"] = _union([(spans[i].start, spans[i].end) for i in mpc_outer])
    m["_check.layers_s"] = spark_run + mpc_run + m["engine.self_s"] - run_s

    for kind, names in (("to_pandas", ("to_pandas",)), ("create_df", ("create_df",)),
                        ("action", ("collect", "count"))):
        sel = [i for i in spark_outer if spans[i].name in names]
        m[f"spark.{kind}_s"] = sum(spans[i].dur for i in sel)
        m[f"spark.{kind}_calls"] = len(sel)
        if kind != "action":
            m[f"spark.{kind}_rows"] = sum(spans[i].rows for i in sel)

    ops: dict[str, list[int]] = defaultdict(list)
    for i in mpc_outer:
        ops[_op_name(spans[i].name)].append(i)
    for op, sel in ops.items():
        m[f"mpc.{op}_s"] = sum(spans[i].dur for i in sel)
        m[f"mpc.{op}_calls"] = len(sel)
        m[f"mpc.{op}.rounds"] = sum(spans[i].cost[0] for i in sel)
        m[f"mpc.{op}.bytes"] = sum(spans[i].cost[1] for i in sel)
    m["mpc.rows_shared"] = sum(
        spans[i].rows for i in idxs if spans[i].name == "input_rel"
    )

    for fn in PROTOCOLS:
        own = [i for i in idxs if spans[i].name == f"protocols.{fn}"]
        outer = [i for i in own if not _has_ancestor_named(spans, i, spans[i].name)]
        m[f"protocols.{fn}_s"] = sum(spans[i].dur for i in outer)
    sorts = [spans[i].rows for i in idxs
             if spans[i].name == "protocols.oblivious_sort" and spans[i].rows > 1]
    m["protocols.sort_rows"] = sum(sorts)
    padded = sum(1 << (n - 1).bit_length() for n in sorts)
    m["protocols.sort_pad_ratio"] = sum(sorts) / padded if padded else 1.0
    for k, v in tr.vm_elems[qid].items():
        m[f"vm.{k}_elems"] = v

    outside = [(r, b) for q, o, r, b in tr.charges if q == qid and o is None]
    m["engine.transfer_rounds"] = sum(r for r, _ in outside)
    m["engine.transfer_bytes"] = sum(b for _, b in outside)
    m["meter.rounds"] = meter.rounds
    m["meter.bytes_sent"] = meter.bytes_sent
    m["meter.network_s"] = meter.network_seconds()
    m["meter.peak_mem_bytes"] = meter.peak_mem_bytes
    m["meter.sim_s"] = meter.sim_seconds()
    op_rounds = sum(m[f"mpc.{op}.rounds"] for op in ops)
    op_bytes = sum(m[f"mpc.{op}.bytes"] for op in ops)
    m["_check.rounds"] = op_rounds + m["engine.transfer_rounds"] - meter.rounds
    m["_check.bytes"] = op_bytes + m["engine.transfer_bytes"] - meter.bytes_sent
    return m


def _op_name(span_name: str) -> str:
    """``mpc.<op>`` name of an outermost MPC span: backend methods and the
    protocol functions the engine calls directly keep their name; VM
    methods the engine calls directly become ``vm_<method>``."""
    if span_name.startswith("protocols."):
        return span_name.split(".", 1)[1]
    return span_name.replace(".", "_")


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
