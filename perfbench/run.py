"""Conclave query benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload market_hhi --seed 1 --seconds 14 --trace 0

Run from the root of a checkout. The benchmark starts one local
SparkSession (at most 4 cores), generates a seeded pool of input sets,
stores each party's tables as Parquet and loads them as cached Spark
DataFrames (the parties' data at rest), and computes each set's DuckDB
answer. Then one analyst runs the workload's query in a closed loop:
``build()`` -> ``compile_query`` -> new ``Engine`` (Sharemind backend) ->
``run`` -> ``collect()``, waiting for each answer before sending the next
query. After a fixed number of warm-up queries on the smallest input set
it runs the fewest whole passes over the pool that take ``--seconds`` on
the reference box (4 cores), and checks every answer against DuckDB after
its timer stops. The work a
run measures is thus fixed by the seed and ``--seconds``, not by how fast
the program is, so a faster change runs the same queries as its parent.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` wraps the
layers' entry points (see tracing.py), runs each query twice in a row,
once traced and once not, and prints the per-layer metrics and the
tracing overhead. The metric names and units are the ones BENCHMARK.json
declares. The last line of standard output is one JSON object; the exit
code is non-zero if any query raised or gave a wrong answer.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from functools import reduce  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: every file a run writes (pool Parquet, Spark scratch, JVM temp, trace)
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
MAX_CORES = 4
#: modelled bytes are floats: reconcile to this relative tolerance
BYTES_REL_TOL = 1e-9
#: layer times must add up to engine.run_s within this many seconds
LAYER_SUM_TOL_S = 1e-6
#: counters that must repeat exactly for the same seed
DETERMINISTIC = ("core.rewrites.", "core.nodes.", "meter.", "vm.", "mpc.rows_shared",
                 "spark.to_pandas_rows", "spark.create_df_rows", "spark.jobs",
                 "engine.transfer_")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="pool seed; 7919 is held out for confirming a claimed gain")
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_environment(work: Path) -> None:
    """Point Spark, the JVM and Python's tempfile at ``work``. Must run
    before pyspark starts the JVM, which reads these at launch."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cores = min(MAX_CORES, os.cpu_count() or 1)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark")
    # every JVM, spark-submit's launcher included, keeps its files in `work`
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # JIT-compile hot paths after a tenth of the usual invocations, so
    # Spark's planner reaches steady speed within the warm-up queries
    java_opts = "-XX:CompileThresholdScaling=0.1"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 2g "
        f"--driver-java-options {shlex.quote(java_opts)} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )


def start_spark(work: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is None:
        return
    if proc.stdin:
        proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except Exception:  # noqa: BLE001 - whatever kept it alive: kill and reap
        proc.kill()
        proc.wait()


def declared(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


# ------------------------------------------------------------------ set-up
def setup_pool(spark, wl, seed: int, pool_dir: Path) -> tuple[list, dict]:
    """Generate the pool, store and load it (cached Spark DataFrames read
    from Parquet), and compute its DuckDB answers; returns the pool and
    each phase's duration."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    phases = {}
    t = time.perf_counter()
    pool = wl.make_pool(seed)
    spec = wl.build()
    phases["setup.gen_s"] = time.perf_counter() - t

    t = time.perf_counter()
    pool_dir.mkdir(parents=True, exist_ok=True)
    frames = []
    for k, item in enumerate(pool):
        for name, pdf in item.tables.items():
            path = pool_dir / f"{k}-{name}.parquet"
            pq.write_table(pa.Table.from_pandas(pdf, preserve_index=False), path)
            item.frames[name] = spark.read.parquet(str(path)).cache()
            frames.append(item.frames[name])
    # one job materializes every cache
    reduce(lambda a, b: a.unionByName(b, allowMissingColumns=True), frames).count()
    phases["setup.load_s"] = time.perf_counter() - t

    t = time.perf_counter()
    for item in pool:
        item.expected = wl.oracle(spec, item.tables)
    phases["setup.oracle_s"] = time.perf_counter() - t
    return pool, phases


# ------------------------------------------------------------------- query
def run_query(spark, wl, item, engine_seed: int):
    """One analyst query through the single execution path; returns the
    collected rows, the engine's meter and the plan."""
    from repro.core import compiler
    from repro.runtime.engine import Engine

    spec = wl.build()
    plan = compiler.compile_query(
        spec.output, compiler.CompileOptions(parties=spec.parties)
    )
    engine = Engine(spark, [p.name for p in spec.parties],
                    backend="sharemind", seed=engine_seed)
    rows = engine.run(plan, item.frames).collect()
    return rows, engine.meter, plan


class Loop:
    """The closed loop's single client: runs, times and checks queries."""

    def __init__(self, spark, wl, seed: int):
        self.spark, self.wl, self.seed = spark, wl, seed
        self.attempted = 0
        self.failed = 0

    def one(self, k: int, item, around=contextlib.nullcontext):
        """Run one query on pool item ``k`` inside ``around()``, then check
        its answer. Returns (wall_s, hybrid_s, meter, plan), or None if it
        raised or answered wrongly."""
        import pandas as pd

        self.attempted += 1
        try:
            with around():
                t0 = time.perf_counter()
                rows, meter, plan = run_query(self.spark, self.wl, item,
                                              self.seed * 1000 + k)
                wall = time.perf_counter() - t0
                hybrid = meter.hybrid_seconds()  # read once, straight after collect()
            self.wl.check(pd.DataFrame([r.asDict() for r in rows]), item.expected)
        except Exception:  # noqa: BLE001 - count it, report it, keep going
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return wall, hybrid, meter, plan


def run_passes(pool, passes: int, run_item) -> None:
    for _ in range(passes):
        for k, item in enumerate(pool):
            run_item(k, item)


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with at least ten samples
    above it; below eleven samples, the minimum (p0)."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, -1, -1):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 0, xs[0]


# ------------------------------------------------------------------ modes
def measure_untraced(loop, pool, passes: int) -> tuple[dict, str]:
    walls, hybrids, sims = [], [], []
    rows = 0

    def run_item(k, item):
        nonlocal rows
        res = loop.one(k, item)
        if res is not None:
            walls.append(res[0])
            hybrids.append(res[1])
            sims.append(res[2].sim_seconds())
            rows += item.rows

    run_passes(pool, passes, run_item)
    if not walls:
        return {}, f"passes={passes} queries=0"
    p, tail = tail_percentile(walls)
    return {
        "query_wall_s.p50": statistics.median(walls),
        "query_wall_s.tail": tail,
        "hybrid_s.p50": statistics.median(hybrids),
        "rows_per_s": rows / sum(walls),
        "modelled_mpc_s": statistics.fmean(sims),
    }, (f"passes={passes} queries={len(walls)} tail=p{p} "
        f"walls_s={','.join(f'{w:.3f}' for w in walls)}")


def measure_traced(spark, loop, pool, passes: int, tracer):
    """Each pool item runs twice in a row, traced and untraced, with the
    order alternating. Per-layer metrics are per-query means over the
    traced queries; the overhead is the median traced-minus-untraced wall
    time of a pair."""
    import tracing

    sc = spark.sparkContext
    status = sc.statusTracker()
    per_query, overhead, counters = [], [], []
    pair = 0

    def traced_one(k, item, qid):
        group = f"perfbench-q{qid}"
        sc.setJobGroup(group, group)
        try:
            res = loop.one(k, item, around=lambda: tracer.query(qid))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        if res is None:
            return None
        wall, _, meter, plan = res
        m = tracing.query_metrics(tracer, qid, meter)
        jobs = status.getJobIdsForGroup(group)
        tasks = 0
        for j in jobs:
            info = status.getJobInfo(j)
            for sid in (info.stageIds if info else ()):
                st = status.getStageInfo(sid)
                tasks += st.numCompletedTasks if st else 0
        m["spark.jobs"] = len(jobs)
        m["spark.tasks"] = tasks
        for key, v in plan.rewrites.items():
            m[f"core.rewrites.{key}"] = v
        for site in ("clear", "mpc", "hybrid", "public"):
            m[f"core.nodes.{site}"] = sum(
                1 for n in plan.nodes() if n.site and n.site[0] == site
            )
        if not reconciled(m, meter):
            loop.failed += 1
        per_query.append(m)
        counters.append({"item": k,
                         "checks": {key: v for key, v in m.items() if key.startswith("_")},
                         **{key: v for key, v in m.items() if key.startswith(DETERMINISTIC)}})
        return wall

    def run_item(k, item):
        nonlocal pair
        pair += 1
        walls = {}
        for traced in ((True, False) if pair % 2 else (False, True)):
            if traced:
                walls[True] = traced_one(k, item, pair)
            else:
                res = loop.one(k, item)
                walls[False] = res[0] if res else None
        if None not in walls.values():
            overhead.append(walls[True] - walls[False])

    run_passes(pool, passes, run_item)
    keys = sorted({key for m in per_query for key in m if not key.startswith("_")})
    out = {key: statistics.fmean(m.get(key, 0.0) for m in per_query) for key in keys}
    if overhead:
        out["trace.overhead_s"] = statistics.median(overhead)
    return out, counters, f"passes={passes} traced={len(per_query)}"


def reconciled(m: dict, meter) -> bool:
    """Layer times add up to engine.run_s, and per-op modelled cost plus
    engine transfers equals the meter's totals."""
    problems = []
    if abs(m["_check.layers_s"]) > LAYER_SUM_TOL_S:
        problems.append(f"spark + mpc + engine.self_s - engine.run_s = {m['_check.layers_s']}")
    if m["_check.rounds"] != 0:
        problems.append(f"rounds off by {m['_check.rounds']}")
    if abs(m["_check.bytes"]) > BYTES_REL_TOL * max(1.0, meter.bytes_sent):
        problems.append(f"bytes off by {m['_check.bytes']}")
    for p in problems:
        print(f"perfbench: trace does not reconcile: {p}", file=sys.stderr)
    return not problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    configure_environment(WORK)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    units = declared("per_layer" if args.trace else "end_to_end")
    pool_dir = WORK / f"pool-{os.getpid()}"

    spark = start_spark(WORK)
    setup = {"setup.spark_s": time.perf_counter() - PROCESS_START}
    try:
        pool, phases = setup_pool(spark, wl, args.seed, pool_dir)
        setup.update(phases)
        loop = Loop(spark, wl, args.seed)
        t = time.perf_counter()
        # warm-up on the smallest input set, not counted
        smallest = min(range(len(pool)), key=lambda k: pool[k].rows)
        for _ in range(wl.warmup_queries):
            loop.one(smallest, pool[smallest])
        setup["setup.warmup_s"] = time.perf_counter() - t
        loop.attempted = loop.failed = 0

        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                # a traced pass runs every query twice
                metrics, counters, summary = measure_traced(
                    spark, loop, pool, wl.passes(args.seconds / 2), tracer)
            finally:
                tracer.uninstall()
            metrics.update(setup)
            out = WORK / f"trace-{wl.name}-seed{args.seed}.json"
            out.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                       "counters": counters,
                                       "spans": tracer.dump()}))
        else:
            metrics, summary = measure_untraced(loop, pool, wl.passes(args.seconds))
            metrics["setup_s"] = sum(setup.values())
            metrics["driver_peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        stop_spark(spark)
        shutil.rmtree(pool_dir, ignore_errors=True)

    failed_frac = loop.failed / max(1, loop.attempted)
    print(f"# {wl.name} seed={args.seed} {summary} failed_frac={failed_frac:.4f}")
    print("# " + " ".join(f"{k}={v:.3f}" for k, v in setup.items()))
    for k in sorted(metrics):
        if k not in units:
            print(f"# {k} = {metrics[k]}")
    result = {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()}
    for k, r in result.items():
        print(f"{k:<40} {r['value']:>16.6g} {r['unit']}")
    correct = loop.failed == 0 and loop.attempted > 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
