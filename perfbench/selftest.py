"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workload market_hhi] [--seed 3]

Runs the traced benchmark twice with the same seed and asserts that:

* every run passes (answers match DuckDB, traces reconcile);
* a traced query records at least one ``toPandas`` span, i.e. the
  wrappers sit on the concrete PySpark class that owns the actions;
* for every query, spark + mpc + engine.self_s add up to engine.run_s,
  and the per-op modelled cost plus engine transfers equals the meter;
* the deterministic counters (core.*, meter.*, vm.*_elems,
  mpc.rows_shared, spark.*_rows, spark.jobs) repeat exactly.

Exit code 0 when all hold.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BYTES_REL_TOL, LAYER_SUM_TOL_S, ROOT, WORK  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError(f"traced {workload} run exited {proc.returncode}")
    return json.loads((WORK / f"trace-{workload}-seed{seed}.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark tracing self-test")
    ap.add_argument("--workload", default="market_hhi")
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)

    first = traced_run(args.workload, args.seed)
    to_pandas = [s for s in first["spans"] if s["name"] == "to_pandas"]
    assert to_pandas, "no toPandas span: the DataFrame wrappers caught nothing"
    for q in first["counters"]:
        c = q["checks"]
        assert abs(c["_check.layers_s"]) <= LAYER_SUM_TOL_S, c
        assert c["_check.rounds"] == 0, c
        assert abs(c["_check.bytes"]) <= BYTES_REL_TOL * max(1.0, q["meter.bytes_sent"]), c

    second = traced_run(args.workload, args.seed)
    strip = lambda qs: [{k: v for k, v in q.items() if k != "checks"} for q in qs]  # noqa: E731
    a, b = strip(first["counters"]), strip(second["counters"])
    assert a == b, "deterministic counters differ between two runs of one seed:\n" + "\n".join(
        f"  item {x['item']}: {k}: {x[k]} != {y.get(k)}"
        for x, y in zip(a, b) for k in x if x[k] != y.get(k)
    )
    print(f"selftest ok: {args.workload} seed {args.seed}, {len(a)} traced queries, "
          f"{len(to_pandas)} toPandas spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
