"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


# --------------------------------------------------------------------------
# Conclave-paper datasets (synthetic stand-ins, DESIGN.md §2.1):
# NYC taxi trips (§7.1), credit-card regulation data (§2.1/§7.3), and
# HealthLNK-like diagnoses/medications (§7.4). All MPC-bound columns are
# int64 (money in cents, codes int-encoded).

ASPIRIN_CODE = 7001
CDIFF_CODE = 4123


def taxi_trips(
    *, n: int, n_companies: int = 3, company_offset: int = 0,
    zero_fare_frac: float = 0.02, seed: int = 0,
) -> pd.DataFrame:
    """One VFH company's share of NYC-taxi-like trips: (companyID,
    price) with price in cents. A small fraction of zero-fare trips is
    included so the query's price>0 filter has work to do (the paper
    filters zero-fare trips from the TLC data)."""
    g = _rng(seed)
    company = g.integers(company_offset, company_offset + n_companies, n)
    price = g.integers(250, 9000, n)
    zero = g.random(n) < zero_fare_frac
    price = np.where(zero, 0, price)
    return pd.DataFrame(
        {"companyID": company.astype(np.int64), "price": price.astype(np.int64)}
    )


def credit_demographics(*, n: int, n_zip: int | None = None, seed: int = 0) -> pd.DataFrame:
    """Regulator-side data: ssn -> zip for `n` card holders."""
    g = _rng(seed)
    n_zip = n_zip or max(1, n // 50)
    return pd.DataFrame(
        {
            "ssn": np.arange(1, n + 1, dtype=np.int64),
            "zip": g.integers(10000, 10000 + n_zip, n).astype(np.int64),
        }
    )


def credit_scores(
    *, n: int, ssn_universe: int, seed: int = 1
) -> pd.DataFrame:
    """One credit agency's portfolio: (ssn, score). SSNs are drawn
    without replacement from the regulator's universe so the join is
    ~1:1 (a card holder appears at most once per agency)."""
    g = _rng(seed)
    ssn = g.choice(np.arange(1, ssn_universe + 1), size=min(n, ssn_universe),
                   replace=False)
    return pd.DataFrame(
        {
            "ssn": ssn.astype(np.int64),
            "score": g.integers(300, 851, len(ssn)).astype(np.int64),
        }
    )


def health_patient_ids(
    *, n_per_party: int, overlap_frac: float = 0.02, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Two hospitals' patient-ID pools with ``overlap_frac`` of IDs
    shared (the HealthLNK-like 2% overlap of §7.4). Shared IDs start at
    1, each hospital's own IDs at 1,000,000 and 2,000,000, or right after
    the previous range once that range reaches past the round number."""
    n_shared = int(n_per_party * overlap_frac)
    n_own = n_per_party - n_shared
    shared = np.arange(1, n_shared + 1)
    a_start = max(1_000_000, n_shared + 1)
    a_only = np.arange(a_start, a_start + n_own)
    b_start = max(2_000_000, a_start + n_own)
    b_only = np.arange(b_start, b_start + n_own)
    return (
        np.concatenate([shared, a_only]).astype(np.int64),
        np.concatenate([shared, b_only]).astype(np.int64),
    )


def health_diagnoses(
    *, patient_ids: np.ndarray, n: int, cdiff_frac: float = 0.3,
    n_codes: int = 50, seed: int = 0,
) -> pd.DataFrame:
    """(patient_id, diag) events; ``cdiff_frac`` carry the c.diff code."""
    g = _rng(seed)
    pid = g.choice(patient_ids, size=n)
    diag = g.integers(1, n_codes + 1, n).astype(np.int64)
    diag = np.where(g.random(n) < cdiff_frac, CDIFF_CODE, diag)
    return pd.DataFrame({"patient_id": pid.astype(np.int64), "diag": diag})


def health_medications(
    *, patient_ids: np.ndarray, n: int, aspirin_frac: float = 0.3,
    n_codes: int = 50, seed: int = 1,
) -> pd.DataFrame:
    """(patient_id, med) prescriptions; ``aspirin_frac`` are aspirin."""
    g = _rng(seed)
    pid = g.choice(patient_ids, size=n)
    med = g.integers(10_000, 10_000 + n_codes, n).astype(np.int64)
    med = np.where(g.random(n) < aspirin_frac, ASPIRIN_CODE, med)
    return pd.DataFrame({"patient_id": pid.astype(np.int64), "med": med})


def comorbidity_diagnoses(
    *, n: int, distinct_key_frac: float = 0.1, seed: int = 0
) -> pd.DataFrame:
    """Diagnosis events for the comorbidity query: the number of distinct
    diagnosis codes is ``distinct_key_frac`` of the row count (§7.4)."""
    g = _rng(seed)
    n_keys = max(1, int(n * distinct_key_frac))
    return pd.DataFrame(
        {"diag": g.integers(1, n_keys + 1, n).astype(np.int64)}
    )


def zipf_keys(spark: SparkSession, *, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


def uniform_keys(spark: SparkSession, *, n: int, n_keys: int, seed: int = 4) -> DataFrame:
    g = _rng(seed)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )
