"""Tests for the SMCQL baseline: slicing semantics and the §7.4
runners, all checked against DuckDB on the cleartext union."""
import numpy as np
import pandas as pd
import pytest

import duckdb

from repro.queries import aspirin, comorbidity
from repro.smcql.runners import run_aspirin_conclave, run_aspirin_smcql, run_comorbidity
from repro.smcql.slicing import key_locations, slice_by_key
from repro.synth_data import ASPIRIN_CODE, CDIFF_CODE


def _oracle_count(gen) -> int:
    con = duckdb.connect()
    try:
        for name, pdf in gen.items():
            con.register(name, pdf)
        return int(con.execute(aspirin.build().oracle_sql).fetchdf()["rx_cnt"][0])
    finally:
        con.close()


# ---------------------------------------------------------------- slicing
def test_slice_by_key_partitions_rows():
    a = pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
    b = pd.DataFrame({"k": [3, 4], "v": [33, 44]})
    locs = key_locations([{"h1": a, "h2": b}], "k")
    s = slice_by_key({"h1": a, "h2": b}, "k", key_locations=locs)
    assert list(s.shared_keys) == [3]
    assert s.single["h1"]["k"].tolist() == [1, 2]
    assert s.shared["h1"]["k"].tolist() == [3]
    assert s.shared["h2"]["k"].tolist() == [3]
    assert s.single["h2"]["k"].tolist() == [4]


def test_slice_uses_cross_relation_key_locations():
    """A key is MPC-bound if it appears at both parties in ANY relation."""
    diag = {"h1": pd.DataFrame({"k": [1]}), "h2": pd.DataFrame({"k": [9]})}
    med = {"h1": pd.DataFrame({"k": [9]}), "h2": pd.DataFrame({"k": [1]})}
    locs = key_locations([diag, med], "k")
    s = slice_by_key(diag, "k", key_locations=locs)
    # both keys exist at both parties (via the other relation)
    assert len(s.single["h1"]) == 0 and len(s.single["h2"]) == 0


def test_slicing_matches_set_reference():
    """The numpy slicing equals a per-row set-membership reference."""
    g = np.random.default_rng(4)
    rels = [
        {p: pd.DataFrame({"k": g.integers(0, 300, 500), "v": np.arange(500)})
         for p in ("h1", "h2")}
        for _ in range(2)
    ]
    held = {p: set().union(*(r[p]["k"].tolist() for r in rels)) for p in ("h1", "h2")}
    both = held["h1"] & held["h2"]
    locs = key_locations(rels, "k")
    for rel in rels:
        s = slice_by_key(rel, "k", key_locations=locs)
        assert s.shared_keys.tolist() == sorted(both)
        for p, pdf in rel.items():
            in_both = pdf["k"].map(both.__contains__)
            assert s.shared[p].equals(pdf[in_both].reset_index(drop=True))
            assert s.single[p].equals(pdf[~in_both].reset_index(drop=True))


# ---------------------------------------------------------------- aspirin
@pytest.mark.parametrize("overlap", [0.0, 0.05, 0.5])
def test_aspirin_smcql_matches_oracle(spark, overlap):
    gen = aspirin.gen_inputs(n_per_party=200, overlap_frac=overlap, seed=11)
    got, meter = run_aspirin_smcql(spark, gen)
    assert got == _oracle_count(gen)


@pytest.mark.parametrize("overlap", [0.0, 0.05, 0.5])
def test_aspirin_conclave_matches_oracle(spark, overlap):
    gen = aspirin.gen_inputs(n_per_party=200, overlap_frac=overlap, seed=12)
    got, meter = run_aspirin_conclave(spark, gen)
    assert got == _oracle_count(gen)


@pytest.mark.parametrize("runner", [run_aspirin_smcql, run_aspirin_conclave],
                         ids=["smcql", "conclave"])
def test_aspirin_empty_shared_slices(spark, runner):
    """Patient 5's diagnosis is only at h1 and medication only at h2, so
    the patient is shared while the h2 diagnosis and h1 medication shared
    slices are empty."""
    ints = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
    gen = {
        "diag_h1": pd.DataFrame({"patient_id": ints(5), "diag": ints(CDIFF_CODE)}),
        "diag_h2": pd.DataFrame({"patient_id": ints(), "diag": ints()}),
        "med_h1": pd.DataFrame({"patient_id": ints(), "med": ints()}),
        "med_h2": pd.DataFrame({"patient_id": ints(5), "med": ints(ASPIRIN_CODE)}),
    }
    got, _ = runner(spark, gen)
    assert got == _oracle_count(gen) == 1


def test_aspirin_conclave_cost_is_pinned(spark):
    """Exact modelled cost of T5's Conclave path (public join, MPC
    filters, sort-eliminated distinct count over the shared slices) at a
    fixed size and seed."""
    gen = aspirin.gen_inputs(n_per_party=200, overlap_frac=0.02, seed=6)
    got, meter = run_aspirin_conclave(spark, gen)
    assert got == _oracle_count(gen) == 26
    assert (meter.rounds, meter.bytes_sent) == (56, 14776.0)


def test_aspirin_conclave_beats_smcql_cost(spark):
    """The paper's headline: Conclave's public join + Sharemind backend
    is far cheaper than SMCQL's per-slice garbled circuits."""
    gen = aspirin.gen_inputs(n_per_party=2000, overlap_frac=0.02, seed=13)
    _, m_smcql = run_aspirin_smcql(spark, gen)
    _, m_conclave = run_aspirin_conclave(spark, gen)
    assert (
        m_conclave.network_seconds() + m_conclave.gate_seconds()
        < (m_smcql.network_seconds() + m_smcql.gate_seconds()) / 2
    )


def test_aspirin_smcql_mpc_work_tracks_overlap(spark):
    gates = {}
    for overlap in (0.02, 0.5):
        gen = aspirin.gen_inputs(n_per_party=1000, overlap_frac=overlap, seed=3)
        _, m = run_aspirin_smcql(spark, gen)
        gates[overlap] = m.gc_and_gates
    assert gates[0.02] < gates[0.5] / 5


# ------------------------------------------------------------ comorbidity
def _comorbidity_oracle_counts(gen) -> list[int]:
    con = duckdb.connect()
    try:
        for name, pdf in gen.items():
            con.register(name, pdf)
        return con.execute(comorbidity.build().oracle_sql).fetchdf()["cnt"].tolist()
    finally:
        con.close()


def test_comorbidity_smcql_matches_oracle(spark):
    gen = comorbidity.gen_inputs(n_per_party=400, distinct_key_frac=0.05, seed=2)
    got, meter = run_comorbidity(spark, gen, "smcql")
    assert sorted(got["cnt"].tolist(), reverse=True) == _comorbidity_oracle_counts(gen)


def test_comorbidity_conclave_matches_oracle(spark):
    gen = comorbidity.gen_inputs(n_per_party=400, distinct_key_frac=0.05, seed=2)
    got, meter = run_comorbidity(spark, gen, "conclave")
    assert sorted(got["cnt"].tolist(), reverse=True) == _comorbidity_oracle_counts(gen)


def test_comorbidity_backends_agree(spark):
    gen = comorbidity.gen_inputs(n_per_party=300, distinct_key_frac=0.08, seed=7)
    smcql, _ = run_comorbidity(spark, gen, "smcql")
    conclave, _ = run_comorbidity(spark, gen, "conclave")
    assert sorted(smcql["cnt"]) == sorted(conclave["cnt"].astype(int))


def test_comorbidity_conclave_faster_backend(spark):
    """Same plan, different MPC backend: Sharemind-style secret sharing
    beats ObliVM-style garbled circuits (§7.4, Figure 7b)."""
    gen = comorbidity.gen_inputs(n_per_party=2000, distinct_key_frac=0.1, seed=5)
    _, m_smcql = run_comorbidity(spark, gen, "smcql")
    _, m_conclave = run_comorbidity(spark, gen, "conclave")
    sim_smcql = m_smcql.network_seconds() + m_smcql.gate_seconds()
    sim_conclave = m_conclave.network_seconds() + m_conclave.gate_seconds()
    assert sim_conclave < sim_smcql / 2
