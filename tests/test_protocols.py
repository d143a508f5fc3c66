"""Unit tests for MPC relational protocols vs numpy/pandas ground truth."""
import numpy as np
import pandas as pd
import pytest

from repro.mpc.accounting import Meter, SimulatedOOM
from repro.mpc import protocols as P
from repro.mpc.secret_sharing import SecretSharingVM
from repro.mpc.shared_rel import SharedRelation, reveal_relation, share_dataframe


@pytest.fixture()
def vm() -> SecretSharingVM:
    return SecretSharingVM(n_parties=3, meter=Meter(), seed=11)


def _rng():
    return np.random.default_rng(5)


def _share(vm, **cols) -> SharedRelation:
    return share_dataframe(vm, pd.DataFrame({k: np.asarray(v, np.int64) for k, v in cols.items()}))


# ----------------------------------------------------------------- shuffle
def test_oblivious_shuffle_is_permutation(vm):
    rel = _share(vm, k=[5, 1, 9, 3], v=[50, 10, 90, 30])
    out, perm = P.oblivious_shuffle(vm, rel, _rng())
    got = reveal_relation(vm, out)
    assert sorted(got["k"]) == [1, 3, 5, 9]
    # rows stay aligned across columns
    assert set(zip(got["k"], got["v"])) == {(5, 50), (1, 10), (9, 90), (3, 30)}


# -------------------------------------------------------------------- sort
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 17, 64, 100])
@pytest.mark.parametrize("descending", [False, True])
def test_oblivious_sort(vm, n, descending):
    g = np.random.default_rng(n)
    keys = g.integers(-50, 50, n)
    vals = np.arange(n)
    rel = _share(vm, k=keys, v=vals)
    got = reveal_relation(vm, P.oblivious_sort(vm, rel, "k", descending=descending))
    order = np.argsort(-keys if descending else keys, kind="stable")
    np.testing.assert_array_equal(np.sort(got["k"].to_numpy()),
                                  np.sort(keys[order]))
    # sortedness
    diffs = np.diff(got["k"].to_numpy())
    assert (diffs >= 0).all() if not descending else (diffs <= 0).all()
    # rows stay aligned: (k, v) pairs preserved
    assert set(zip(got["k"], got["v"])) == set(zip(keys, vals))


def _batcher_pairs_loop(n: int):
    """Reference: Batcher's odd-even mergesort layers, one comparator at a
    time."""
    p = 1
    while p < n:
        k = p
        while k >= 1:
            pairs = [
                (i + j, i + j + k)
                for j in range(k % p, n - k, 2 * k)
                for i in range(min(k, n - j - k))
                if (i + j) // (2 * p) == (i + j + k) // (2 * p)
            ]
            if pairs:
                yield pairs
            k //= 2
        p *= 2


def test_batcher_pairs_sort_network_cleartext():
    """The generated network has Batcher's exact shape and must sort any
    input (checked directly)."""
    for k in range(1, 17):
        n = 1 << k
        layers = list(P._batcher_pairs(n))
        assert len(layers) == k * (k + 1) // 2
        assert sum(len(i_idx) for i_idx, _ in layers) == n * (k * k - k + 4) // 4 - 1
        if n > 1 << 10:
            continue
        ref = list(_batcher_pairs_loop(n))
        assert len(ref) == len(layers)
        for (i_idx, j_idx), pairs in zip(layers, ref):
            np.testing.assert_array_equal(np.column_stack([i_idx, j_idx]), pairs)
        g = np.random.default_rng(n)
        for _ in range(5):
            x = g.integers(0, 100, n)
            for i_idx, j_idx in layers:
                lo = np.minimum(x[i_idx], x[j_idx])
                hi = np.maximum(x[i_idx], x[j_idx])
                x[i_idx], x[j_idx] = lo, hi
            assert (np.diff(x) >= 0).all()


def test_oblivious_sort_modelled_cost_is_pinned():
    """The sort's metered cost on a fixed 1,000-row, 2-column relation
    (padded to 1,024): 55 network layers of one comparison and one Beaver
    multiplication per column, plus sharing the padding of each column."""
    vm = SecretSharingVM(n_parties=3, meter=Meter(), seed=3)
    g = np.random.default_rng(1000)
    rel = _share(vm, k=g.integers(0, 200, 1000), v=g.integers(-1000, 1000, 1000))
    r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
    out = P.oblivious_sort(vm, rel, "k")
    assert vm.meter.rounds - r0 == 552
    assert vm.meter.bytes_sent - b0 == 10_395_984
    assert (np.diff(reveal_relation(vm, out)["k"].to_numpy()) >= 0).all()


def test_protocols_leave_input_shares_unchanged(vm):
    """Sort and scans update private copies in place, never their inputs."""
    g = np.random.default_rng(4)
    rel = _share(vm, k=g.integers(0, 9, 13), v=g.integers(0, 99, 13))
    vals = vm.share(g.integers(0, 2, 13))
    same = vm.share(g.integers(0, 2, 13))
    inputs = [*rel.columns.values(), vals, same]
    before = [[s.copy() for s in sv.shares] for sv in inputs]
    P.oblivious_sort(vm, rel, "k")
    P.segmented_scan_sum(vm, vals, same)
    P.segmented_scan_or(vm, vals, same)
    for sv, saved in zip(inputs, before):
        for s, s0 in zip(sv.shares, saved):
            np.testing.assert_array_equal(s, s0)


# ------------------------------------------------------------------- scans
def test_segmented_scan_sum(vm):
    vals = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    same = np.array([0, 1, 0, 1, 1], dtype=np.int64)  # segments [1,2],[3,4,5]
    out = vm.reveal(
        P.segmented_scan_sum(vm, vm.share(vals), vm.share(same))
    )
    np.testing.assert_array_equal(out, [1, 3, 3, 7, 12])


def test_segmented_scan_or(vm):
    bits = np.array([0, 1, 0, 0, 0, 1, 1], dtype=np.int64)
    same = np.array([0, 1, 1, 0, 1, 1, 1], dtype=np.int64)
    out = vm.reveal(P.segmented_scan_or(vm, vm.share(bits), vm.share(same)))
    np.testing.assert_array_equal(out, [0, 1, 1, 0, 0, 1, 1])


# ------------------------------------------------------------- aggregation
@pytest.mark.parametrize("n,n_keys", [(1, 1), (10, 3), (64, 5), (100, 100)])
def test_aggregate_sum_by_key(vm, n, n_keys):
    g = np.random.default_rng(n)
    keys = g.integers(0, n_keys, n)
    vals = g.integers(-100, 100, n)
    rel = _share(vm, k=keys, v=vals)
    got = reveal_relation(vm, P.aggregate_sum_by_key(vm, rel, "k", "v", _rng()))
    expected = pd.DataFrame({"k": keys, "v": vals}).groupby("k", as_index=False).sum()
    got = got.sort_values("k").reset_index(drop=True)
    expected = expected.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_aggregate_sum_by_key_presorted_skips_sort(vm):
    keys = np.array([1, 1, 2, 2, 2, 9], dtype=np.int64)
    vals = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
    rel = _share(vm, k=keys, v=vals)
    r0 = vm.meter.rounds
    got = reveal_relation(
        vm, P.aggregate_sum_by_key(vm, rel, "k", "v", _rng(), input_sorted=True)
    )
    rounds_sorted = vm.meter.rounds - r0
    got = got.sort_values("k").reset_index(drop=True)
    np.testing.assert_array_equal(got["k"], [1, 2, 9])
    np.testing.assert_array_equal(got["v"], [3, 12, 6])
    # and the unsorted path must cost strictly more rounds
    vm2 = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
    rel2 = _share(vm2, k=keys, v=vals)
    P.aggregate_sum_by_key(vm2, rel2, "k", "v", _rng(), input_sorted=False)
    assert vm2.meter.rounds > rounds_sorted


def test_aggregate_sum_total_is_local(vm):
    rel = _share(vm, v=[1, 2, 3, 4])
    r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
    out = P.aggregate_sum_total(vm, rel, "v")
    assert vm.meter.rounds == r0 and vm.meter.bytes_sent == b0
    assert vm.reveal(out.columns["v"])[0] == 10


# -------------------------------------------------------------------- join
def test_join_cartesian_matches_pandas(vm):
    g = np.random.default_rng(2)
    left = pd.DataFrame(
        {"k": g.integers(0, 10, 30), "a": g.integers(0, 100, 30)}
    ).astype(np.int64)
    right = pd.DataFrame(
        {"k": g.integers(0, 10, 20), "b": g.integers(0, 100, 20)}
    ).astype(np.int64)
    lrel, rrel = share_dataframe(vm, left), share_dataframe(vm, right)
    got = reveal_relation(vm, P.join_cartesian(vm, lrel, rrel, "k", "k", _rng()))
    expected = left.merge(right, on="k")
    got = got.sort_values(["k", "a", "b"]).reset_index(drop=True)
    expected = expected.sort_values(["k", "a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_join_cartesian_empty_result(vm):
    lrel = _share(vm, k=[1, 2], a=[1, 1])
    rrel = _share(vm, k=[3, 4], b=[2, 2])
    got = reveal_relation(vm, P.join_cartesian(vm, lrel, rrel, "k", "k", _rng()))
    assert len(got) == 0


def test_join_cartesian_quadratic_cost(vm):
    cost = []
    for n in (20, 40):
        vm_i = SecretSharingVM(n_parties=3, meter=Meter(), seed=1)
        rel_l = share_dataframe(
            vm_i, pd.DataFrame({"k": np.arange(n), "a": np.arange(n)})
        )
        rel_r = share_dataframe(
            vm_i, pd.DataFrame({"k": np.arange(n), "b": np.arange(n)})
        )
        b0 = vm_i.meter.bytes_sent
        P.join_cartesian(vm_i, rel_l, rel_r, "k", "k", _rng())
        cost.append(vm_i.meter.bytes_sent - b0)
    # doubling n should ~quadruple the dominant comparison bytes
    assert cost[1] > 3 * cost[0]


def test_join_cartesian_simulated_oom():
    meter = Meter(memory_cap_bytes=1 << 20)  # 1 MiB cap
    vm = SecretSharingVM(n_parties=3, meter=meter, seed=1)
    n = 400  # 400*400*8*3 bytes > 1 MiB
    rel_l = share_dataframe(vm, pd.DataFrame({"k": np.arange(n)}))
    rel_r = share_dataframe(vm, pd.DataFrame({"k": np.arange(n)}))
    with pytest.raises(SimulatedOOM):
        P.join_cartesian(vm, rel_l, rel_r, "k", "k", _rng())


# ----------------------------------------------------------- select/filter
def test_select_by_public_index(vm):
    rel = _share(vm, a=[10, 20, 30], b=[1, 2, 3])
    got = reveal_relation(vm, P.select_by_public_index(vm, rel, np.array([2, 0])))
    np.testing.assert_array_equal(got["a"], [30, 10])
    np.testing.assert_array_equal(got["b"], [3, 1])


def test_filter_flags_and_oblivious_apply(vm):
    col = vm.share(np.array([5, 7, 5, 9], dtype=np.int64))
    flags = P.filter_eq_flags(vm, col, 5)
    np.testing.assert_array_equal(vm.reveal(flags), [1, 0, 1, 0])
    rel = _share(vm, x=[1, 2, 3, 4])
    out = P.apply_filter_oblivious(vm, rel, flags)
    # size-preserving: non-matching rows zeroed, length unchanged
    np.testing.assert_array_equal(vm.reveal(out.columns["x"]), [1, 0, 3, 0])


# ----------------------------------------------------------- distinct count
@pytest.mark.parametrize(
    "keys,mask,expected",
    [
        ([1, 1, 2, 3, 3, 3], None, 3),
        ([1, 1, 2, 3, 3, 3], [1, 1, 0, 1, 0, 1], 2),
        ([4], None, 1),
        ([4], [0], 0),
        ([1, 1, 1], [0, 1, 1], 1),
    ],
)
def test_distinct_count_sorted(vm, keys, mask, expected):
    key = vm.share(np.array(keys, dtype=np.int64))
    m = vm.share(np.array(mask, dtype=np.int64)) if mask is not None else None
    assert vm.reveal(P.distinct_count_sorted(vm, key, m))[0] == expected


# ------------------------------------------------------------------- top-k
def test_top_k_by(vm):
    rel = _share(vm, k=[1, 2, 3, 4], cnt=[10, 40, 20, 30])
    got = reveal_relation(vm, P.top_k_by(vm, rel, "cnt", 2))
    np.testing.assert_array_equal(got["cnt"], [40, 30])
    np.testing.assert_array_equal(got["k"], [2, 4])


def test_top_k_larger_than_relation(vm):
    rel = _share(vm, k=[1, 2], cnt=[5, 9])
    got = reveal_relation(vm, P.top_k_by(vm, rel, "cnt", 10))
    np.testing.assert_array_equal(got["cnt"], [9, 5])
