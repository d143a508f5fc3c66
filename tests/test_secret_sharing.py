"""Unit tests for the additive-secret-sharing VM (Sharemind substrate)."""
import numpy as np
import pytest

from repro.mpc.accounting import Meter
from repro.mpc.secret_sharing import SecretSharingVM


@pytest.fixture()
def vm() -> SecretSharingVM:
    return SecretSharingVM(n_parties=3, meter=Meter(), seed=42)


@pytest.mark.parametrize("n_parties", [2, 3, 4])
@pytest.mark.parametrize(
    "values",
    [
        np.array([0, 1, -1, 2**40, -(2**40)], dtype=np.int64),
        np.arange(-50, 50, dtype=np.int64),
        np.array([7], dtype=np.int64),
    ],
)
def test_share_reconstruct_roundtrip(n_parties, values):
    vm = SecretSharingVM(n_parties=n_parties, meter=Meter(), seed=1)
    sv = vm.share(values)
    assert sv.n_parties == n_parties
    np.testing.assert_array_equal(vm.reveal(sv), values)


def test_single_party_share_is_uniformish(vm):
    """No proper subset of shares should reveal the secret: each party's
    share of a constant vector must look uniform over the ring."""
    secret = np.zeros(4000, dtype=np.int64)
    sv = vm.share(secret)
    for party_share in sv.shares:
        # top byte of a uniform 64-bit value is uniform over 0..255
        top = (party_share >> np.uint64(56)).astype(np.int64)
        counts = np.bincount(top, minlength=256)
        assert counts.max() < 4 * counts.mean()
        # share of constant-zero vector must not itself be constant
        assert len(np.unique(party_share)) > 3900


@pytest.mark.parametrize("a,b", [(3, 4), (-3, 4), (2**30, 2**30), (0, 9)])
def test_add_sub(vm, a, b):
    av = vm.share(np.array([a], dtype=np.int64))
    bv = vm.share(np.array([b], dtype=np.int64))
    assert vm.reveal(vm.add(av, bv))[0] == a + b
    assert vm.reveal(vm.sub(av, bv))[0] == a - b


def test_linear_ops_cost_no_communication(vm):
    av = vm.share(np.arange(100, dtype=np.int64))
    bv = vm.share(np.arange(100, dtype=np.int64))
    before_rounds, before_bytes = vm.meter.rounds, vm.meter.bytes_sent
    vm.add(av, bv)
    vm.sub(av, bv)
    vm.mul_public(av, 17)
    vm.add_public(av, 5)
    vm.sum(av)
    assert vm.meter.rounds == before_rounds
    assert vm.meter.bytes_sent == before_bytes


def test_add_public_mul_public(vm):
    av = vm.share(np.array([5, -2, 100], dtype=np.int64))
    np.testing.assert_array_equal(vm.reveal(vm.add_public(av, 10)), [15, 8, 110])
    np.testing.assert_array_equal(vm.reveal(vm.mul_public(av, -3)), [-15, 6, -300])
    np.testing.assert_array_equal(
        vm.reveal(vm.mul_public(av, np.array([1, 2, 3]))), [5, -4, 300]
    )


def test_beaver_multiplication_correct(vm):
    g = np.random.default_rng(0)
    a = g.integers(-(2**20), 2**20, 500)
    b = g.integers(-(2**20), 2**20, 500)
    av, bv = vm.share(a), vm.share(b)
    np.testing.assert_array_equal(vm.reveal(vm.mul(av, bv)), a * b)


def test_beaver_triple_masks_are_uniform(vm):
    """The triple's a and b mask the opened d = x - a and e = y - b, so
    they must be uniform over the whole ring, top bit included."""
    a, b, c = vm._beaver_triple(10_000)
    a_r, b_r = vm._reconstruct_ring(a), vm._reconstruct_ring(b)
    np.testing.assert_array_equal(vm._reconstruct_ring(c), a_r * b_r)
    for mask in (a_r, b_r):
        top_bit = (mask >> np.uint64(63)).mean()
        assert abs(top_bit - 0.5) < 0.03


def test_beaver_multiplication_charges_communication(vm):
    av = vm.share(np.arange(1000, dtype=np.int64))
    r0, b0 = vm.meter.rounds, vm.meter.bytes_sent
    vm.mul(av, av)
    assert vm.meter.rounds == r0 + 1  # batched: one opening round
    assert vm.meter.bytes_sent > b0 + 1000 * 8  # at least the openings


def test_sum_and_segment_sum(vm):
    a = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    av = vm.share(a)
    assert vm.reveal(vm.sum(av))[0] == 15
    seg = np.array([0, 0, 1, 1, 1])
    np.testing.assert_array_equal(vm.reveal(vm.segment_sum(av, seg)), [3, 12])


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ([1, 5, -3, 0], [2, 5, -4, 0], [1, 0, 0, 0]),
        ([2**40], [2**41], [1]),
    ],
)
def test_lt(vm, a, b, expected):
    av = vm.share(np.array(a, dtype=np.int64))
    bv = vm.share(np.array(b, dtype=np.int64))
    np.testing.assert_array_equal(vm.reveal(vm.lt(av, bv)), expected)


def test_eq(vm):
    a = np.array([1, 2, 3, -7], dtype=np.int64)
    b = np.array([1, 0, 3, 7], dtype=np.int64)
    np.testing.assert_array_equal(
        vm.reveal(vm.eq(vm.share(a), vm.share(b))), [1, 0, 1, 0]
    )


def test_eq_outer_flags_and_cost(vm):
    a = np.array([1, 2, 3], dtype=np.int64)
    b = np.array([3, 1], dtype=np.int64)
    b0 = vm.meter.bytes_sent
    flags = vm.reveal(vm.eq_outer(vm.share(a), vm.share(b)))
    np.testing.assert_array_equal(flags, [0, 1, 0, 0, 1, 0])
    # quadratic cost: at least 6 comparisons' worth of bytes
    assert vm.meter.bytes_sent - b0 > 6 * 8


def test_div_fixed(vm):
    num = vm.share(np.array([10, 7, 0], dtype=np.int64))
    den = vm.share(np.array([4, 2, 5], dtype=np.int64))
    out = vm.reveal(vm.div_fixed(num, den, scale=1000))
    np.testing.assert_array_equal(out, [2500, 3500, 0])


def test_div_fixed_by_zero_yields_zero(vm):
    out = vm.reveal(
        vm.div_fixed(
            vm.share(np.array([5], dtype=np.int64)),
            vm.share(np.array([0], dtype=np.int64)),
            scale=10,
        )
    )
    assert out[0] == 0


def test_permutations_and_gather(vm):
    a = np.array([10, 20, 30, 40], dtype=np.int64)
    av = vm.share(a)
    perm = np.array([2, 0, 3, 1])
    np.testing.assert_array_equal(vm.reveal(vm.permute_public(av, perm)), a[perm])
    np.testing.assert_array_equal(vm.reveal(vm.oblivious_permute(av, perm)), a[perm])
    idx = np.array([3, 3, 0])
    np.testing.assert_array_equal(vm.reveal(vm.gather(av, idx)), a[idx])


def test_oblivious_permute_produces_fresh_shares(vm):
    a = np.arange(16, dtype=np.int64)
    av = vm.share(a)
    perm = np.arange(16)  # identity
    out = vm.oblivious_permute(av, perm)
    # identity permutation must still re-randomize every party's share
    for before, after in zip(av.shares, out.shares):
        assert not np.array_equal(before, after)


def test_concat_and_take(vm):
    a = vm.share(np.array([1, 2], dtype=np.int64))
    b = vm.share(np.array([3], dtype=np.int64))
    c = vm.concat([a, b])
    np.testing.assert_array_equal(vm.reveal(c), [1, 2, 3])
    np.testing.assert_array_equal(vm.reveal(vm.take(c, np.array([2, 0]))), [3, 1])
    np.testing.assert_array_equal(vm.reveal(vm.take(c, slice(0, 2))), [1, 2])
