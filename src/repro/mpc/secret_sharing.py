"""Simulated additive-secret-sharing MPC VM (the "Sharemind" substrate).

Values live in the ring Z_2^64 (numpy ``uint64``). A value ``x`` is split
into ``n_parties`` additive shares that sum to ``x`` mod 2^64; any proper
subset of shares is uniformly distributed and reveals nothing (tested in
``tests/test_secret_sharing.py``).

Protocol fidelity, per DESIGN.md §2.1:

* **Linear ops** (add, sub, negate, public-scalar multiply, public add)
  are genuinely share-local — each "party"'s share array is transformed
  independently, no communication.
* **Multiplication** runs the real Beaver-triple protocol: a trusted
  dealer (standard semi-honest preprocessing model) hands out triple
  shares; parties open the masked differences ``d = x - a`` and
  ``e = y - b`` (metered communication) and linearly combine.
* **Comparisons / equality / division** run as ideal arithmetic-black-box
  (ABB) functionalities: the VM reconstructs internally, computes, and
  re-shares a fresh sharing of the result, while charging the
  communication a real bit-decomposition protocol would cost. The fresh
  re-sharing keeps the share-level security invariant (any single party's
  view stays uniform).

All ops are vectorized over numpy arrays; communication *rounds* are
charged per batched op (Sharemind is SIMD-batched), *bytes* per element.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import Meter

RING_BITS = 64
_DTYPE = np.uint64
_WORD_BYTES = 8
#: Byte blow-up factor for ABB comparison/equality (bit-decomposition-style
#: protocols move a few ring elements per input bit; 5 words/element is in
#: the right regime for Sharemind-era protocols).
_CMP_WORDS_PER_ELEM = 5
#: Rounds per batched comparison (log k + constant).
_CMP_ROUNDS = 8
#: Rounds per batched ABB fixed-point division.
_DIV_ROUNDS = 16
_DIV_WORDS_PER_ELEM = 12


@dataclass(frozen=True)
class SharedVector:
    """An additively-shared vector: ``shares[i]`` is party *i*'s share."""

    shares: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.shares[0])

    @property
    def n_parties(self) -> int:
        return len(self.shares)


def _as_ring(values: np.ndarray) -> np.ndarray:
    """Map signed/unsigned ints into the ring (two's complement)."""
    return np.asarray(values).astype(np.int64).view(_DTYPE).copy()


def _from_ring(values: np.ndarray) -> np.ndarray:
    """Interpret ring elements as signed 64-bit ints."""
    return values.view(np.int64).copy()


class SecretSharingVM:
    """Three-party (by default) additive-sharing MPC virtual machine.

    One VM instance models one MPC session between the parties; all
    communication is charged to ``meter``.
    """

    def __init__(self, n_parties: int = 3, meter: Meter | None = None, seed: int = 7):
        if n_parties < 2:
            raise ValueError("MPC needs at least 2 parties")
        self.n_parties = n_parties
        self.meter = meter if meter is not None else Meter()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ I/O
    def share(self, values: np.ndarray) -> SharedVector:
        """Secret-share a cleartext int vector (inputToMPC).

        The input owner sends one share to each other party: n-1 words per
        element over the network, one round.
        """
        x = _as_ring(values)
        self.meter.charge_comm(
            rounds=1, bytes_sent=len(x) * _WORD_BYTES * (self.n_parties - 1)
        )
        return self._reshare(x)

    def _random_ring(self, n: int) -> np.ndarray:
        """n uniform ring elements, one full-range 64-bit draw each."""
        return self._rng.bit_generator.random_raw(n)

    def _reshare(self, cleartext_ring: np.ndarray) -> SharedVector:
        """Produce a fresh sharing of an internally-computed result
        (ideal-functionality output). No communication charge here; the
        calling ABB op charges its protocol cost."""
        shares = [
            self._random_ring(len(cleartext_ring)) for _ in range(self.n_parties - 1)
        ]
        last = cleartext_ring.copy()
        for s in shares:
            last -= s
        shares.append(last)
        return SharedVector(tuple(shares))

    def _reconstruct_ring(self, sv: SharedVector) -> np.ndarray:
        total = sv.shares[0].copy()
        for s in sv.shares[1:]:
            total += s
        return total

    def reveal(self, sv: SharedVector) -> np.ndarray:
        """Open a shared vector to all parties (metered) → signed int64."""
        self.meter.charge_comm(
            rounds=1,
            bytes_sent=len(sv) * _WORD_BYTES * self.n_parties * (self.n_parties - 1),
        )
        return _from_ring(self._reconstruct_ring(sv))

    def reveal_to(self, sv: SharedVector, _party: str | int = 0) -> np.ndarray:
        """Open a shared vector to a single party (e.g. the STP)."""
        self.meter.charge_comm(
            rounds=1, bytes_sent=len(sv) * _WORD_BYTES * (self.n_parties - 1)
        )
        return _from_ring(self._reconstruct_ring(sv))

    # ------------------------------------------------------- linear algebra
    def add(self, a: SharedVector, b: SharedVector) -> SharedVector:
        return SharedVector(tuple(x + y for x, y in zip(a.shares, b.shares)))

    def sub(self, a: SharedVector, b: SharedVector) -> SharedVector:
        return SharedVector(tuple(x - y for x, y in zip(a.shares, b.shares)))

    def add_public(self, a: SharedVector, c: np.ndarray | int) -> SharedVector:
        cr = _as_ring(np.broadcast_to(np.asarray(c, dtype=np.int64), (len(a),)))
        shares = list(s.copy() for s in a.shares)
        shares[0] = shares[0] + cr
        return SharedVector(tuple(shares))

    def mul_public(self, a: SharedVector, c: np.ndarray | int) -> SharedVector:
        cr = _as_ring(np.broadcast_to(np.asarray(c, dtype=np.int64), (len(a),)))
        return SharedVector(tuple(s * cr for s in a.shares))

    def sum(self, a: SharedVector) -> SharedVector:
        """Share-local sum over the vector → length-1 shared vector."""
        return SharedVector(
            tuple(np.array([s.sum(dtype=_DTYPE)], dtype=_DTYPE) for s in a.shares)
        )

    def segment_sum(self, a: SharedVector, segment_ids: np.ndarray) -> SharedVector:
        """Share-local segmented sum by *public* segment ids (used when row
        grouping is public, e.g. after a hybrid aggregation's clear sort)."""
        n_seg = int(segment_ids.max()) + 1 if len(segment_ids) else 0
        out = []
        for s in a.shares:
            acc = np.zeros(n_seg, dtype=_DTYPE)
            np.add.at(acc, segment_ids, s)
            out.append(acc)
        return SharedVector(tuple(out))

    # -------------------------------------------------------- Beaver triples
    def _beaver_triple(self, n: int) -> tuple[SharedVector, SharedVector, SharedVector]:
        """Trusted-dealer triple generation (semi-honest preprocessing)."""
        a = self._random_ring(n)
        b = self._random_ring(n)
        c = a * b
        return self._reshare(a), self._reshare(b), self._reshare(c)

    def mul(self, x: SharedVector, y: SharedVector) -> SharedVector:
        """Real Beaver-triple multiplication: open d=x-a and e=y-b, then
        z = c + d·b + e·a + d·e (the public d·e added by one party)."""
        n = len(x)
        a, b, c = self._beaver_triple(n)
        d = self._reconstruct_ring(self.sub(x, a))
        e = self._reconstruct_ring(self.sub(y, b))
        # Two openings in one round (batched), each n words to each of the
        # other parties from each party.
        self.meter.charge_comm(
            rounds=1,
            bytes_sent=2 * n * _WORD_BYTES * self.n_parties * (self.n_parties - 1),
        )
        z_shares = []
        for i in range(self.n_parties):
            zi = c.shares[i] + d * b.shares[i] + e * a.shares[i]
            if i == 0:
                zi = zi + d * e
            z_shares.append(zi)
        return SharedVector(tuple(z_shares))

    # ----------------------------------------------------- ABB nonlinear ops
    def _abb(self, result: np.ndarray, *, rounds: int, words_per_elem: int,
             n_elems: int) -> SharedVector:
        self.meter.charge_comm(
            rounds=rounds,
            bytes_sent=n_elems
            * words_per_elem
            * _WORD_BYTES
            * self.n_parties
            * (self.n_parties - 1),
        )
        return self._reshare(_as_ring(result))

    def lt(self, a: SharedVector, b: SharedVector) -> SharedVector:
        """Shared [a < b] (signed). ABB functionality, bit-decomposition cost."""
        av = _from_ring(self._reconstruct_ring(a))
        bv = _from_ring(self._reconstruct_ring(b))
        return self._abb(
            (av < bv).astype(np.int64),
            rounds=_CMP_ROUNDS, words_per_elem=_CMP_WORDS_PER_ELEM, n_elems=len(a),
        )

    def eq(self, a: SharedVector, b: SharedVector) -> SharedVector:
        """Shared [a == b]. ABB functionality, bit-decomposition cost."""
        av = self._reconstruct_ring(a)
        bv = self._reconstruct_ring(b)
        return self._abb(
            (av == bv).astype(np.int64),
            rounds=_CMP_ROUNDS, words_per_elem=_CMP_WORDS_PER_ELEM, n_elems=len(a),
        )

    def eq_outer(self, a: SharedVector, b: SharedVector) -> SharedVector:
        """All-pairs equality [a_i == b_j], flattened row-major (len(a)·len(b)).

        This is the quadratic kernel of the Cartesian-product MPC join; the
        communication charge is what makes the MPC join O(n²)."""
        av = self._reconstruct_ring(a)
        bv = self._reconstruct_ring(b)
        flags = (av[:, None] == bv[None, :]).astype(np.int64).ravel()
        return self._abb(
            flags,
            rounds=_CMP_ROUNDS,
            words_per_elem=_CMP_WORDS_PER_ELEM,
            n_elems=len(av) * len(bv),
        )

    def div_fixed(self, num: SharedVector, den: SharedVector, scale: int) -> SharedVector:
        """Fixed-point division: floor(num * scale / den). ABB functionality
        (real secret-shared division is Goldschmidt-style iteration)."""
        nv = _from_ring(self._reconstruct_ring(num)).astype(object)
        dv = _from_ring(self._reconstruct_ring(den)).astype(object)
        out = np.array(
            [int(n * scale) // int(d) if d != 0 else 0 for n, d in zip(nv, dv)],
            dtype=np.int64,
        )
        return self._abb(
            out, rounds=_DIV_ROUNDS, words_per_elem=_DIV_WORDS_PER_ELEM,
            n_elems=len(num),
        )

    # ----------------------------------------------- data-movement protocols
    def permute_public(self, a: SharedVector, perm: np.ndarray) -> SharedVector:
        """Reorder by a *public* permutation — share-local, free."""
        return SharedVector(tuple(s[perm] for s in a.shares))

    def oblivious_permute(self, a: SharedVector, perm: np.ndarray) -> SharedVector:
        """Apply a permutation hidden from all parties (resharing-based
        shuffle, O(n) words per party-pair, constant rounds). ``perm`` is
        supplied by the protocol driver's private coins."""
        n = len(a)
        self.meter.charge_comm(
            rounds=self.n_parties,
            bytes_sent=n * _WORD_BYTES * self.n_parties * (self.n_parties - 1),
        )
        return self._reshare(self._reconstruct_ring(a)[perm])

    def gather(self, a: SharedVector, idx: np.ndarray) -> SharedVector:
        """Oblivious indexing (Laud-style select): pick rows at secret
        positions. Charged O((n+m) log(n+m)) words."""
        n, m = len(a), len(idx)
        logf = max(1.0, np.log2(max(2, n + m)))
        self.meter.charge_comm(
            rounds=int(np.ceil(logf)),
            bytes_sent=(n + m) * logf * _WORD_BYTES
            * self.n_parties * (self.n_parties - 1),
        )
        return self._reshare(self._reconstruct_ring(a)[idx])

    def concat(self, vs: list[SharedVector]) -> SharedVector:
        """Row-wise concatenation of shared vectors — share-local."""
        return SharedVector(
            tuple(
                np.concatenate([v.shares[i] for v in vs])
                for i in range(vs[0].n_parties)
            )
        )

    def take(self, a: SharedVector, mask_or_slice) -> SharedVector:
        """Share-local selection by public mask/slice/index array."""
        return SharedVector(tuple(s[mask_or_slice] for s in a.shares))
