"""SMCQL-style slicing on a public key column (Bater et al. [3]).

SMCQL partitions data on a public attribute (the anonymized patient ID):
a *slice* whose key exists at only one party is processed entirely in
the clear at that party; slices whose key appears at both parties are
processed under (many small) MPCs. Conclave's §7.4 comparison manually
combines this slicing with its public join; we implement both modes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass
class Slices:
    """Row partitions of one relation by slice type."""

    #: per party: rows whose key appears at that party only
    single: dict[str, pd.DataFrame]
    #: per party: rows whose key appears at both parties (MPC-bound)
    shared: dict[str, pd.DataFrame]
    shared_keys: np.ndarray


def slice_by_key(
    parts: dict[str, pd.DataFrame], key: str, *, key_locations: dict[str, np.ndarray]
) -> Slices:
    """Split each party's rows by whether the row's key is held by more
    than one party. ``key_locations`` maps party -> the distinct keys that
    party holds *anywhere* (across all relations in the query), because
    a patient is MPC-bound if any of their data is split across parties."""
    parties = sorted(key_locations)
    assert len(parties) == 2, "SMCQL slicing is two-party"
    shared_keys = np.intersect1d(
        key_locations[parties[0]], key_locations[parties[1]], assume_unique=True
    )
    single, shared = {}, {}
    for p, pdf in parts.items():
        mask = np.isin(pdf[key].to_numpy(), shared_keys)
        shared[p] = pdf[mask].reset_index(drop=True)
        single[p] = pdf[~mask].reset_index(drop=True)
    return Slices(single=single, shared=shared, shared_keys=shared_keys)


def key_locations(
    relations: list[dict[str, pd.DataFrame]], key: str
) -> dict[str, np.ndarray]:
    """For each party, the sorted distinct keys it holds across all
    relations."""
    cols: dict[str, list[np.ndarray]] = {}
    for rel in relations:
        for p, pdf in rel.items():
            cols.setdefault(p, []).append(pdf[key].to_numpy())
    return {p: np.unique(np.concatenate(c)) for p, c in cols.items()}
