"""Deterministic, counter-based random streams.

Every stochastic operation in the package draws from a Philox generator
keyed by ``(seed, label, index)``.  The key is derived with a stable hash,
so a stream depends only on those three values -- never on thread count,
iteration order, or platform hash randomization.  Sparsification uses
``label=tensor name, index=the expert's position``; bootstrap resampling
uses ``label="bootstrap:<layer label>", index=draw index``.
"""

from __future__ import annotations

import hashlib

import numpy as np


def keyed_stream(seed: int, label: str, index: int) -> np.random.Generator:
    """Return an independent generator for ``(seed, label, index)``."""
    material = f"{seed}\x1f{index}\x1f{label}".encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
