"""Deterministic counter-based randomness.

Every stochastic routine in the package draws from a Philox generator keyed
by SHA-256 of (seed, job, index).  Philox is counter-based, so identical
(seed, job, index) triples give byte-identical streams on every platform.
Batched routines key one stream per batch index at a fixed batch size, so
their results depend on that size: it is a module constant, not an option.
"""

import hashlib

import numpy as np


def philox_key(seed: int, job: str, index: int = 0):
    digest = hashlib.sha256(f"{seed}|{job}|{index}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def det_rng(seed: int, job: str, index: int = 0) -> np.random.Generator:
    """Generator for the (seed, job, index) stream."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, job, index)))

