"""Deterministic seed derivation for all stochastic stages.

Every random draw in the package starts from a seed derived as
sha256("{master}:{name}") truncated to the first 8 bytes, read
big-endian.  Deriving rather than sharing one generator keeps results
independent of evaluation order and worker count.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, name: str) -> int:
    """Derive a stream seed from a master seed and a stage name."""
    digest = hashlib.sha256(f"{master}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
