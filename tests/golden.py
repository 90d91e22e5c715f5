"""SHA-256 digests for the golden bit-identity tests."""

import hashlib

import numpy as np


def digest(value) -> str:
    """SHA-256 prefix of a value: arrays by dtype, shape and bytes; lists
    and tuples element-wise; scalars by repr, which names numpy types."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"nd{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(f"{type(v).__name__}{len(v)}".encode())
            for x in v:
                feed(x)
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()[:16]
