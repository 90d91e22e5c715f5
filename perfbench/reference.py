"""Fixed reference computation, timed next to every operation.

The host this benchmark was built on runs the same code up to 1.5x slower
for minutes at a time when its other tenants are busy, and the slowdown
reaches CPU time as well as wall time.  A run therefore times this
computation just before each operation and reports the operation's time
as a multiple of it (``op_rel``): drift of the host's speed moves both
alike, while a change to the library moves only the operation.

The computation uses nothing from reggefem and never changes.  It mixes
the kinds of work the library does: a Python loop over tuple-keyed dicts
(like the mesh build), a dense symmetric eigensolve (like the pencil
solve) and numpy array arithmetic (like the assembly).
"""

import numpy as np

_RNG = np.random.default_rng(20240611)
_X = _RNG.standard_normal((96, 96))
MATRIX = _X + _X.T
VECTOR = _RNG.standard_normal(50_000)


def reference_unit() -> float:
    """About 6 ms of fixed work on a 2-vCPU Intel Xeon VM."""
    table: dict = {}
    acc = 0
    for i in range(20_000):
        key = (i % 97, i % 89)
        acc = (acc + table.get(key, i)) & 0xFFFF
        table[key] = acc
    eig = np.linalg.eigvalsh(MATRIX)
    arr = np.sqrt(np.abs(VECTOR * eig[0] + eig[-1]))
    return float(acc + arr.sum())


def reference(units: int) -> float:
    """Run ``units`` reference units; returns a checksum of the work."""
    return sum(reference_unit() for _ in range(units))
