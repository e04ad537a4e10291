"""The two PLRU-IPV executors.

:mod:`repro.engine.columnar` is the numpy-columnar batch executor: all
cache sets (and many IPV/config lanes) advance in lockstep over an access
trace, with the per-access policy math served by the precompiled
transition tables of :mod:`repro.kernels`.

:mod:`repro.engine.scalar` is the numpy-free scalar executor
(:class:`ScalarStreamSimulator`): one-shot for the GA fitness simulator,
streaming for the serving front-end, on the tables when they compile and
on the bit-walk otherwise — bit-for-bit equal to the columnar engine.
:mod:`repro.core.plru` and :mod:`repro.verify.oracles` stay the
independent reference both are checked against.
"""

from .columnar import (
    BatchSimulator,
    ColumnarTrace,
    ColumnarUnavailable,
    DuelBatchSimulator,
    columnar_supported,
    require_numpy,
    simulate_misses_plru_columnar,
)
from .scalar import ScalarStreamSimulator

__all__ = [
    "BatchSimulator",
    "ColumnarTrace",
    "ColumnarUnavailable",
    "DuelBatchSimulator",
    "ScalarStreamSimulator",
    "columnar_supported",
    "require_numpy",
    "simulate_misses_plru_columnar",
]
