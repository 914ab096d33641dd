"""Fermi-class SIMT GPGPU baseline."""

from repro.simt.simtstack import EXIT, SIMTStack, SIMTStackError, StackEntry
from repro.simt.sm import FermiRunResult, FermiSM, SMStats
from repro.simt.warp import Warp

__all__ = [
    "EXIT",
    "FermiRunResult",
    "FermiSM",
    "SIMTStack",
    "SIMTStackError",
    "SMStats",
    "StackEntry",
    "Warp",
]
