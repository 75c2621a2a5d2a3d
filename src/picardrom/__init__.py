"""Reduced-order accelerated inexact Picard iterations for coupled systems."""

from . import coupling, driver, harness, numerics, pod, problems
from .driver import (
    CoupledProblem,
    RunConfig,
    RunReport,
    accelerated_run,
    lockstep_verify,
)
from .errors import PicardRomError

__all__ = [
    "coupling",
    "driver",
    "harness",
    "numerics",
    "pod",
    "problems",
    "CoupledProblem",
    "RunConfig",
    "RunReport",
    "accelerated_run",
    "lockstep_verify",
    "PicardRomError",
]

__version__ = "0.1.0"
