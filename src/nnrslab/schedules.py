"""Replacement-rate schedules over normalized training progress.

A schedule maps progress z = epoch / total_epochs in [0, 1] to a rate
interpolated between start_rate and end_rate through one of four
shapes, each normalized so f(0) = 0 and f(1) = 1:

    static       f(z) = 1                      (rate is end_rate throughout)
    linear       f(z) = z
    sigmoid      f(z) = (1 + sin(z*pi - pi/2)) / 2
    exponential  f(z) = (e^(10 z) - 1) / (e^10 - 1)

The sigmoid shape is a half sine period, flat at both endpoints; the
exponential shape stays near start_rate for most of training and rises
sharply at the end.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .policy import check_unit_interval

KINDS = ("static", "linear", "sigmoid", "exponential")


def _shape(kind: str, z: float) -> float:
    if kind == "static":
        return 1.0
    if kind == "linear":
        return z
    if kind == "sigmoid":
        return (1.0 + np.sin(z * np.pi - np.pi / 2.0)) / 2.0
    if kind == "exponential":
        return float(np.expm1(10.0 * z) / np.expm1(10.0))
    raise ValueError("unknown schedule kind %r (expected one of %s)" % (kind, ", ".join(KINDS)))


@dataclass(frozen=True)
class Schedule:
    """Rate curve rate(z) = start + (end - start) * f(z) on z in [0, 1]."""

    kind: str
    start_rate: float
    end_rate: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                "unknown schedule kind %r (expected one of %s)" % (self.kind, ", ".join(KINDS))
            )
        check_unit_interval("start_rate", self.start_rate)
        check_unit_interval("end_rate", self.end_rate)
        if self.kind == "static":
            # a static schedule is end_rate everywhere, including z = 0
            object.__setattr__(self, "start_rate", self.end_rate)

    def rate(self, z: float) -> float:
        if not 0.0 <= z <= 1.0:
            warnings.warn("progress %g outside [0, 1], clamping" % z, stacklevel=2)
            z = min(max(z, 0.0), 1.0)
        return self.start_rate + (self.end_rate - self.start_rate) * float(_shape(self.kind, z))

    def table(self, total_epochs: int) -> np.ndarray:
        """Rates at z = i / total_epochs for i = 0 .. total_epochs."""
        if total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        return np.array([self.rate(i / total_epochs) for i in range(total_epochs + 1)])


def rates_for_epoch(ss: Schedule, nnrs: Schedule, epoch: int, total_epochs: int):
    """(epsilon, gamma) at progress epoch / total_epochs."""
    if total_epochs < 1:
        raise ValueError("total_epochs must be >= 1")
    if not 0 <= epoch <= total_epochs:
        raise ValueError("epoch must be in [0, %d], got %d" % (total_epochs, epoch))
    z = epoch / total_epochs
    return ss.rate(z), nnrs.rate(z)
