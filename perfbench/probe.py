"""Host-speed probe: a fixed piece of work run after every timed interval.

On a shared host the speed of identical work drifts by tens of percent over
minutes, and much of that drift is common to interpreted Python, small numpy
calls and array kernels. The probe runs those three kinds of work in about
equal parts. ``Speed.factor`` turns a run's wall times into *nominal
seconds*: the time they would have taken on a host where the probe takes
``NOMINAL_S``. Common drift cancels in that ratio, while a change to the
program's own speed does not, because the probe never runs program code.
The correction is partial: the workloads do not follow the probe one for
one (README.md, Steadiness)."""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's median time on the development host (see README.md). Any
# constant works; it only fixes the unit.
NOMINAL_S = 0.05

_RNG = np.random.default_rng(20180122)
_FRAMES = _RNG.standard_normal((240, 39))
_MEANS = _RNG.standard_normal((90, 39))
_INV_VARS = 1.0 / (_RNG.random((90, 39)) + 0.5)
_SIGNAL = _RNG.standard_normal((120, 512))
_BAND = np.log(np.full(9, 0.5))


def _interpreter() -> int:
    total = 0
    for i in range(120000):
        total += i * i % 7
    return total


def _small_calls() -> float:
    alpha = np.linspace(-3.0, 0.0, 9)
    for _ in range(1000):
        alpha = np.logaddexp(alpha + _BAND, np.roll(alpha, 1) + _BAND) - 0.01
    return float(alpha.max())


def _array_kernels() -> float:
    return sum(_array_block() for _ in range(3))


def _array_block() -> float:
    diff = _FRAMES[:, None, :] - _MEANS[None]
    dens = -0.5 * np.einsum("tmd,tmd,md->tm", diff, diff, _INV_VARS)
    peak = dens.max(axis=1, keepdims=True)
    total = np.log(np.exp(dens - peak).sum(axis=1)) + peak[:, 0]
    spectra = np.abs(np.fft.rfft(_SIGNAL, 1024, axis=1)) ** 2
    return float(total.sum() + spectra.sum())


def probe() -> float:
    """Wall time of one fixed unit of mixed work, in seconds."""
    start = time.perf_counter()
    _interpreter()
    _small_calls()
    _array_kernels()
    return time.perf_counter() - start


class Speed:
    """Probe samples taken through a run, turned into one scale factor."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, seconds: float) -> None:
        """Probe for at least `seconds` of wall time, and at least once."""
        end = time.perf_counter() + seconds
        self.samples.append(probe())
        while time.perf_counter() < end:
            self.samples.append(probe())

    def factor(self) -> float:
        """Nominal seconds per wall second over the run so far.

        The median of many short probes tracks the host's speed over the run
        while single probes jitter; drift within a run is left to the medians
        of the timed intervals.
        """
        return NOMINAL_S / statistics.median(self.samples)
