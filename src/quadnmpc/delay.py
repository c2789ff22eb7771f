"""Round-trip-time compensation: input buffering and forward state prediction.

The control loop sees three lumped latencies: receiving measurements
(``tau1``), sending inputs to the actuators (``tau2``), and computing
the control itself (``tauc``). Their sum is the round-trip time. A
measurement taken at ``t`` therefore produces an input that acts at
``t + round_trip``; predicting the state forward over the round trip
with the inputs known to be in flight makes the controller's model
nominally delay-free.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn


@dataclass
class DelayConfig:
    """Latency split [s] and compensation settings.

    ``predictor_steps`` is the number of ERK4 substeps used by the
    forward prediction; one single step over the whole round trip is
    the default, deliberately coarse.
    """

    tau1: float = 0.0
    tau2: float = 0.0
    tauc: float = 0.0
    compensate: bool = False
    predictor_steps: int = 1

    def __post_init__(self):
        if self.tau1 < 0 or self.tau2 < 0 or self.tauc < 0:
            raise ValueError("delays must be nonnegative")
        if self.predictor_steps < 1:
            raise ValueError("predictor needs at least one integration step")

    @property
    def round_trip(self) -> float:
        return self.tau1 + self.tau2 + self.tauc

    @classmethod
    def from_cycle_multiple(cls, lam: int, sampling_time: float, **kwargs) -> "DelayConfig":
        """Round trip of ``lam`` control cycles, lumped into the measurement path.

        Where the latency sits inside the loop is immaterial as long as
        the round trip is unchanged, so studies place all of it on the
        measurement side.
        """
        if lam < 0:
            raise ValueError("cycle multiple must be nonnegative")
        return cls(tau1=lam * sampling_time, tau2=0.0, tauc=0.0, **kwargs)


class _Timeline:
    """Values stamped with strictly increasing times, held between stamps."""

    def __init__(self):
        self._times: list[float] = []
        self._values: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._times)

    def push(self, t: float, value: np.ndarray) -> None:
        if self._times and t <= self._times[-1]:
            raise ValueError("timestamps must be strictly increasing")
        self._times.append(float(t))
        self._values.append(np.asarray(value, dtype=float).copy())

    def _held(self, t: float) -> np.ndarray:
        # before the first entry the first value is returned; a nanosecond
        # of slack absorbs the floating-point wobble of accumulated grid times
        idx = bisect.bisect_right(self._times, t + 1e-9) - 1
        return self._values[max(idx, 0)]

    def trim(self, t_keep: float) -> None:
        """Drop entries no longer needed for lookups at or after ``t_keep``.

        The last entry at or before ``t_keep`` is kept, so every lookup at
        ``t >= t_keep`` returns what it returned before trimming.
        """
        drop = bisect.bisect_right(self._times, t_keep) - 1
        if drop > 0:
            del self._times[:drop]
            del self._values[:drop]


class InputBuffer(_Timeline):
    """Time-stamped record of commanded rotor speeds, strictly increasing in time."""

    def at(self, t: float) -> np.ndarray | None:
        """Input active at time ``t`` (sample-and-hold); None if empty.

        Before the first entry the first input is returned, past the
        last entry the last one.
        """
        return self._held(t) if self._times else None

    def latest(self) -> np.ndarray | None:
        """Most recently issued command; None if empty."""
        return self._values[-1] if self._values else None


class StateHistory(_Timeline):
    """Time-stamped ground-truth states for delayed measurement lookup."""

    def at(self, t: float) -> np.ndarray:
        """Latest state at or before ``t``; the first one before the start."""
        if not self._times:
            raise ValueError("empty state history")
        return self._held(t)


def predict(
    xi_meas: np.ndarray,
    t_meas: float,
    buffer: InputBuffer,
    tau_r: float,
    params: dyn.QuadrotorParams,
    steps: int = 1,
    mode: str = "replay",
) -> np.ndarray:
    """Propagate a measured state over the round trip using buffered inputs.

    The window ``[t_meas, t_meas + tau_r)`` is split into ``steps`` ERK4
    substeps. In ``replay`` mode each substep applies the buffered input
    active at its midpoint, reproducing the actually-sent
    piecewise-constant command sequence (all of it is known to the
    sender); ``latest`` mode holds the most recently issued command over
    the whole window, which discards information and is kept for
    comparison. With the buffer empty, hover input is assumed (the
    caller is expected to flag that). The quaternion is renormalized at
    the end.
    """
    if tau_r < 0:
        raise ValueError("round trip must be nonnegative")
    if mode not in ("replay", "latest"):
        raise ValueError(f"unknown predictor mode {mode!r}")
    xi = np.asarray(xi_meas, dtype=float).copy()
    if tau_r == 0.0:
        return xi
    h = tau_r / steps
    latest = buffer.latest() if mode == "latest" else None
    for j in range(steps):
        u = latest if mode == "latest" else buffer.at(t_meas + (j + 0.5) * h)
        if u is None:
            u = params.hover_input()
        xi = dyn.erk4_step(lambda s: dyn.ode_rhs(s, u, params), xi, h)
    xi[dyn.QUAT] = dyn.quat_normalize(xi[dyn.QUAT])
    return xi
