"""Closed-loop simulation: plant propagation, delays, references, metrics.

The plant is integrated with ERK4 at a micro-step (``SimConfig.micro_step``,
quaternion renormalized every step) while the controller runs every
sampling period. Measurements are taken from the ground-truth history
with the configured latency, optionally corrupted by noise and passed
through the velocity-estimation filter, optionally compensated by the
round-trip-time predictor. Commands take effect after the actuation
latency and are clamped to the rotor-speed bounds.

Each run owns its controller, buffers, and RNG stream, so independent
runs (parameter sweeps) may execute in parallel.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from .delay import DelayConfig, InputBuffer, StateHistory, predict
from .lqr import LqrDesign, design_lqr, lqr_control
from .ocp import OcpConfig, ReferenceWindow, STAGE_REF_DIM
from .qp import QP_MAX_ITERS, QP_TOL
from .rti import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_SOLVER,
    SQP_KKT_TOL,
    ControlOutput,
    RtiController,
    solve_to_convergence,
)

log = logging.getLogger(__name__)

REFERENCE_COLUMNS = "t,x,y,z,qw,qx,qy,qz,vx,vy,vz,wx,wy,wz,u1,u2,u3,u4"
# the flight; the controller's record of each cycle is diagnostics.csv
TRACE_COLUMNS = REFERENCE_COLUMNS + ",ref_x,ref_y,ref_z"
# (column, ControlOutput attribute, format) of diagnostics.csv after the cycle index k
DIAGNOSTICS = (
    ("prep_us", "prep_us", "{:.1f}"),
    ("fb_us", "fb_us", "{:.1f}"),
    ("post_us", "post_us", "{:.1f}"),
    ("qp_linalg_us", "qp_linalg_us", "{:.1f}"),
    ("qp_iters", "qp_iters", "{:d}"),
    ("qp_status", "qp_status", "{}"),
    ("kkt_stat", "kkt_stationarity", "{:.3e}"),
    ("step_norm", "step_norm", "{:.6g}"),
    ("degraded", "degraded", "{:d}"),
    ("x0_gap", "x0_gap", "{:.3e}"),
)
DIAGNOSTICS_COLUMNS = ",".join(["k"] + [column for column, _, _ in DIAGNOSTICS])


# ---------------------------------------------------------------------------
# reference sources
# ---------------------------------------------------------------------------

# where the scenarios start and where the steps go [m]
SCENARIO_START = (0.0, 0.0, 0.4)
SCENARIO_GOAL = (1.0, -1.0, 1.0)


class PositionSource:
    """Piecewise position setpoints (steps, ramps) streamed point-by-point.

    The horizon window is filled with the current setpoint, matching a
    deployment where one reference point arrives per control cycle and
    the controller holds the last received point. Rows carry hover
    attitude/velocity/input.
    """

    def __init__(self, position_fn, hover_input: np.ndarray):
        self._fn = position_fn
        self._u = np.asarray(hover_input, dtype=float)

    def position(self, t: float) -> np.ndarray:
        return np.asarray(self._fn(t), dtype=float)

    def window(self, t: float, N: int, dt: float) -> ReferenceWindow:
        row = np.concatenate([dyn.hover_state(self.position(t)), self._u])
        return ReferenceWindow(stages=np.tile(row, (N, 1)), terminal=row[: dyn.NX].copy())


class SampledTrajectory:
    """Reference rows on a uniform time grid, holding the last point forever.

    Used for pre-generated trajectories; the window previews the stage
    references ahead of the current time, sampled at the stage spacing
    ``dt``, whatever the grid's own spacing.
    """

    def __init__(self, times: np.ndarray, rows: np.ndarray):
        times = np.asarray(times, dtype=float)
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != STAGE_REF_DIM:
            raise ValueError(f"reference rows must be (K, {STAGE_REF_DIM})")
        if len(times) != len(rows) or len(times) < 1:
            raise ValueError("times and rows must align and be non-empty")
        if np.any(np.diff(times) <= 0):
            raise ValueError("reference times must be strictly increasing")
        self.times = times
        self.rows = rows

    def _index(self, t):
        """The row held at each time ``t`` (a float or an array)."""
        idx = np.searchsorted(self.times, np.asarray(t) + 1e-12, side="right") - 1
        return np.clip(idx, 0, len(self.rows) - 1)

    def position(self, t: float) -> np.ndarray:
        return self.rows[self._index(t), :3].copy()

    def window(self, t: float, N: int, dt: float) -> ReferenceWindow:
        idx = self._index(t + np.arange(N + 1) * dt)
        return ReferenceWindow(
            stages=self.rows[idx[:N]], terminal=self.rows[idx[N], : dyn.NX].copy()
        )


def hover_scenario(params: dyn.QuadrotorParams, p=SCENARIO_START) -> PositionSource:
    p = np.asarray(p, dtype=float)
    return PositionSource(lambda t: p, params.hover_input())


def step_scenario(
    params: dyn.QuadrotorParams, start=SCENARIO_START, goal=SCENARIO_GOAL
) -> PositionSource:
    """The steep-step scenario: lateral ramps to the target, a step in z.

    The z channel jumps by the full height difference at 3 s while x/y
    ramp linearly from 1 s to 5 s; this exercises the height axis hard
    (the channel both controllers fight over) while keeping the lateral
    error inside the envelope a clamped linear controller survives.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)

    def fn(t):
        s = np.clip((t - 1.0) / 4.0, 0.0, 1.0)
        p = start + s * (goal - start)
        p[2] = goal[2] if t >= 3.0 else start[2]
        return p

    return PositionSource(fn, params.hover_input())


def zstep_scenario(params: dyn.QuadrotorParams, amplitude=0.6) -> PositionSource:
    """Single vertical step at 0.5 s: the step-response scenario of the latency studies."""
    base = np.asarray(SCENARIO_START, dtype=float)
    target = base + np.array([0.0, 0.0, amplitude])

    def fn(t):
        return target if t >= 0.5 else base

    return PositionSource(fn, params.hover_input())


def gen_smooth_step(
    params: dyn.QuadrotorParams,
    target=SCENARIO_GOAL,
    start=SCENARIO_START,
    T: float = 6.0,
    N: int = 400,
    kkt_tol: float = SQP_KKT_TOL,
    ocp_cfg: OcpConfig | None = None,
):
    """Dynamically feasible smooth step, solved to convergence offline.

    The trajectory optimization tracks a quintic position profile from
    ``start`` to ``target`` over the first three quarters of the
    horizon and hovers afterwards; solving it to KKT convergence yields
    state and input references that satisfy the discrete dynamics to the
    solver tolerance. Returns ``(source, sqp_result)``.
    """
    start = np.asarray(start, dtype=float)
    target = np.asarray(target, dtype=float)
    dt = T / N
    cfg = ocp_cfg or OcpConfig(N=N, dt=dt, params=params)
    if cfg.N != N or abs(cfg.dt - dt) > 1e-12:
        raise ValueError("config horizon must match the requested discretization")
    T_man = 0.75 * T
    delta = target - start
    rows = np.zeros((N + 1, STAGE_REF_DIM))
    for j in range(N + 1):
        s = min(1.0, j * dt / T_man)
        blend = 10 * s**3 - 15 * s**4 + 6 * s**5
        rate = (30 * s**2 - 60 * s**3 + 30 * s**4) / T_man
        state = dyn.hover_state(start + blend * delta)
        state[dyn.VEL] = rate * delta  # identity attitude: body equals inertial
        rows[j, : dyn.NX] = state
        rows[j, dyn.NX :] = params.hover_input()
    refs = ReferenceWindow(stages=rows[:N], terminal=rows[N, : dyn.NX])
    res = solve_to_convergence(cfg, refs, dyn.hover_state(start), kkt_tol=kkt_tol)
    out = np.zeros((N + 1, STAGE_REF_DIM))
    out[:, : dyn.NX] = res.X
    out[:N, dyn.NX :] = res.U
    out[N, dyn.NX :] = res.U[-1]
    times = np.arange(N + 1) * dt
    return SampledTrajectory(times, out), res


def gen_helix(
    params: dyn.QuadrotorParams,
    radius: float = 0.3,
    h0: float = 0.38,
    dh: float = 0.002,
    t_f: float = 15.0,
    m: int = 1000,
    omega: float = 2.0 * math.pi * (2.0 / 15.0),
) -> SampledTrajectory:
    """Kinematic climbing helix, deliberately not dynamically feasible.

    Positions spiral at ``radius`` from height ``h0`` climbing ``dh``
    per interval; velocity references are the analytic derivatives,
    attitude is identity, inputs are hover.
    """
    if radius < 0 or h0 <= 0 or dh < 0 or t_f <= 0 or m < 1:
        raise ValueError("helix parameters must be positive")
    dt = t_f / m
    t = np.arange(m + 1) * dt
    rows = np.zeros((m + 1, STAGE_REF_DIM))
    rows[:, 0] = radius * np.cos(omega * t)
    rows[:, 1] = radius * np.sin(omega * t)
    rows[:, 2] = h0 + np.arange(m + 1) * dh
    rows[:, 3] = 1.0
    rows[:, 7] = -radius * omega * np.sin(omega * t)
    rows[:, 8] = radius * omega * np.cos(omega * t)
    rows[:, 9] = dh / dt
    rows[:, dyn.NX :] = params.hover_input()
    return SampledTrajectory(t, rows)


# ---------------------------------------------------------------------------
# measurement pipeline
# ---------------------------------------------------------------------------


class Butterworth2:
    """Second-order low-pass biquad from the bilinear transform, DC gain one."""

    def __init__(self, cutoff_hz: float, sample_hz: float, channels: int = 1):
        if not 0.0 < cutoff_hz < 0.5 * sample_hz:
            raise ValueError("cutoff must lie strictly below the Nyquist frequency")
        K = math.tan(math.pi * cutoff_hz / sample_hz)
        norm = 1.0 / (1.0 + math.sqrt(2.0) * K + K * K)
        self.b0 = K * K * norm
        self.b1 = 2.0 * self.b0
        self.b2 = self.b0
        self.a1 = 2.0 * (K * K - 1.0) * norm
        self.a2 = (1.0 - math.sqrt(2.0) * K + K * K) * norm
        self._x1 = np.zeros(channels)
        self._x2 = np.zeros(channels)
        self._y1 = np.zeros(channels)
        self._y2 = np.zeros(channels)

    def step(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = (
            self.b0 * x
            + self.b1 * self._x1
            + self.b2 * self._x2
            - self.a1 * self._y1
            - self.a2 * self._y2
        )
        self._x2, self._x1 = self._x1, x
        self._y2, self._y1 = self._y1, y
        return y


@dataclass
class NoiseConfig:
    enabled: bool = False
    sigma_pos: float = 1e-3
    sigma_att_deg: float = 0.2
    sigma_gyro: float = 0.01


@dataclass
class VelocityFilterConfig:
    enabled: bool = False
    cutoff_hz: float = 10.0


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


# the controllers a closed-loop flight can run
CONTROLLERS = ("nmpc", "lqr")


@dataclass
class SimConfig:
    scenario: object  # a reference source (PositionSource / SampledTrajectory)
    ocp: OcpConfig
    duration: float = 6.0
    micro_step: float = 1e-3
    controller: str = "nmpc"
    solver: str = DEFAULT_SOLVER
    block_size: int = DEFAULT_BLOCK_SIZE
    qp_tol: float = QP_TOL
    qp_max_iters: int = QP_MAX_ITERS
    delay: DelayConfig = field(default_factory=DelayConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    vel_filter: VelocityFilterConfig = field(default_factory=VelocityFilterConfig)
    lqr_design: LqrDesign | None = None
    seed: int = 0
    envelope_m: float = 20.0

    def __post_init__(self):
        n_sub = self.ocp.dt / self.micro_step
        if abs(n_sub - round(n_sub)) > 1e-9 or round(n_sub) < 1:
            raise ValueError("micro step must divide the sampling time")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")


@dataclass
class SimTrace:
    """One flight, a row per control cycle.

    ``state``, ``measured`` and ``estimated`` are the true, the measured
    and the controller's estimated state, ``u`` the applied input and
    ``ref`` the reference position. ``cycles`` holds each cycle's
    controller record.
    """

    t: np.ndarray
    state: np.ndarray
    measured: np.ndarray
    estimated: np.ndarray
    u: np.ndarray
    ref: np.ndarray
    cycles: list[ControlOutput] = field(default_factory=list)
    predictor_fallbacks: int = 0
    failure: str | None = None

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        """The :class:`ControlOutput` attribute ``name`` of every cycle."""
        return np.array([getattr(out, name) for out in self.cycles])


def _quantize_delay(value: float, h: float, name: str) -> float:
    k = round(value / h)
    q = k * h
    if abs(q - value) > 1e-12:
        log.warning("%s = %.6f s is not a multiple of the micro step; using %.6f s", name, value, q)
    return q


def run_closed_loop(cfg: SimConfig) -> SimTrace:
    """Simulate the configured controller against the ground-truth plant.

    The trace is truncated with a failure record if the plant leaves the
    sanity envelope or goes non-finite (a diverged closed loop keeps trying
    to integrate an ever-stiffer spin otherwise).
    """
    params = cfg.ocp.params
    h = cfg.micro_step
    n_sub = round(cfg.ocp.dt / h)
    tau_s = cfg.ocp.dt
    tau1 = _quantize_delay(cfg.delay.tau1, h, "tau1")
    tau_fwd = _quantize_delay(cfg.delay.tau2 + cfg.delay.tauc, h, "tau2+tauc")
    tau_r = tau1 + tau_fwd
    n_cycles = round(cfg.duration / tau_s)
    rng = np.random.default_rng(cfg.seed)

    source = cfg.scenario
    x = dyn.hover_state(source.position(0.0))
    history = StateHistory()
    history.push(-1.0, x)
    buffer = InputBuffer()
    buffer.push(-1.0, params.hover_input())

    if cfg.controller == "nmpc":
        ctrl = RtiController(
            cfg.ocp,
            solver=cfg.solver,
            block_size=cfg.block_size,
            qp_tol=cfg.qp_tol,
            qp_max_iters=cfg.qp_max_iters,
        )
        ctrl.reset(source.position(0.0))
        lqr_design = None
    else:
        lqr_design = cfg.lqr_design or design_lqr(
            params, tau_s=tau_s, u_lower=cfg.ocp.u_lower, u_upper=cfg.ocp.u_upper
        )

    vel_filt = (
        Butterworth2(cfg.vel_filter.cutoff_hz, 1.0 / tau_s, channels=3)
        if cfg.vel_filter.enabled
        else None
    )
    prev_meas_pos = None

    rows = []  # (state, measured, estimated, u, ref) of each cycle
    cycles = []
    fallbacks = 0
    failure = None

    for k in range(n_cycles):
        t = k * tau_s

        meas = history.at(t - tau1).copy()
        if cfg.noise.enabled:
            meas[dyn.POS] += rng.normal(0.0, cfg.noise.sigma_pos, 3)
            rot = rng.normal(0.0, math.radians(cfg.noise.sigma_att_deg), 3)
            meas[dyn.QUAT] = dyn.quat_multiply(meas[dyn.QUAT], dyn.quat_from_rotvec(rot))
            meas[dyn.OMEGA] += rng.normal(0.0, cfg.noise.sigma_gyro, 3)
        if vel_filt is not None:
            pos = meas[dyn.POS].copy()
            raw_vel = np.zeros(3) if prev_meas_pos is None else (pos - prev_meas_pos) / tau_s
            prev_meas_pos = pos
            vel_inertial = vel_filt.step(raw_vel)
            R = dyn.quat_to_rotmat(dyn.quat_normalize(meas[dyn.QUAT]))
            meas[dyn.VEL] = R.T @ vel_inertial

        if cfg.delay.compensate and tau_r > 0:
            if len(buffer) == 0:
                fallbacks += 1
            est = predict(
                meas, t - tau1, buffer, tau_r, params, steps=cfg.delay.predictor_steps
            )
        else:
            est = meas

        if cfg.controller == "nmpc":
            out = ctrl.cycle(est, source.window(t, cfg.ocp.N, tau_s))
        else:
            t0 = time.perf_counter_ns()
            u0 = lqr_control(lqr_design, est, p_ref=source.position(t))
            out = ControlOutput(u0, fb_us=(time.perf_counter_ns() - t0) / 1000.0)

        u_cmd = np.clip(out.u0, cfg.ocp.u_lower, cfg.ocp.u_upper)
        buffer.push(t + tau_fwd, u_cmd)
        rows.append((x.copy(), meas, est, u_cmd, source.position(t)))
        cycles.append(out)

        for j in range(n_sub):
            s = t + j * h
            u_act = buffer.at(s)
            x = dyn.erk4_step(lambda q: dyn.ode_rhs(q, u_act, params), x, h)
            x[dyn.QUAT] = dyn.quat_normalize(x[dyn.QUAT])
            history.push(s + h, x)
        buffer.trim(t - max(tau_r, tau_s))
        # the next cycle measures the state tau1 before its own time
        history.trim((k + 1) * tau_s - tau1)

        if not np.isfinite(x).all() or np.abs(x[dyn.POS]).max() > cfg.envelope_m:
            failure = f"plant left the sanity envelope at t={t + tau_s:.3f} s"
            break

    state, measured, estimated, u, ref = (np.array([row[i] for row in rows]) for i in range(5))
    return SimTrace(
        t=np.arange(len(rows)) * tau_s,
        state=state,
        measured=measured,
        estimated=estimated,
        u=u,
        ref=ref,
        cycles=cycles,
        predictor_fallbacks=fallbacks,
        failure=failure,
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass
class Metrics:
    rms: np.ndarray
    overshoot_pct: np.ndarray
    settling_s: float
    saturation_pct: float
    diverged: bool

    @property
    def rms_norm(self) -> float:
        return float(np.sqrt(np.sum(self.rms**2)))


def compute_metrics(trace: SimTrace, u_lower=None, u_upper=None) -> Metrics:
    """Per-axis tracking metrics over the phase after the first reference change.

    Overshoot and settling are measured per axis from that axis's own
    last reference change (scenario events may be staggered), relative
    to the axis's total reference excursion; an axis has settled once it
    stays within 2 % of that excursion, and the reported settling time
    is the worst stepped axis. A truncated (diverged) trace reports
    infinite RMS and overshoot on the stepped axes.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    p = trace.state[:, dyn.POS]
    ref = trace.ref
    err = p - ref
    dt = trace.t[1] - trace.t[0] if len(trace.t) > 1 else 0.0

    change_any = np.nonzero(np.abs(np.diff(ref, axis=0)).sum(axis=1) > 1e-12)[0]
    track_start = int(change_any[0] + 1) if len(change_any) else 0
    rms = np.sqrt(np.mean(err[track_start:] ** 2, axis=0))

    delta = ref[-1] - ref[0]
    stepped = np.abs(delta) > 1e-9
    overshoot = np.zeros(3)
    settling = 0.0 if not np.any(stepped) else -math.inf
    for ax in range(3):
        if not stepped[ax]:
            continue
        ax_changes = np.nonzero(np.abs(np.diff(ref[:, ax])) > 1e-12)[0]
        start = int(ax_changes[-1] + 1) if len(ax_changes) else 0
        seg = p[start:, ax]
        beyond = (seg - ref[-1, ax]) * np.sign(delta[ax])
        overshoot[ax] = max(0.0, float(beyond.max())) / abs(delta[ax]) * 100.0
        # first index after which the axis stays inside the band
        ok = np.abs(seg - ref[-1, ax]) <= 0.02 * abs(delta[ax])
        idx = len(ok)
        while idx > 0 and ok[idx - 1]:
            idx -= 1
        ax_settling = idx * dt if idx < len(ok) else math.inf
        settling = max(settling, ax_settling)

    sat = 0.0
    if u_lower is not None and u_upper is not None:
        at_bound = np.any(
            (trace.u <= np.asarray(u_lower) + 1e-9) | (trace.u >= np.asarray(u_upper) - 1e-9),
            axis=1,
        )
        sat = float(at_bound.mean() * 100.0)

    diverged = trace.failure is not None
    if diverged:
        rms = np.full(3, np.inf)
        overshoot = np.where(stepped, np.inf, overshoot)
        settling = math.inf
    return Metrics(
        rms=rms,
        overshoot_pct=overshoot,
        settling_s=settling,
        saturation_pct=sat,
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# command reconstruction
# ---------------------------------------------------------------------------

PWM_OFFSET = 4070.3
PWM_SLOPE = 0.2685
PWM_MAX = 65535


def reconstruct_commands(u_star: np.ndarray, x_pred: np.ndarray):
    """Translate a rotor-speed solution into the vehicle's input-command set.

    Returns ``(roll_deg, pitch_deg, yaw_rate_dps, pwm_base)`` where the
    angles come from the one-step-ahead attitude prediction and the base
    PWM integer from the affine krpm-to-PWM map, clamped to 16 bits.
    """
    omega_mean = float(np.mean(u_star))
    raw = (1000.0 * omega_mean - PWM_OFFSET) / PWM_SLOPE
    pwm = int(min(max(round(raw), 0), PWM_MAX))
    roll, pitch, _ = dyn.quat_to_euler(x_pred[dyn.QUAT])
    yaw_rate = math.degrees(x_pred[12])
    return math.degrees(roll), math.degrees(pitch), yaw_rate, pwm


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------


def write_trace_csv(path, trace: SimTrace) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS.split(","))
        for i, t in enumerate(trace.t):
            w.writerow(
                [f"{t:.6f}"]
                + [f"{v:.9g}" for v in trace.state[i]]
                + [f"{v:.9g}" for v in trace.u[i]]
                + [f"{v:.9g}" for v in trace.ref[i]]
            )


def write_diagnostics_csv(path, trace: SimTrace) -> None:
    """Per-cycle controller diagnostics: timings, iterations, residuals."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DIAGNOSTICS_COLUMNS.split(","))
        for k, out in enumerate(trace.cycles):
            w.writerow([k] + [fmt.format(getattr(out, attr)) for _, attr, fmt in DIAGNOSTICS])


def write_reference_csv(path, source: SampledTrajectory) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REFERENCE_COLUMNS.split(","))
        for t, row in zip(source.times, source.rows):
            w.writerow([f"{t:.6f}"] + [f"{v:.12g}" for v in row])


def read_reference_csv(path, params: dyn.QuadrotorParams) -> SampledTrajectory:
    """Read a reference file; position-only rows get level attitude and ``params``' hover input."""
    data = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))
    if data.shape[1] == 1 + STAGE_REF_DIM:
        return SampledTrajectory(data[:, 0], data[:, 1:])
    if data.shape[1] == 4:
        rows = np.zeros((data.shape[0], STAGE_REF_DIM))
        rows[:, :3] = data[:, 1:4]
        rows[:, 3] = 1.0
        rows[:, dyn.NX :] = params.hover_input()
        return SampledTrajectory(data[:, 0], rows)
    raise ValueError(f"reference file must have 4 or {1 + STAGE_REF_DIM} columns")
