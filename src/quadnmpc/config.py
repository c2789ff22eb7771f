"""Sectioned key-value configuration with complete defaults.

Every runtime knob lives in one flat INI-style document; unknown
sections or keys are rejected so stale configs fail loudly. Values are
coerced to the type of their default. ``section.key=value`` override
strings (the CLI's ``--set``) go through the same validation.
"""

from __future__ import annotations

import configparser
import inspect
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .delay import DelayConfig
from .dynamics import QuadrotorParams
from .ocp import OcpConfig
from .rti import SOLVERS
from .sim import (
    CONTROLLERS,
    NoiseConfig,
    SimConfig,
    VelocityFilterConfig,
    gen_helix,
    gen_smooth_step,
    hover_scenario,
    read_reference_csv,
    step_scenario,
    zstep_scenario,
)


class ConfigError(Exception):
    """Bad configuration: unknown key, wrong type, or inconsistent values."""


def _fmt_vec(values) -> str:
    return ",".join(f"{v:.12g}" for v in values)


_PARAMS = QuadrotorParams()
_OCP = OcpConfig(params=_PARAMS)
_SIM = {f.name: f.default for f in fields(SimConfig)}
_DELAY = DelayConfig()
_NOISE = NoiseConfig()
_VEL_FILTER = VelocityFilterConfig()
# each trajectory kind's generator, and its [traj] keys -> keyword arguments
TRAJECTORIES = {
    "smooth_step": (gen_smooth_step, {"start": "start", "target": "target", "T": "T", "N": "N"}),
    "helix": (
        gen_helix,
        {"r": "radius", "h0": "h0", "dh": "dh", "tf": "t_f", "m": "m", "omega": "omega"},
    ),
}


def _traj_defaults() -> dict[str, object]:
    """The ``[traj]`` defaults: the generators' own keyword defaults."""
    out = {}
    for gen, keys in TRAJECTORIES.values():
        signature = inspect.signature(gen).parameters
        for key, arg in keys.items():
            value = signature[arg].default
            out[key] = _fmt_vec(value) if isinstance(value, tuple) else value
    return out


DEFAULTS: dict[str, dict[str, object]] = {
    "model": {f.name: getattr(_PARAMS, f.name) for f in fields(QuadrotorParams)},
    "nmpc": {
        "N": _OCP.N,
        "dt": _OCP.dt,
        "W": _fmt_vec(_OCP.W),
        "WN": _fmt_vec(_OCP.W_N),
        "u_min": float(_OCP.u_lower[0]),
        "u_max": float(_OCP.u_upper[0]),
    },
    "qp": {
        "solver": _SIM["solver"],
        "block_size": _SIM["block_size"],
        "tol": _SIM["qp_tol"],
        "max_iters": _SIM["qp_max_iters"],
    },
    "delay": {f.name: getattr(_DELAY, f.name) for f in fields(DelayConfig)},
    "sim": {
        # the CLI flies 1.5 s longer than SimConfig's default, on purpose
        "duration": 7.5,
        "micro_step": _SIM["micro_step"],
        "controller": _SIM["controller"],
        "scenario": "step",
        "reference_csv": "",
        "seed": _SIM["seed"],
        "envelope": _SIM["envelope_m"],
        "noise": _NOISE.enabled,
        "noise_pos": _NOISE.sigma_pos,
        "noise_att_deg": _NOISE.sigma_att_deg,
        "noise_gyro": _NOISE.sigma_gyro,
        "vel_filter": _VEL_FILTER.enabled,
        "vel_filter_cutoff": _VEL_FILTER.cutoff_hz,
    },
    "traj": _traj_defaults(),
}


def _coerce(section: str, key: str, raw: str, default):
    try:
        if isinstance(default, bool):
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc


@dataclass
class RunConfig:
    """A fully resolved configuration document."""

    values: dict = field(default_factory=lambda: {s: dict(v) for s, v in DEFAULTS.items()})

    def get(self, section: str, key: str):
        try:
            return self.values[section][key]
        except KeyError as exc:
            raise ConfigError(f"unknown configuration key {section}.{key}") from exc

    def set(self, section: str, key: str, raw: str) -> None:
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ConfigError(f"unknown configuration key {section}.{key}")
        self.values[section][key] = _coerce(section, key, raw, DEFAULTS[section][key])

    def vector(self, section: str, key: str, n: int) -> np.ndarray:
        raw = str(self.get(section, key))
        try:
            vec = np.array([float(v) for v in raw.replace(";", ",").split(",") if v.strip()])
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: cannot parse vector {raw!r}") from exc
        if vec.shape != (n,):
            raise ConfigError(f"{section}.{key}: expected {n} entries, got {vec.size}")
        return vec

    @classmethod
    def load(cls, path=None, overrides=()) -> "RunConfig":
        rc = cls()
        if path is not None:
            parser = configparser.ConfigParser()
            parser.optionxform = str  # keys are case-sensitive (N, W, Jxx, ...)
            try:
                with open(path) as fh:
                    parser.read_file(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            except configparser.Error as exc:
                raise ConfigError(f"malformed config file {path}: {exc}") from exc
            for section in parser.sections():
                if section not in DEFAULTS:
                    raise ConfigError(f"unknown configuration section [{section}]")
                for key, raw in parser.items(section):
                    rc.set(section, key, raw)
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value, got {item!r}")
            dotted, raw = item.split("=", 1)
            section, key = dotted.split(".", 1)
            rc.set(section.strip(), key.strip(), raw.strip())
        rc.validate()
        return rc

    def validate(self) -> None:
        self.make_params()
        self.make_ocp()
        self.make_delay()
        for section, key, known in (
            ("qp", "solver", SOLVERS),
            ("sim", "controller", CONTROLLERS),
            ("sim", "scenario", SCENARIOS),
        ):
            if self.get(section, key) not in known:
                raise ConfigError(f"{section}.{key} must be one of {', '.join(known)}")
        if self.get("sim", "scenario") == "file" and not self.get("sim", "reference_csv"):
            raise ConfigError("sim.reference_csv is required for the file scenario")

    # ---- builders -------------------------------------------------------

    def make_params(self) -> QuadrotorParams:
        try:
            return QuadrotorParams(**self.values["model"])
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc

    def make_ocp(self) -> OcpConfig:
        W = self.vector("nmpc", "W", 17)
        WN = self.vector("nmpc", "WN", 13)
        try:
            return OcpConfig(
                N=self.get("nmpc", "N"),
                dt=self.get("nmpc", "dt"),
                W=W,
                W_N=WN,
                u_lower=np.full(4, float(self.get("nmpc", "u_min"))),
                u_upper=np.full(4, float(self.get("nmpc", "u_max"))),
                params=self.make_params(),
            )
        except ValueError as exc:
            raise ConfigError(f"nmpc: {exc}") from exc

    def make_delay(self) -> DelayConfig:
        """The latencies; with compensation, at least one predictor substep per cycle.

        The replay predictor applies one buffered input per substep. A
        round trip spanning more control cycles than substeps holds
        inputs across their switching times, which the default step
        flight does not survive at ``tau1=0.03`` (two cycles) with one
        substep.
        """
        try:
            delay = DelayConfig(**self.values["delay"])
        except ValueError as exc:
            raise ConfigError(f"delay: {exc}") from exc
        dt = self.get("nmpc", "dt")
        # a round trip of whole cycles may divide to just above their number
        cycles = math.ceil(delay.round_trip / dt - 1e-9)
        if delay.compensate and delay.predictor_steps < cycles:
            raise ConfigError(
                f"delay.compensate=true over a round trip of {cycles} control cycles needs "
                f"delay.predictor_steps={cycles} or more, got {delay.predictor_steps}"
            )
        return delay

    def make_scenario(self):
        return SCENARIOS[self.get("sim", "scenario")](self)

    def make_trajectory(self, kind: str):
        """Generate the ``kind`` trajectory from the ``[traj]`` keys.

        Returns ``(source, sqp_result)``; the helix is not optimized, and
        its result is ``None``.
        """
        gen, keys = TRAJECTORIES[kind]
        kwargs = {
            arg: self.vector("traj", key, 3) if key in ("start", "target") else self.get("traj", key)
            for key, arg in keys.items()
        }
        out = gen(self.make_params(), **kwargs)
        return (out, None) if kind == "helix" else out

    def make_sim(self) -> SimConfig:
        try:
            return SimConfig(
                scenario=self.make_scenario(),
                ocp=self.make_ocp(),
                duration=self.get("sim", "duration"),
                micro_step=self.get("sim", "micro_step"),
                controller=self.get("sim", "controller"),
                solver=self.get("qp", "solver"),
                block_size=self.get("qp", "block_size"),
                qp_tol=self.get("qp", "tol"),
                qp_max_iters=self.get("qp", "max_iters"),
                delay=self.make_delay(),
                noise=NoiseConfig(
                    enabled=self.get("sim", "noise"),
                    sigma_pos=self.get("sim", "noise_pos"),
                    sigma_att_deg=self.get("sim", "noise_att_deg"),
                    sigma_gyro=self.get("sim", "noise_gyro"),
                ),
                vel_filter=VelocityFilterConfig(
                    enabled=self.get("sim", "vel_filter"),
                    cutoff_hz=self.get("sim", "vel_filter_cutoff"),
                ),
                seed=self.get("sim", "seed"),
                envelope_m=self.get("sim", "envelope"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def dump(self) -> str:
        lines = []
        for section, keys in self.values.items():
            lines.append(f"[{section}]")
            for key, val in keys.items():
                lines.append(f"{key} = {val}")
            lines.append("")
        return "\n".join(lines)


# each scenario's reference source, built from the configuration
SCENARIOS = {
    "hover": lambda rc: hover_scenario(rc.make_params()),
    "step": lambda rc: step_scenario(rc.make_params()),
    "zstep": lambda rc: zstep_scenario(rc.make_params()),
    "smooth_step": lambda rc: rc.make_trajectory("smooth_step")[0],
    "helix": lambda rc: rc.make_trajectory("helix")[0],
    "file": lambda rc: read_reference_csv(rc.get("sim", "reference_csv"), rc.make_params()),
}
