"""Fixed and adaptive explicit time steppers for state dynamics.

Provides forward Euler, the classical fourth-order Runge-Kutta scheme and an
adaptive Dormand-Prince 5(4) pair with FSAL reuse. The right-hand side is an
autonomous map state -> state. Error control uses the max norm
|err| / (atol + rtol * |x|) with acceptance at <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteState, StepLimitExceeded

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "euler_step",
    "rk4_step",
    "dopri5_step",
    "integrate",
    "iterate_map",
]

SCHEMES = ("euler", "rk4", "dopri5")

SAFETY = 0.9
FACTOR_MIN = 0.2
FACTOR_MAX = 5.0

# Dormand-Prince 5(4) tableau. B holds the fifth-order weights, E the
# difference against the embedded fourth-order solution.
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
DP_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and step control parameters."""

    scheme: str = "dopri5"
    h: float = 0.1
    rtol: float = 1e-6
    atol: float = 1e-8
    t_end: float = 1.0
    max_steps: int = 100_000

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        for name in ("h", "rtol", "atol", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.h <= 0.0:
            raise ValueError("step size h must be positive")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        # NaN or a fraction would make the step-budget comparisons meaningless.
        try:
            integral = self.max_steps == int(self.max_steps)
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral or self.max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        object.__setattr__(self, "max_steps", int(self.max_steps))

    def to_json(self):
        return {
            "scheme": self.scheme,
            "h": self.h,
            "rtol": self.rtol,
            "atol": self.atol,
            "t_end": self.t_end,
            "max_steps": self.max_steps,
        }

    @classmethod
    def from_json(cls, obj):
        base = cls()
        return cls(
            scheme=str(obj.get("scheme", base.scheme)),
            h=float(obj.get("h", base.h)),
            rtol=float(obj.get("rtol", base.rtol)),
            atol=float(obj.get("atol", base.atol)),
            t_end=float(obj.get("t_end", base.t_end)),
            max_steps=obj.get("max_steps", base.max_steps),
        )


@dataclass
class Trajectory:
    """Recorded times and states, plus optional per-time diagnostics."""

    times: np.ndarray
    states: list[np.ndarray]
    energies: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def final_state(self):
        return self.states[-1]

    def __len__(self):
        return len(self.states)


def euler_step(f, x, h):
    """One forward Euler step."""
    return x + h * f(x)


def rk4_step(f, x, h):
    """One classical fourth-order Runge-Kutta step."""
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def dopri5_step(f, x, h, k1=None):
    """One Dormand-Prince 5(4) step.

    Returns (x_new, err_vec, k_last). k_last is the derivative at x_new and
    can be fed back as k1 of the next step (FSAL). Passing k1 skips the
    first stage evaluation.
    """
    k = [k1 if k1 is not None else f(x)]
    for row in DP_A[1:]:
        xi = x + h * sum(a * ki for a, ki in zip(row, k))
        k.append(f(xi))
    x_new = x + h * sum(b * ki for b, ki in zip(DP_B, k) if b != 0.0)
    err = h * sum(e * ki for e, ki in zip(DP_E, k) if e != 0.0)
    return x_new, err, k[6]


def _error_norm(err, x, rtol, atol):
    scale = atol + rtol * np.abs(x)
    return float(np.max(np.abs(err) / scale)) if err.size else 0.0


def _initial_step(f, x0, cfg):
    """Curvature-based starting step, capped at t_end / 100."""
    cap = cfg.t_end / 100.0
    f0 = f(x0)
    d0 = _error_norm(x0, x0, cfg.rtol, cfg.atol)
    d1 = _error_norm(f0, x0, cfg.rtol, cfg.atol)
    if d0 < 1e-5 or d1 < 1e-5:
        h_a = 1e-6
    else:
        h_a = 0.01 * d0 / d1
    x1 = x0 + h_a * f0
    f1 = f(x1)
    d2 = _error_norm(f1 - f0, x0, cfg.rtol, cfg.atol) / h_a
    if max(d1, d2) <= 1e-15:
        h_b = max(1e-6, h_a * 1e-3)
    else:
        h_b = (0.01 / max(d1, d2)) ** 0.2
    return min(cap, h_b)


def _check_finite(t, *arrays):
    """Raise unless every array is finite.

    t is the start time of the step that produced the arrays, or None for
    the initial state.
    """
    if all(np.all(np.isfinite(a)) for a in arrays):
        return
    if t is None:
        raise ValueError("initial state must be finite")
    raise NonFiniteState(f"state left the finite range after t = {t:.6g}", last_time=t)


class _Recorder:
    """The one accept-and-record path of integrate() and iterate_map().

    start() records the initial state; accept() checks a step's result,
    applies post_step and records it; finish() builds the Trajectory. Every
    recorded state is a copy, with its energy when energy_fn is given.
    """

    def __init__(self, energy_fn, post_step):
        self.energy_fn = energy_fn
        self.post_step = post_step
        self.times = []
        self.states = []
        self.energies = [] if energy_fn else None

    def _record(self, t, x):
        self.times.append(t)
        self.states.append(x.copy())
        if self.energy_fn:
            self.energies.append(self.energy_fn(x))
        return x

    def start(self, x0):
        """Record x0 at t = 0 and return it as the first step's start state."""
        x = np.array(x0, dtype=np.float64)
        _check_finite(None, x)
        return self._record(0.0, x)

    def accept(self, t_start, t, x):
        """Record x, reached at t by a step from t_start; return the next start state."""
        _check_finite(t_start, x)
        if self.post_step is not None:
            x = np.array(self.post_step(x), dtype=np.float64)
        return self._record(t, x)

    def finish(self, **meta):
        energies = np.array(self.energies) if self.energies is not None else None
        return Trajectory(times=np.array(self.times), states=self.states, energies=energies,
                          meta=meta)


def integrate(rhs, x0, cfg, energy_fn=None, post_step=None):
    """Advance x' = rhs(x) from t = 0 to cfg.t_end.

    Fixed-step schemes record every step; dopri5 records accepted steps and
    always lands exactly on t_end. energy_fn, when given, is evaluated on
    every recorded state. post_step, when given, maps each recorded state to
    a replacement (used for semi-supervised clamping); it invalidates FSAL
    reuse for the step that follows.

    Raises StepLimitExceeded when the step budget runs out and
    NonFiniteState when the state blows up; the message carries the last
    finite time.
    """
    rec = _Recorder(energy_fn, post_step)
    x = rec.start(x0)
    t = 0.0
    if cfg.scheme in ("euler", "rk4"):
        step = euler_step if cfg.scheme == "euler" else rk4_step
        # Counted in floats: a huge t_end / h must meet max_steps, not int().
        n_full = float(np.floor(cfg.t_end / cfg.h + 1e-12))
        remainder = cfg.t_end - n_full * cfg.h
        if remainder < 1e-12 * cfg.t_end:
            remainder = 0.0
        n_total = n_full + (1 if remainder else 0)
        if n_total > cfg.max_steps:
            raise StepLimitExceeded(f"{n_total:.0f} fixed steps exceed max_steps = {cfg.max_steps}")
        n_full, n_total = int(n_full), int(n_total)
        for k in range(n_total):
            h = cfg.h if k < n_full else remainder
            t_next = cfg.t_end if k == n_total - 1 else t + h
            x = rec.accept(t, t_next, step(rhs, x, h))
            t = t_next
        return rec.finish()

    h = _initial_step(rhs, x, cfg)
    k1 = None
    attempts = 0
    err_norms = []
    while t < cfg.t_end - 1e-12 * cfg.t_end:
        h = min(h, cfg.t_end - t)
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepLimitExceeded(
                f"dopri5 exceeded max_steps = {cfg.max_steps} at t = {t:.6g}"
            )
        x_new, err, k_last = dopri5_step(rhs, x, h, k1=k1)
        # Every attempt, a rejected one too, stops the run when it blows up.
        _check_finite(t, x_new, err)
        norm = _error_norm(err, x, cfg.rtol, cfg.atol)
        if norm <= 1.0:
            x = rec.accept(t, t + h, x_new)
            t = t + h
            k1 = k_last if post_step is None else None
            err_norms.append(norm)
            factor = FACTOR_MAX if norm == 0.0 else SAFETY * norm ** -0.2
        else:
            k1 = None
            factor = SAFETY * norm ** -0.2
        h = h * min(FACTOR_MAX, max(FACTOR_MIN, factor))
    return rec.finish(error_norms=np.array(err_norms))


def iterate_map(step_fn, x0, n_steps, energy_fn=None, post_step=None):
    """Iterate a discrete-time map, recording every step as time 0, 1, ...

    The same recording conventions as integrate() apply.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    rec = _Recorder(energy_fn, post_step)
    x = rec.start(x0)
    for k in range(int(n_steps)):
        x = rec.accept(float(k), float(k + 1), np.asarray(step_fn(x), dtype=np.float64))
    return rec.finish()
