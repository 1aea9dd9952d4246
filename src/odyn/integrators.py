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

from ._state import config_fields, integer
from .errors import NonFiniteState, StepLimitExceeded, TooLarge

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

# Dormand-Prince 5(4) tableau, without stage times: the rhs is autonomous. A's last row holds
# the fifth-order weights (FSAL), E the difference against the embedded fourth-order solution.
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
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
        object.__setattr__(self, "max_steps", integer(self.max_steps, "max_steps"))

    @classmethod
    def from_json(cls, obj):
        """The config from a flat JSON object; each absent key keeps its field's default."""
        return cls(**config_fields(cls, obj))


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

    Returns (x_new, err_vec, k_last). The tableau's last row holds the
    fifth-order weights, so x_new is the last stage's input and k_last =
    f(x_new) can be k1 of the next step (FSAL); passing k1 skips the first
    stage. f must not modify its argument, as x_new is passed to it.
    """
    k = [k1 if k1 is not None else f(x)]
    for row in DP_A[1:]:
        xi = x + h * sum(a * ki for a, ki in zip(row, k) if a != 0.0)
        k.append(f(xi))
    err = h * sum(e * ki for e, ki in zip(DP_E, k) if e != 0.0)
    return xi, err, k[6]


def _error_norm(err, x, rtol, atol):
    scale = atol + rtol * np.abs(x)
    return float(np.max(np.abs(err) / scale)) if err.size else 0.0


def _initial_step(f, x0, cfg):
    """(curvature-based starting step capped at t_end / 100, f(x0))."""
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
    return min(cap, h_b), f0


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


# Bytes of states one run may record (1 GiB), checked like graphs._PAIR_LIMIT.
_RECORD_LIMIT = 2**30


class _Recorder:
    """The one accept-and-record path of integrate() and iterate_map().

    start() records the initial state; accept() checks a step's result,
    applies post_step and records it; finish() builds the Trajectory. Every
    recorded state is a copy, with its energy when energy_fn is given, and
    no state is recorded past _RECORD_LIMIT bytes.
    """

    def __init__(self, energy_fn, post_step):
        self.energy_fn = energy_fn
        self.post_step = post_step
        self.times = []
        self.states = []
        self.energies = [] if energy_fn else None

    def guard(self, count, x):
        """TooLarge unless count recorded states shaped like x fit in _RECORD_LIMIT bytes."""
        if count * x.nbytes > _RECORD_LIMIT:
            raise TooLarge(f"trajectory of {count:.0f} states of shape {x.shape} exceeds the "
                           f"recorded-state limit of {_RECORD_LIMIT} bytes")

    def _record(self, t, x):
        self.guard(len(self.states) + 1, x)
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


def _fixed_steps(rec, x, step, h, t_end, max_steps):
    """Record step(x, h) from t = 0 on, the last step shortened to land exactly on t_end."""
    # Counted in floats: a huge t_end / h must meet max_steps, not int().
    n_full = float(np.floor(t_end / h + 1e-12))
    remainder = t_end - n_full * h
    n_total = n_full + (remainder > 0.0 and remainder >= 1e-12 * t_end)
    if n_total > max_steps:
        raise StepLimitExceeded(f"{n_total:.0f} fixed steps exceed max_steps = {max_steps}")
    rec.guard(n_total + 1, x)
    t = 0.0
    for k in range(int(n_total)):
        t_next = t_end if k == n_total - 1 else t + h
        x, t = rec.accept(t, t_next, step(x, h if k < n_full else remainder)), t_next
    return rec.finish()


def integrate(rhs, x0, cfg, energy_fn=None, post_step=None):
    """Advance x' = rhs(x) from t = 0 to cfg.t_end.

    Fixed-step schemes record every step. dopri5 records accepted steps, the
    last exactly at t_end; it calls rhs twice for its first step size (the
    first call is also the first stage) and 6 times per attempt (FSAL).
    energy_fn, when given, is evaluated on every recorded state. post_step,
    when given, maps each recorded state to a replacement (semi-supervised
    clamping); the next attempt then calls rhs once more.

    Raises StepLimitExceeded when the step budget runs out, TooLarge when
    the recorded states would pass _RECORD_LIMIT bytes (fixed steps check
    before the first step) and NonFiniteState when the state blows up; the
    message carries the last finite time.
    """
    rec = _Recorder(energy_fn, post_step)
    x = rec.start(x0)
    t = 0.0
    if cfg.scheme in ("euler", "rk4"):
        step = euler_step if cfg.scheme == "euler" else rk4_step
        return _fixed_steps(rec, x, lambda x, h: step(rhs, x, h), cfg.h, cfg.t_end, cfg.max_steps)

    h, k1 = _initial_step(rhs, x, cfg)
    t_stop = cfg.t_end - 1e-12 * cfg.t_end
    attempts = 0
    err_norms = []
    while t < t_stop:
        h = min(h, cfg.t_end - t)
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepLimitExceeded(
                f"dopri5 exceeded max_steps = {cfg.max_steps} at t = {t:.6g}"
            )
        # A rejected attempt keeps k1, as x has not moved; a post_step moved it.
        k1 = rhs(x) if k1 is None else k1
        x_new, err, k_last = dopri5_step(rhs, x, h, k1=k1)
        # Every attempt, a rejected one too, stops the run when it blows up.
        _check_finite(t, x_new, err)
        norm = _error_norm(err, x, cfg.rtol, cfg.atol)
        if norm <= 1.0:
            t_next = t + h if t + h < t_stop else cfg.t_end  # the last step lands on t_end
            x, t = rec.accept(t, t_next, x_new), t_next
            k1 = k_last if post_step is None else None
            err_norms.append(norm)
        factor = FACTOR_MAX if norm == 0.0 else SAFETY * norm ** -0.2
        h = h * min(FACTOR_MAX, max(FACTOR_MIN, factor))
    return rec.finish(error_norms=np.array(err_norms))


def iterate_map(step_fn, x0, n_steps, energy_fn=None, post_step=None):
    """Iterate a discrete-time map, recording every step as time 0, 1, ...

    integrate()'s fixed-step loop at h = 1 up to int(n_steps), with no step budget.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    rec = _Recorder(energy_fn, post_step)
    return _fixed_steps(rec, rec.start(x0), lambda x, h: np.asarray(step_fn(x), dtype=np.float64),
                        1.0, float(int(n_steps)), math.inf)
