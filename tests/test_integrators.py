"""Time steppers: fixed-step schemes, the adaptive embedded pair, maps.

Convergence orders are measured against x' = -x whose flow is known in
closed form, so every expected value below is independent arithmetic.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn import (
    IntegratorConfig,
    NonFiniteState,
    StepLimitExceeded,
    TooLarge,
    dopri5_step,
    euler_step,
    integrate,
    iterate_map,
    rk4_step,
)
from odyn import integrators
from odyn.integrators import FACTOR_MAX, FACTOR_MIN, SAFETY, _error_norm


def decay(x):
    return -x


def fitted_order(scheme, hs):
    """Least-squares slope of log global error vs log h for x' = -x."""
    errs = []
    for h in hs:
        cfg = IntegratorConfig(scheme=scheme, h=h, t_end=1.0)
        traj = integrate(decay, np.array([1.0]), cfg)
        errs.append(abs(traj.final_state[0] - np.exp(-1.0)))
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return slope


# ----------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(scheme="leapfrog")
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, -1, "10", None])
def test_config_refuses_max_steps_that_is_not_an_integer_of_one_or_more(value):
    with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
        IntegratorConfig(max_steps=value)


def test_config_refuses_a_numpy_boolean_max_steps():
    # np.True_ == 1, but a boolean is not a count.
    with pytest.raises(ValueError, match="max_steps must be an integer >= 1"):
        IntegratorConfig(max_steps=np.True_)
    assert IntegratorConfig(max_steps=np.int64(3)).max_steps == 3


def test_config_takes_an_integral_float_max_steps_as_int():
    assert IntegratorConfig(max_steps=1e5).max_steps == 100_000
    assert type(IntegratorConfig.from_json({"max_steps": 7.0}).max_steps) is int


@pytest.mark.parametrize("name", ["h", "rtol", "atol", "t_end"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_refuses_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        IntegratorConfig(**{name: value})


def test_config_json_round_trip():
    cfg = IntegratorConfig(scheme="rk4", h=0.05, rtol=1e-7, atol=1e-9, t_end=3.0,
                           max_steps=500)
    blob = {"scheme": "rk4", "h": 0.05, "rtol": 1e-7, "atol": 1e-9, "t_end": 3.0,
            "max_steps": 500}
    assert IntegratorConfig.from_json(blob) == cfg
    assert IntegratorConfig.from_json({}) == IntegratorConfig()


# ------------------------------------------------------------ fixed steps


def test_zero_rhs_keeps_state_constant():
    x0 = np.array([1.0, -2.0, 3.5])
    for scheme in ("euler", "rk4", "dopri5"):
        cfg = IntegratorConfig(scheme=scheme, h=0.3, t_end=1.0)
        traj = integrate(lambda x: np.zeros_like(x), x0, cfg)
        assert np.array_equal(traj.final_state, x0)
        assert traj.times[-1] == 1.0


def test_fixed_step_time_grid_exact():
    cfg = IntegratorConfig(scheme="euler", h=0.25, t_end=1.0)
    traj = integrate(decay, np.array([1.0]), cfg)
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_fixed_step_remainder_lands_on_t_end():
    cfg = IntegratorConfig(scheme="rk4", h=0.4, t_end=1.0)
    traj = integrate(decay, np.array([1.0]), cfg)
    assert traj.times.tolist() == pytest.approx([0.0, 0.4, 0.8, 1.0], abs=1e-15)
    assert traj.times[-1] == 1.0


def test_euler_single_step_value():
    # forward Euler on x' = -x: one step of h = 0.5 gives exactly 0.5
    assert euler_step(decay, np.array([1.0]), 0.5)[0] == 0.5


def test_rk4_single_step_matches_taylor():
    # RK4 on x' = -x reproduces the degree-4 Taylor polynomial of e^{-h}
    h = 0.3
    expected = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
    assert rk4_step(decay, np.array([1.0]), h)[0] == pytest.approx(expected, abs=1e-15)


def test_euler_order_one():
    assert fitted_order("euler", [0.2, 0.1, 0.05, 0.025]) == pytest.approx(1.0, abs=0.3)


def test_rk4_order_four():
    assert fitted_order("rk4", [0.2, 0.1, 0.05, 0.025]) == pytest.approx(4.0, abs=0.3)


def test_rk4_halving_cuts_error_sixteen_fold():
    errs = []
    for h in (0.1, 0.05):
        traj = integrate(decay, np.array([1.0]), IntegratorConfig(scheme="rk4", h=h))
        errs.append(abs(traj.final_state[0] - np.exp(-1.0)))
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_step_limit_enforced_upfront_for_fixed_steps():
    cfg = IntegratorConfig(scheme="euler", h=1e-4, t_end=100.0, max_steps=10)
    with pytest.raises(StepLimitExceeded):
        integrate(decay, np.array([1.0]), cfg)


def test_fixed_step_count_beyond_any_integer_meets_the_step_limit():
    # t_end / h overflows to inf; the count is refused before int() sees it.
    cfg = IntegratorConfig(scheme="rk4", h=1e-10, t_end=1e300)
    with pytest.raises(StepLimitExceeded, match="inf fixed steps exceed max_steps = 100000"):
        integrate(decay, np.array([1.0]), cfg)


# --------------------------------------------------------------- dopri5


def test_dopri5_endpoint_accuracy():
    cfg = IntegratorConfig(scheme="dopri5", rtol=1e-6, atol=1e-9, t_end=1.0)
    traj = integrate(decay, np.array([1.0]), cfg)
    assert abs(traj.final_state[0] - np.exp(-1.0)) < 1e-5
    assert traj.times[-1] == 1.0


def test_dopri5_error_norms_of_accepted_steps_at_most_one():
    cfg = IntegratorConfig(scheme="dopri5", rtol=1e-8, atol=1e-10, t_end=5.0)

    def oscillator(x):
        return np.array([x[1], -x[0]])

    traj = integrate(oscillator, np.array([1.0, 0.0]), cfg)
    norms = np.asarray(traj.meta["error_norms"])
    assert norms.size == traj.times.size - 1
    assert (norms <= 1.0).all()
    assert np.allclose(traj.final_state, [np.cos(5.0), -np.sin(5.0)], atol=1e-6)


def test_dopri5_first_step_respects_horizon_cap():
    cfg = IntegratorConfig(scheme="dopri5", t_end=2.0)
    traj = integrate(decay, np.array([1.0]), cfg)
    assert traj.times[1] <= 2.0 / 100 + 1e-12


def test_dopri5_fsal_reuses_last_stage():
    calls = [0]

    def counted(x):
        calls[0] += 1
        return -x

    cfg = IntegratorConfig(scheme="dopri5", rtol=1e-6, atol=1e-9, t_end=1.0)
    traj = integrate(counted, np.array([1.0]), cfg)
    accepted = traj.times.size - 1
    # initial-step probe plus 7 stages for the first attempt, then 6 for
    # every later attempt; with no rejections that is 6 per accepted step.
    assert calls[0] <= 6 * accepted + 12


def counted_dopri5_run(monkeypatch, rhs, x0, cfg, post_step=None):
    """(rhs calls, dopri5 attempts, accepted steps) of one integrate() run."""
    calls, attempts = [0], [0]

    def counted(x):
        calls[0] += 1
        return rhs(x)

    def step(*args, **kwargs):
        attempts[0] += 1
        return dopri5_step(*args, **kwargs)

    monkeypatch.setattr(integrators, "dopri5_step", step)
    traj = integrate(counted, x0, cfg, post_step=post_step)
    return calls[0], attempts[0], len(traj) - 1


def oscillator(x):
    return np.array([x[1], -x[0]])


@pytest.mark.parametrize("rhs, x0, cfg, rejects", [
    (decay, np.ones(3), IntegratorConfig(rtol=1e-6, atol=1e-9), False),
    (oscillator, np.array([1.0, 0.0]), IntegratorConfig(rtol=1e-10, atol=1e-12, t_end=10.0), True),
], ids=["no-rejection", "rejections"])
@pytest.mark.parametrize("post_step", [None, np.copy], ids=["plain", "post_step"])
def test_dopri5_calls_rhs_twice_to_start_and_six_times_an_attempt(monkeypatch, rhs, x0, cfg,
                                                                    rejects, post_step):
    # The first step-size probe is the first attempt's k1, a rejected attempt keeps its
    # k1, and after a post_step the next attempt evaluates k1 once.
    calls, attempts, accepted = counted_dopri5_run(monkeypatch, rhs, x0, cfg, post_step)
    assert (attempts > accepted) == rejects
    assert calls == 2 + 6 * attempts + (accepted - 1 if post_step else 0)


def test_dopri5_step_returns_the_last_stage_input_as_the_fifth_order_solution():
    rng = np.random.default_rng(21)
    x, h = rng.standard_normal((5, 3)), 0.37
    stages = [rng.standard_normal((5, 3)) for _ in range(7)]
    seen = []

    def f(xi):
        seen.append(xi)
        return stages[len(seen) - 1]

    x_new, _, k_last = dopri5_step(f, x, h)
    b = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
    assert_bits_equal(x_new, x + h * sum(w * k for w, k in zip(b, stages) if w != 0.0))
    assert x_new is seen[6] and k_last is stages[6]  # the seventh stage ran on x_new itself


def test_dopri5_lands_exactly_on_t_end():
    # t + h of the last step is one ulp below this t_end.
    t_end = 1.5884969521709615
    cfg = IntegratorConfig(rtol=1e-3, atol=1e-3, t_end=t_end)
    assert integrate(lambda x: -0.01 * x, np.ones(3), cfg).times[-1] == t_end


def test_dopri5_step_function_error_estimate():
    x = np.array([1.0])
    x5, err, k7 = dopri5_step(decay, x, 0.1)
    assert x5[0] == pytest.approx(np.exp(-0.1), abs=1e-9)
    assert abs(err[0]) < 1e-8
    assert k7[0] == pytest.approx(-x5[0], abs=1e-12)  # last stage at the new point


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_dopri5_runs_an_empty_state(shape):
    # Like euler and rk4: the scaled max norm of an empty array is 0.
    traj = integrate(decay, np.zeros(shape), IntegratorConfig())
    assert traj.times[-1] == 1.0
    assert all(state.shape == shape for state in traj.states)
    assert traj.meta["error_norms"].tolist() == [0.0] * (len(traj) - 1)


def test_dopri5_step_budget():
    cfg = IntegratorConfig(scheme="dopri5", t_end=1e6, max_steps=5)

    def oscillator(x):
        return np.array([x[1], -x[0]])

    with pytest.raises(StepLimitExceeded):
        integrate(oscillator, np.array([1.0, 0.0]), cfg)


# ------------------------------------------------------------ blowup path


def test_nonfinite_state_reports_last_time():
    # x' = x^2 from x(0) = 1 blows up at t = 1
    cfg = IntegratorConfig(scheme="euler", h=0.01, t_end=2.0)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as exc:
        integrate(lambda x: x * x, np.array([1.0]), cfg)
    assert 0.5 < exc.value.last_time <= 2.0


def test_nonfinite_initial_state_rejected():
    cfg = IntegratorConfig(scheme="euler", h=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        integrate(decay, np.array([np.nan]), cfg)


# ------------------------------------------------------------- recording


def test_energy_recorded_at_every_time():
    cfg = IntegratorConfig(scheme="rk4", h=0.2, t_end=1.0)
    traj = integrate(decay, np.array([2.0]), cfg, energy_fn=lambda x: float(x[0] ** 2))
    assert len(traj.energies) == traj.times.size
    assert traj.energies[0] == 4.0
    assert np.all(np.diff(traj.energies) < 0)


def test_post_step_applied_to_recorded_states():
    cfg = IntegratorConfig(scheme="euler", h=0.5, t_end=1.0)

    def clamp_first(x):
        y = x.copy()
        y[0] = 7.0
        return y

    traj = integrate(decay, np.array([7.0, 1.0]), cfg, post_step=clamp_first)
    for state in traj.states[1:]:
        assert state[0] == 7.0
    assert traj.final_state[1] < 1.0


def test_post_step_with_dopri5_keeps_consistency():
    cfg = IntegratorConfig(scheme="dopri5", rtol=1e-8, atol=1e-10, t_end=1.0)

    def clamp_first(x):
        y = x.copy()
        y[0] = 1.0
        return y

    traj = integrate(decay, np.array([1.0, 1.0]), cfg, post_step=clamp_first)
    assert traj.final_state[0] == 1.0
    # the unclamped coordinate still integrates accurately
    assert traj.final_state[1] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_iterate_map_times_are_step_indices():
    traj = iterate_map(lambda x: 0.5 * x, np.array([8.0]), 3,
                       energy_fn=lambda x: float(x[0]))
    assert traj.times.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert [s[0] for s in traj.states] == [8.0, 4.0, 2.0, 1.0]
    assert list(traj.energies) == [8.0, 4.0, 2.0, 1.0]


def test_iterate_map_post_step():
    traj = iterate_map(lambda x: x + 1.0, np.array([0.0]), 4,
                       post_step=lambda x: np.minimum(x, 2.0))
    assert traj.final_state[0] == 2.0


def test_iterate_map_detects_blowup():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        iterate_map(lambda x: x * 1e200, np.array([1.0]), 5)


@pytest.mark.parametrize("n_steps, times", [(0, [0.0]), (2.5, [0.0, 1.0, 2.0])])
def test_iterate_map_truncates_a_fractional_step_count(n_steps, times):
    traj = iterate_map(lambda x: x + 1.0, np.array([0.0]), n_steps)
    assert traj.times.tolist() == times
    assert [s[0] for s in traj.states] == times


def test_iterate_map_refuses_a_negative_step_count():
    with pytest.raises(ValueError, match="n_steps must be >= 0"):
        iterate_map(lambda x: x, np.array([0.0]), -1)


def test_matrix_states_supported():
    x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    cfg = IntegratorConfig(scheme="rk4", h=0.1, t_end=1.0)
    traj = integrate(decay, x0, cfg)
    assert traj.final_state.shape == (2, 2)
    assert np.allclose(traj.final_state, x0 * np.exp(-1.0), atol=1e-8)


def test_integration_is_deterministic():
    def oscillator(x):
        return np.array([x[1], -x[0]])

    cfg = IntegratorConfig(scheme="dopri5", t_end=3.0)
    a = integrate(oscillator, np.array([1.0, 0.0]), cfg)
    b = integrate(oscillator, np.array([1.0, 0.0]), cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.final_state, b.final_state)


# ---------------------------------------------------- recorded-state budget

TEN_STATES = 10 * 3 * 8  # bytes of ten recorded states of shape (3,)


@pytest.mark.parametrize("run", [
    lambda rhs, t_end: integrate(rhs, np.ones(3), IntegratorConfig("euler", h=0.1, t_end=t_end)),
    lambda rhs, t_end: integrate(rhs, np.ones(3), IntegratorConfig("rk4", h=0.1, t_end=t_end)),
    lambda rhs, t_end: iterate_map(rhs, np.ones(3), round(10 * t_end)),
], ids=["euler", "rk4", "map"])
def test_fixed_steps_refuse_states_over_the_budget_before_the_first_step(monkeypatch, run):
    monkeypatch.setattr(integrators, "_RECORD_LIMIT", TEN_STATES)
    rhs = mock.Mock(side_effect=lambda x: -0.5 * x)
    with pytest.raises(TooLarge) as err:
        run(rhs, 1.0)
    assert str(err.value) == ("trajectory of 11 states of shape (3,) exceeds the "
                              "recorded-state limit of 240 bytes")
    assert rhs.call_count == 0
    assert len(run(rhs, 0.9)) == 10  # ten states fit


def test_dopri5_refuses_states_over_the_budget_as_it_records(monkeypatch):
    cfg = IntegratorConfig("dopri5", t_end=5.0)
    assert len(integrate(decay, np.ones(3), cfg)) > 10
    monkeypatch.setattr(integrators, "_RECORD_LIMIT", TEN_STATES)
    rhs = mock.Mock(side_effect=decay)
    with pytest.raises(TooLarge, match=r"^trajectory of 11 states of shape \(3,\) exceeds"):
        integrate(rhs, np.ones(3), cfg)
    assert rhs.call_count > 0  # it ran until the eleventh state


# ---------------------------------------------------------------- oracles
# The per-loop recording each run used before the shared recorder: every
# loop checked, clamped, copied, scored and packed its states itself. The
# recorder must give the same bits and the same failures.


def oracle_initial_step(f, x0, cfg):
    cap = cfg.t_end / 100.0
    scale = cfg.atol + cfg.rtol * np.abs(x0)
    f0 = f(x0)
    d0 = float(np.max(np.abs(x0) / scale)) if x0.size else 0.0
    d1 = float(np.max(np.abs(f0) / scale)) if x0.size else 0.0
    if d0 < 1e-5 or d1 < 1e-5:
        h_a = 1e-6
    else:
        h_a = 0.01 * d0 / d1
    x1 = x0 + h_a * f0
    f1 = f(x1)
    d2 = float(np.max(np.abs(f1 - f0) / scale)) / h_a
    if max(d1, d2) <= 1e-15:
        h_b = max(1e-6, h_a * 1e-3)
    else:
        h_b = (0.01 / max(d1, d2)) ** 0.2
    return min(cap, h_b)


def oracle_check_finite(x, t):
    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"state left the finite range after t = {t:.6g}", last_time=t)


def oracle_integrate(rhs, x0, cfg, energy_fn=None, post_step=None):
    x = np.array(x0, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    times = [0.0]
    states = [x.copy()]
    energies = [energy_fn(x)] if energy_fn else None
    err_norms = []

    def record(t, x):
        times.append(t)
        states.append(x.copy())
        if energy_fn:
            energies.append(energy_fn(x))

    if cfg.scheme in ("euler", "rk4"):
        step = euler_step if cfg.scheme == "euler" else rk4_step
        n_full = int(np.floor(cfg.t_end / cfg.h + 1e-12))
        remainder = cfg.t_end - n_full * cfg.h
        if remainder < 1e-12 * cfg.t_end:
            remainder = 0.0
        n_total = n_full + (1 if remainder else 0)
        if n_total > cfg.max_steps:
            raise StepLimitExceeded(f"{n_total} fixed steps exceed max_steps = {cfg.max_steps}")
        t = 0.0
        for k in range(n_total):
            h = cfg.h if k < n_full else remainder
            x_new = step(rhs, x, h)
            oracle_check_finite(x_new, t)
            t = cfg.t_end if k == n_total - 1 else t + h
            if post_step is not None:
                x_new = np.array(post_step(x_new), dtype=np.float64)
            x = x_new
            record(t, x)
    else:
        t = 0.0
        h = oracle_initial_step(rhs, x, cfg)
        k1 = None
        attempts = 0
        while t < cfg.t_end - 1e-12 * cfg.t_end:
            h = min(h, cfg.t_end - t)
            attempts += 1
            if attempts > cfg.max_steps:
                raise StepLimitExceeded(
                    f"dopri5 exceeded max_steps = {cfg.max_steps} at t = {t:.6g}"
                )
            x_new, err, k_last = dopri5_step(rhs, x, h, k1=k1)
            if not np.all(np.isfinite(x_new)) or not np.all(np.isfinite(err)):
                raise NonFiniteState(
                    f"state left the finite range after t = {t:.6g}", last_time=t
                )
            norm = _error_norm(err, x, cfg.rtol, cfg.atol)
            if norm <= 1.0:
                t = t + h if t + h < cfg.t_end - 1e-12 * cfg.t_end else cfg.t_end
                if post_step is not None:
                    x_new = np.array(post_step(x_new), dtype=np.float64)
                    k1 = None
                else:
                    k1 = k_last
                x = x_new
                record(t, x)
                err_norms.append(norm)
                factor = FACTOR_MAX if norm == 0.0 else SAFETY * norm ** -0.2
            else:
                k1 = None
                factor = SAFETY * norm ** -0.2
            h = h * min(FACTOR_MAX, max(FACTOR_MIN, factor))

    traj_meta = {"error_norms": np.array(err_norms)} if cfg.scheme == "dopri5" else {}
    return (np.array(times), states,
            np.array(energies) if energies is not None else None, traj_meta)


def oracle_iterate_map(step_fn, x0, n_steps, energy_fn=None, post_step=None):
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    x = np.array(x0, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    times = [0.0]
    states = [x.copy()]
    energies = [energy_fn(x)] if energy_fn else None
    for k in range(int(n_steps)):
        x = np.asarray(step_fn(x), dtype=np.float64)
        oracle_check_finite(x, float(k))
        if post_step is not None:
            x = np.array(post_step(x), dtype=np.float64)
        times.append(float(k + 1))
        states.append(x.copy())
        if energy_fn:
            energies.append(energy_fn(x))
    return (np.array(times), states,
            np.array(energies) if energies is not None else None, {})


def outcome(run):
    """(times, states, energies, meta) of a run, or its exception's signature."""
    try:
        with np.errstate(all="ignore"):
            result = run()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc), getattr(exc, "last_time", None)
    if not isinstance(result, tuple):
        result = (result.times, result.states, result.energies, result.meta)
    return result


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@st.composite
def recorded_runs(draw):
    """A scheme or "map", its grid, a state, an rhs and the recording hooks."""
    scheme = draw(st.sampled_from(["euler", "rk4", "dopri5", "map"]))
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(n,), (n, draw(st.integers(1, 3)))]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, shape)
    blowup = draw(st.sampled_from([None, "square", "explode"]))
    if blowup == "square":
        # x' = x^2 (or the map x -> 3 x^2) leaves the float range in finite time
        rate = draw(st.floats(0.5, 4.0))
        x0 = np.abs(x0) + 0.5
        rhs = (lambda x: rate * x * x) if scheme != "map" else (lambda x: 3.0 * rate * x * x)
    elif blowup == "explode":
        # a growth rate so large that a stage overflows before the step is judged
        rhs = lambda x: 1e150 * x  # noqa: E731
    else:
        a = rng.uniform(-1.0, 1.0, (n, n)) - 2.0 * np.eye(n)
        rhs = (lambda x: a @ x) if scheme != "map" else (lambda x: 0.3 * (a @ x))
    energy_fn = draw(st.sampled_from([None, lambda x: float(np.sum(x * x))]))
    post_step = None
    if draw(st.booleans()):
        anchor = x0[0].copy()

        def post_step(x):
            y = x.copy()
            y[0] = anchor
            return y

    if scheme == "map":
        return scheme, (rhs, x0, draw(st.integers(0, 40)), energy_fn, post_step)
    h = draw(st.floats(0.01, 0.5))
    steps = draw(st.integers(1, 60))
    # On the grid, half a step off it, or anywhere in between.
    frac = draw(st.sampled_from([0.0, 0.5, draw(st.floats(0.0, 1.0))]))
    cfg = IntegratorConfig(scheme=scheme, h=h, t_end=h * (steps + frac),
                           rtol=draw(st.sampled_from([1e-3, 1e-6])),
                           atol=draw(st.sampled_from([1e-6, 1e-9])),
                           max_steps=draw(st.integers(1, 200)))
    return scheme, (rhs, x0, cfg, energy_fn, post_step)


@given(recorded_runs())
@settings(max_examples=300, deadline=None)
def test_recorder_matches_per_loop_oracle(run):
    scheme, args = run
    new, old = (iterate_map, oracle_iterate_map) if scheme == "map" else (integrate, oracle_integrate)
    got, want = outcome(lambda: new(*args)), outcome(lambda: old(*args))
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), got
    times, states, energies, meta = got
    assert_bits_equal(times, want[0])
    assert len(states) == len(want[1])
    for a, b in zip(states, want[1]):
        assert_bits_equal(a, b)
    assert (energies is None) == (want[2] is None)
    if energies is not None:
        assert_bits_equal(energies, want[2])
    assert meta.keys() == want[3].keys()
    for key in meta:
        assert_bits_equal(meta[key], want[3][key])
