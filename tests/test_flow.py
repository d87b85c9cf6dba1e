from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from inclusafe import (
    FalsifyBudget,
    Hint,
    InfeasibleSelectionError,
    PerturbedSystem,
    SetValuedMap,
    affine_piece,
    b_ascent,
    constant_piece,
    constant_policy,
    contains,
    custom_policy,
    expression_policy,
    falsify,
    integrate,
    random_extreme,
    reach_interval_1d,
    scenarios,
)
from inclusafe.flow import _lockstep


def _linear_map():
    return SetValuedMap(1, [affine_piece(lambda x: True, [[-1.0]], [0.0])])


def _pm1_map():
    return SetValuedMap(1, [constant_piece(lambda x: True, [[-1.0], [1.0]])])


# ----------------------------------------------------------------------- #
# integration
def test_euler_states_bitwise_exact():
    traj = integrate(_linear_map(), [1.0], horizon=0.5, step=0.01,
                     policy=expression_policy(["-x1"], 1))
    ref = oracles.euler_states(lambda x: -x, 1.0, 0.5, 0.01)
    assert traj.states.shape == (51, 1)
    assert all(float(s[0]) == r for s, r in zip(traj.states, ref))
    assert np.array_equal(traj.times, 0.01 * np.arange(51))


def test_linear_decay_approaches_exponential():
    traj = integrate(_linear_map(), [1.0], horizon=1.0, step=1e-3,
                     policy=b_ascent_dummy())
    assert traj.final[0] == pytest.approx(math.exp(-1.0), abs=2e-3)
    assert len(traj) == 1001


def b_ascent_dummy():
    # the image is a singleton, so any extreme-point policy selects -x
    return custom_policy(lambda x, image, rng: image.extreme_point(np.ones(1)),
                         name="singleton")


def test_backward_integration_reverses_flow():
    fwd = integrate(_linear_map(), [1.0], horizon=0.5, step=1e-3,
                    policy=b_ascent_dummy())
    back = integrate(_linear_map(), [fwd.final[0]], horizon=0.5, step=1e-3,
                     policy=b_ascent_dummy(), backward=True)
    # Euler forward then Euler on the reversed field roughly undoes the decay
    assert back.final[0] == pytest.approx(1.0, abs=2e-3)


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate(_linear_map(), [1.0], horizon=0.0, step=1e-3, policy=b_ascent_dummy())
    with pytest.raises(ValueError):
        integrate(_linear_map(), [1.0], horizon=1.0, step=-1e-3, policy=b_ascent_dummy())
    with pytest.raises(ValueError):
        integrate(_linear_map(), [1.0], horizon=1.0, step=1e-3,
                  policy=b_ascent_dummy(), on_infeasible="skip")


def test_box_exit_recorded_with_offending_state():
    traj = integrate(_pm1_map(), [0.9], horizon=10.0, step=0.1,
                     policy=constant_policy([1.0]), box=[[-1.0, 1.0]])
    assert traj.exited_box
    assert traj.final[0] > 1.0
    assert len(traj) == 3  # 0.9 -> 1.0 -> 1.1 and stop


def test_infeasible_selection_raise_and_truncate():
    pol = constant_policy([5.0])  # never inside {-x} at x=1
    with pytest.raises(InfeasibleSelectionError):
        integrate(_linear_map(), [1.0], horizon=1.0, step=0.1, policy=pol)
    traj = integrate(_linear_map(), [1.0], horizon=1.0, step=0.1, policy=pol,
                     on_infeasible="truncate")
    assert traj.truncated
    assert len(traj) == 1  # stops before appending the bad step


def test_unverified_policy_skips_feasibility():
    pol = custom_policy(lambda x, image, rng: np.array([5.0]), name="free")
    traj = integrate(_linear_map(), [0.0], horizon=0.3, step=0.1, policy=pol)
    assert not traj.truncated
    assert traj.final[0] == pytest.approx(1.5)


def test_trajectory_helpers():
    traj = integrate(_linear_map(), [1.0], horizon=0.2, step=0.1,
                     policy=b_ascent_dummy())
    assert max(-x[0] for x in traj.states) == pytest.approx(-traj.final[0])
    assert traj.policy == "singleton"


def test_interface_chatter_stays_within_steps(example1):
    sc = example1.scenario
    traj = integrate(sc.dynamics, [0.0], horizon=0.2, step=1e-3,
                     policy=b_ascent(sc.barrier), barrier=sc.barrier)
    # ascent overshoots to 2h, the right branch pulls back: bounded chatter
    assert np.abs(traj.states[:, 0]).max() <= 3e-3


# ----------------------------------------------------------------------- #
# falsification
@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_falsify_rejects_eps_outside_zero_to_infinity(linear_stable, eps):
    with pytest.raises(ValueError, match="positive and finite"):
        falsify(linear_stable.scenario, eps=eps, budget=FalsifyBudget(starts=1, horizon=0.01))


def test_falsify_example1_strong_uses_interface_hint(example1):
    res = falsify(example1.scenario, eps=0.1,
                  budget=FalsifyBudget(starts=4, horizon=1.0),
                  hints=example1.hints(0.1))
    assert res.found
    assert res.notes == "interface-escape"
    assert res.policy == "constant(1)"
    assert np.array_equal(res.start, [0.0])
    assert res.depth >= 0.09
    assert res.hit_time is not None and res.hit_time <= 0.1 + 10e-3
    d = res.to_dict()
    assert d["found"] is True and d["trajectory"]["truncated"] is True


def test_falsify_example1_image_mode_finds_nothing(example1):
    res = falsify(example1.scenario, eps=1.0,
                  budget=FalsifyBudget(starts=5, horizon=2.0),
                  hints=example1.hints(1.0), mode="image")
    assert not res.found
    # ascent stalls a couple of Euler overshoots past the interface
    assert res.depth <= 3.1e-3
    assert res.threshold == pytest.approx(0.03, abs=1e-12)
    assert res.hit_time is None


@pytest.mark.parametrize("eps", [0.1, 0.25])
def test_falsify_example2_hinted_escape_deeper_than_ten_steps(example2, eps):
    # ten Euler steps of the velocity bound exceed the box's depth of 1 here;
    # the hinted run must still count once it reaches the box face
    res = falsify(example2.scenario, eps=eps,
                  budget=FalsifyBudget(starts=1, horizon=5.0),
                  hints=example2.hints(eps))
    assert res.found
    assert res.threshold == 1.0
    assert res.depth >= 1.0
    assert np.array_equal(res.start, [1.0 / np.sqrt(eps), 0.0])


def test_falsify_deterministic(example1):
    kw = dict(budget=FalsifyBudget(starts=4, horizon=0.5, seed=3), mode="image")
    a = falsify(example1.scenario, eps=0.5, **kw)
    b = falsify(example1.scenario, eps=0.5, **kw)
    assert a.depth == b.depth
    assert a.tried == b.tried
    assert np.array_equal(a.start, b.start)


def test_falsify_uses_own_dynamics_without_eps(noisy_loop):
    res = falsify(noisy_loop.scenario, budget=FalsifyBudget(starts=3, horizon=0.5))
    assert not res.found
    assert res.eps is None


def test_falsify_validates_eps(example1):
    with pytest.raises(ValueError):
        falsify(example1.scenario, eps=0.0)
    with pytest.raises(ValueError):
        falsify(example1.scenario, eps=-0.5)


def test_falsify_budget_defaults():
    b = FalsifyBudget()
    assert (b.starts, b.horizon, b.step, b.seed) == (200, 5.0, None, 0)
    h = Hint(np.array([0.0]))
    assert h.policy is None and h.label == ""


def test_policy_names():
    assert constant_policy([1.0]).name == "constant(1)"
    assert constant_policy([0.5, -2.0]).name == "constant(0.5, -2)"
    assert random_extreme().name == "random-extreme"


# ----------------------------------------------------------------------- #
# reach tubes
def test_reach_tube_linear_contracts_to_origin():
    tube = reach_interval_1d(_linear_map(), [-2.0, -2.0], horizon=30.0, step=0.1)
    assert tube.shape == (301, 2)
    assert tube[0].tolist() == [-2.0, -2.0]
    assert tube[-1][0] == -2.0          # the tube never forgets where it was
    assert -1e-10 < tube[-1][1] <= 0.0  # decay never crosses the origin


def test_reach_tube_pm1_exact_cone():
    tube = reach_interval_1d(_pm1_map(), [0.0, 0.0], horizon=1.0, step=0.25)
    assert np.array_equal(tube[-1], [-1.0, 1.0])
    widths = tube[:, 1] - tube[:, 0]
    assert np.all(np.diff(widths) == 0.5)  # grows h on each side per step


def test_reach_tube_contains_sampled_solutions(example1, rng):
    # the tube maxes velocities over finitely many sample points, so a true
    # solution can outrun it by at most one Euler step of the velocity bound
    sc = example1.scenario
    h = 0.01
    vbound = 2.0
    tube = reach_interval_1d(sc.dynamics, [-0.5, -0.25], horizon=1.0, step=h)
    for seed in range(5):
        x0 = float(rng.uniform(-0.5, -0.25))
        traj = integrate(sc.dynamics, [x0], horizon=1.0, step=h,
                         policy=random_extreme(), seed=seed)
        for k, x in enumerate(traj.states):
            lo, hi = tube[k]
            assert lo - h * vbound <= x[0] <= hi + h * vbound


def test_reach_tube_validation():
    with pytest.raises(ValueError):
        reach_interval_1d(_pm1_map(), [1.0, 0.0], horizon=1.0, step=0.1)
    with pytest.raises(ValueError):
        reach_interval_1d(_pm1_map(), [0.0, 1.0], horizon=1.0, step=0.1, samples=1)


# ----------------------------------------------------------------------- #
# lockstep trials
@pytest.mark.parametrize("name, eps", [("example1", 0.1), ("example2", 0.04)])
def test_trial_alone_matches_its_states_inside_a_400_trial_batch(name, eps):
    bundle = scenarios.build(name)
    sc = bundle.scenario
    system = PerturbedSystem(sc.dynamics, eps, "strong")
    pool = sc.initial_samples()
    picks = pool[np.random.default_rng(3).integers(pool.shape[0], size=199)]
    hint = bundle.hints(eps)[0]
    x0 = np.vstack([hint.x0, np.repeat(picks, 2, axis=0)])
    policies = [hint.policy] + [b_ascent(sc.barrier), random_extreme()] * 199
    streams = np.random.SeedSequence(11).spawn(len(policies))
    step = 1e-3
    run = _lockstep(system, x0, policies, [np.random.default_rng(s) for s in streams],
                    nsteps=20, step=step, box=sc.box, on_infeasible="truncate")
    for i in (0, 1, 2, 57, 200, 397, 398):
        alone = integrate(system, x0[i], horizon=20 * step, step=step, policy=policies[i],
                          box=sc.box, on_infeasible="truncate",
                          rng=np.random.default_rng(streams[i]))
        inside = run.trajectory(i, step, policies[i].name)
        assert alone.states.shape == inside.states.shape
        assert alone.states.tobytes() == inside.states.tobytes()
        assert (alone.exited_box, alone.truncated) == (inside.exited_box, inside.truncated)


def _euler_by_hand(system, x0, kind, rng, barrier, nsteps, step, box, velocity=None):
    """One trial one step at a time: the per-point image, its extreme point
    in the policy's direction (b-ascent: the gradient, or a normal draw
    where it vanishes; random-extreme: one normal draw per step,
    normalised), or a constant velocity checked against the image."""
    x = np.asarray(x0, dtype=float)
    n = x.shape[0]
    states, exited, truncated = [x], False, False
    for _ in range(nsteps):
        image = system.image(x)
        if kind == "constant":
            if not contains(image, velocity, 1e-9):
                truncated = True
                break
            v = velocity
        else:
            if kind == "b-ascent":
                d = barrier.gradient_at(x)
                if np.linalg.norm(d) < 1e-12:
                    d = rng.standard_normal(n)
            else:
                d = rng.standard_normal(n)
                norm = np.linalg.norm(d)
                d = d / norm if norm >= 1e-12 else np.eye(n)[0]
            v = image.extreme_point(d)
        x = x + step * v
        states.append(x)
        if box is not None and (np.any(x < box[:, 0]) or np.any(x > box[:, 1])):
            exited = True
            break
    return np.array(states), exited, truncated


@pytest.mark.parametrize("name", scenarios.BUILTIN)
@pytest.mark.parametrize("mode", ["none", "image", "strong"])
def test_lockstep_equals_an_euler_loop_by_hand_byte_for_byte(name, mode):
    sc = scenarios.build(name).scenario
    base = sc.dynamics.base if isinstance(sc.dynamics, PerturbedSystem) else sc.dynamics
    system = sc.dynamics if mode == "none" else PerturbedSystem(base, 0.1, mode)
    n, nsteps, step = sc.dimension, 150, 1e-3  # 150 steps: blocks of 64, 64 and 22 draws
    pool = sc.initial_samples()
    xa, xb = pool[len(pool) // 3], pool[2 * len(pool) // 3]
    # (start, kind, policy); the constant velocity lies outside every image
    trials = [(xa, "b-ascent", b_ascent(sc.barrier)), (xa, "random", random_extreme()),
              (xb, "b-ascent", b_ascent(sc.barrier)), (xb, "random", random_extreme()),
              (xb, "random", random_extreme()), (xa, "constant", constant_policy([100.0] * n))]
    # a box edge that the first trial crosses after step 64: halfway to the
    # first new extreme of a coordinate of its free run
    free, _, _ = _euler_by_hand(system, xa, "b-ascent", np.random.default_rng(0), sc.barrier,
                                nsteps, step, None)
    box = sc.box.copy()
    k, j = next((k, j) for k in range(65, nsteps + 1) for j in range(n)
                if not free[:k, j].min() <= free[k, j] <= free[:k, j].max())
    side = int(free[k, j] > free[:k, j].max())
    box[j, side] = 0.5 * (free[k, j] + (free[:k, j].max() if side else free[:k, j].min()))
    run = _lockstep(system, np.array([x0 for x0, _, _ in trials]), [p for _, _, p in trials],
                    [np.random.default_rng(i) for i in range(len(trials))],
                    nsteps=nsteps, step=step, box=box, on_infeasible="truncate")
    assert run.exited.any() and run.truncated.any() and run.lengths.max() > 65
    for i, (x0, kind, policy) in enumerate(trials):
        states, exited, truncated = _euler_by_hand(
            system, x0, kind, np.random.default_rng(i), sc.barrier, nsteps, step, box,
            np.array([100.0] * n))
        got = run.trajectory(i, step, policy.name)
        assert got.states.tobytes() == states.tobytes()
        assert (got.exited_box, got.truncated) == (exited, truncated)


def test_integrate_to_the_horizon_leaves_the_callers_generator_as_per_step_draws(linear_stable):
    system = PerturbedSystem(linear_stable.scenario.dynamics, 0.1, "strong")
    for nsteps in (64, 150):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        traj = integrate(system, [0.25], horizon=nsteps * 1e-3, step=1e-3, policy=random_extreme(), rng=rng)
        assert len(traj) == nsteps + 1
        for _ in range(nsteps):
            ref.standard_normal(1)
        assert rng.bit_generator.state == ref.bit_generator.state


def _drift_right_scenario():
    cfg = scenarios.builtin_config("linear-stable")
    cfg["box"] = [[-2.0, 3.0]]
    cfg["dynamics"] = {"pieces": [
        {"when": "True", "image": {"kind": "constant", "points": [[1.0]]}}]}
    return scenarios.bundle_from_config(cfg).scenario


def test_lower_index_hitter_wins_although_a_higher_one_crosses_first():
    sc = _drift_right_scenario()
    late = Hint(np.array([0.0]), constant_policy([1.0]), "late")
    early = Hint(np.array([0.9]), constant_policy([1.0]), "early")
    budget = FalsifyBudget(starts=2, horizon=2.0, step=0.01)
    res = falsify(sc, budget=budget, hints=[late, early])
    assert res.found and res.threshold == pytest.approx(0.1)
    assert res.notes == "late" and np.array_equal(res.start, [0.0])
    assert res.tried == 1
    assert res.hit_time == pytest.approx(1.1, abs=0.011)
    # the outcome is the one the winning trial has on its own
    alone = falsify(sc, budget=FalsifyBudget(starts=1, horizon=2.0, step=0.01), hints=[late])
    assert (alone.depth, alone.hit_time, alone.tried) == (res.depth, res.hit_time, res.tried)
    assert alone.trajectory.states.tobytes() == res.trajectory.states.tobytes()
    # in the other order the early crosser is the lowest hitter
    swapped = falsify(sc, budget=budget, hints=[early, late])
    assert swapped.notes == "early" and swapped.tried == 1
    assert swapped.hit_time == pytest.approx(0.2, abs=0.011)


def test_watch_observe_equals_a_per_row_loop():
    from inclusafe.flow import _Watch

    def unsafe(S):
        return S[:, 0] > 0.0

    def depth(S):
        return S[:, 0] + S[:, 1]

    N, threshold = 8, 1.0
    rng = np.random.default_rng(31)
    watch = _Watch(unsafe, depth, threshold, N)
    want_depth, want_hit, want_winner = [-math.inf] * N, [-1] * N, N
    for k, kind in enumerate(["none", "some", "all", "some", "all", "none", "all"] * 3):
        trials = np.sort(rng.choice(N, int(rng.integers(1, N + 1)), replace=False))
        S = rng.uniform(-1.0, 1.0, (trials.size, 2))
        if kind != "some":
            S[:, 0] = np.abs(S[:, 0]) + 1e-3
            S[:, 0] *= 1.0 if kind == "all" else -1.0
        watch.observe(k, trials, S)
        for t, s in zip(trials.tolist(), S):
            if s[0] > 0.0:
                d = s[0] + s[1]
                want_depth[t] = max(want_depth[t], d)
                if d >= threshold and want_hit[t] < 0:
                    want_hit[t] = k
                    want_winner = min(want_winner, t)
        assert watch.depth.tolist() == want_depth
        assert watch.hit.tolist() == want_hit
        assert watch.winner == want_winner
    assert want_winner < N and -1 in want_hit  # some trials hit, not all


def test_hint_outside_the_box_is_counted_but_not_integrated(example2):
    eps = 0.005  # the hint (1/sqrt(eps), 0) lies at x1 ~ 14.1, outside |x1| <= 10
    res = falsify(example2.scenario, eps=eps,
                  budget=FalsifyBudget(starts=3, horizon=0.1),
                  hints=example2.hints(eps))
    assert not res.found
    assert res.tried == 1 + 2 * 2
    assert res.policy != "sensing-offset"
    assert "'cone-escape'" in res.notes and "outside the domain box" in res.notes
    inside = falsify(example2.scenario, eps=0.04,
                     budget=FalsifyBudget(starts=1, horizon=0.5),
                     hints=example2.hints(0.04))
    assert inside.found and inside.notes == "cone-escape"
