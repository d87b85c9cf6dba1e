from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import oracles
from inclusafe import (
    BarrierCandidate,
    FalsifyBudget,
    GradientOracleError,
    Hint,
    InfeasibleSelectionError,
    PerturbedSystem,
    SelectionPolicy,
    SetValuedMap,
    affine_piece,
    b_ascent,
    constant_piece,
    constant_policy,
    contains,
    expressions,
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


@pytest.mark.parametrize("n", [1, 2])
def test_a_hint_velocity_just_outside_its_image_truncates_at_its_first_step(n):
    """A fixed hint velocity 1e-7 beyond the edge x1 = 1 of its image, the
    interval [-1, 1] or the square [-1, 1]^2, stops its trial before the
    first step; 1e-7 inside the edge, the trial runs its whole length."""
    corners = [[-1.0], [1.0]] if n == 1 else [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
    system = SetValuedMap(n, [constant_piece(lambda x: True, corners)])
    for edge, length, truncated in ((1.0 + 1e-7, 1, True), (1.0 - 1e-7, 6, False)):
        hint = Hint(np.zeros(n), constant_policy([edge] + [0.0] * (n - 1)), "edge")
        run = _lockstep(system, hint.x0[None], [hint.policy], [np.random.default_rng(0)], nsteps=5, step=0.1,
                        on_infeasible="truncate")
        assert run.lengths.tolist() == [length] and run.truncated.tolist() == [truncated], edge


def test_unverified_policy_skips_feasibility():
    pol = custom_policy(lambda x, image, rng: np.array([5.0]), name="free")
    traj = integrate(_linear_map(), [0.0], horizon=0.3, step=0.1, policy=pol)
    assert not traj.truncated
    assert traj.final[0] == pytest.approx(1.5)


def test_an_unverified_infinite_velocity_is_never_checked_and_never_warns():
    # a containment check of (inf, inf) would warn on its products
    system = SetValuedMap(2, [constant_piece(lambda x: True, [[1.0, 0.0], [0.0, 1.0]])])
    policy = custom_policy(lambda x, image, rng: np.array([np.inf, np.inf]), name="free")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = _lockstep(system, np.zeros((1, 2)), [policy], [np.random.default_rng(0)], nsteps=3, step=0.1)
    assert caught == []
    assert run.lengths.tolist() == [4] and not run.truncated.any()


def test_a_custom_policy_step_takes_its_images_once():
    """Each step of a custom policy takes the images of its rows once: a
    verified policy's velocities are checked against those images, and an
    unverified one's are not looked at again."""
    system = SetValuedMap(1, [constant_piece(lambda x: True, [[-1.0], [1.0]])])
    rows = []  # the rows of each images call
    images = system.images
    system.images = lambda X, slack=0.0: rows.append(len(X)) or images(X, slack)
    inside = custom_policy(lambda x, image, rng: np.array([0.5]), name="inside", verify=True)
    free = custom_policy(lambda x, image, rng: np.array([5.0]), name="free")
    rngs = [np.random.default_rng(s) for s in range(3)]
    run = _lockstep(system, np.zeros((3, 1)), [inside, free, inside], rngs, nsteps=4, step=0.1)
    assert sorted(rows) == [1] * 4 + [2] * 4
    assert run.lengths.tolist() == [5, 5, 5] and not run.truncated.any()
    # the velocity 2 at x = 0.2 lies outside [-1, 1]: the trial stops there
    outside = custom_policy(lambda x, image, rng: np.array([2.0 if x[0] > 0.15 else 1.0]), name="out", verify=True)
    rows.clear()
    run = _lockstep(system, np.zeros((1, 1)), [outside], rngs[:1], nsteps=5, step=0.1, on_infeasible="truncate")
    assert rows == [1] * 3
    assert run.lengths.tolist() == [3] and run.truncated.tolist() == [True]
    with pytest.raises(InfeasibleSelectionError, match="outside the image at x=\\[0.2\\]"):
        _lockstep(system, np.zeros((1, 1)), [outside], rngs[:1], nsteps=5, step=0.1)


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
@pytest.mark.parametrize("steps", ["blocks", "one-step"])
def test_lockstep_equals_an_euler_loop_by_hand_byte_for_byte(name, mode, steps):
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
    policies = [p for _, _, p in trials]
    if steps == "one-step":  # custom policies, stepped by blocks of one step
        policies = _one_at_a_time(policies)
    run = _lockstep(system, np.array([x0 for x0, _, _ in trials]), policies,
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
    # the watch records one-step and multi-step blocks as a per-row loop
    # records their states step by step, with the loop's retirement between
    # steps: from a trial's first hit on, the trials of higher index stop
    from inclusafe.flow import _Watch

    def unsafe(S):
        return S[:, 0] > 0.0

    def depth(S):
        return S[:, 0] + S[:, 1]

    N, threshold = 8, 1.0
    rng = np.random.default_rng(56)
    single, blocked = _Watch(unsafe, depth, threshold, N), _Watch(unsafe, depth, threshold, N)
    want_depth, want_hit, want_winner = [-math.inf] * N, [-1] * N, N
    k = retiring = 0
    for kind in ["none", "some", "all", "some", "all", "none", "all"] * 8:
        # a block of b steps: trial trials[c] reaches T[i, c] at step k + i for i < ends[c]
        trials = np.sort(rng.choice(N, int(rng.integers(1, N + 1)), replace=False))
        trials = trials[trials <= blocked.winner]  # the loop retires the others first
        if not trials.size:
            continue
        b = int(rng.integers(1, 7))
        T = rng.uniform(-1.0, 1.0, (b, trials.size, 2))
        if kind != "some":
            T[:, :, 0] = np.abs(T[:, :, 0]) + 1e-3
            T[:, :, 0] *= 1.0 if kind == "all" else -1.0
        T[:, :, 1] -= (N - 1 - trials) / 8.0  # lower-index trials hit less often
        ends = rng.integers(1, b + 1, trials.size)
        kept = blocked.observe_block(k, trials, blocked.scan(T, ends), ends)
        want_ends = ends.copy()
        for i in range(b):
            hitters = []
            for c, t in enumerate(trials.tolist()):
                if i < want_ends[c] and T[i, c, 0] > 0.0:
                    d = T[i, c, 0] + T[i, c, 1]
                    want_depth[t] = max(want_depth[t], d)
                    if d >= threshold and want_hit[t] < 0:
                        want_hit[t] = k + i
                        want_winner = min(want_winner, t)
                        hitters.append(t)
            # ... and retire the higher-index trials still running after step i
            for t in hitters:
                want_ends[(trials > t) & (want_ends > i + 1)] = i + 1
            on = i < want_ends
            if on.any():
                one = np.ones(int(on.sum()), dtype=int)
                single.observe_block(k + i, trials[on], single.scan(T[i:i + 1, on], one), one)
        assert kept.tolist() == want_ends.tolist()
        retiring += kept.tolist() != ends.tolist()
        for watch in (single, blocked):
            assert watch.depth.tolist() == want_depth
            assert watch.hit.tolist() == want_hit
            assert watch.winner == want_winner
        k += b
    assert want_winner < N and -1 in want_hit  # some trials hit, not all
    assert retiring >= 3  # hits retire trials inside multi-step blocks


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


# ----------------------------------------------------------------------- #
# b-ascent directions
def _candidate(gradient, dimension, singular=None):
    return BarrierCandidate(lambda x: 0.0, expressions.vector_fn(gradient, dimension),
                            "lipschitz" if singular else "C2",
                            None if singular is None else expressions.predicate_fn(singular, dimension))


@pytest.mark.parametrize("gradient, singular", [
    (["1"], None),            # linear-stable's gradient, resolved once
    (["0", "1"], None),       # example2's
    (["-2.5", "1e-7"], None),
    (["1e-13"], None),        # shorter than 1e-12: every row draws
    (["0", "0"], None),
    (["1", "0"], "x1 > 0.5"),  # a singular set: every call reads the state
    (["2*x1 + 2"], None),     # reads the state
])
def test_b_ascent_directions_equal_per_row_gradients_and_draws(gradient, singular):
    n = len(gradient)
    barrier = _candidate(gradient, n, singular)
    policy = b_ascent(barrier)
    rng = np.random.default_rng(17)
    for m in (5, 5, 3, 1, 4):
        X = rng.uniform(-1.0, 1.0, (m, n))
        seeds = rng.integers(2**32, size=m)
        got = policy.directions(X, [np.random.default_rng(s) for s in seeds])
        want = []
        for x, s in zip(X, seeds):
            draw = barrier.is_singular(x) or np.linalg.norm(barrier.gradient_at(x)) < 1e-12
            want.append(np.random.default_rng(s).standard_normal(n) if draw else barrier.gradient_at(x))
        assert got.shape == (m, n) and got.tobytes() == np.array(want).tobytes()


def test_b_ascent_names_the_first_row_where_the_gradient_oracle_raises(partial_oracle):
    policy = b_ascent(partial_oracle.scenario.barrier)
    X = np.array([[0.5, 0.0], [0.0, -0.9], [0.0, -0.95], [-1.0, -0.9]])
    with pytest.raises(GradientOracleError, match=r"the gradient oracle raises at x=\[0\.0, -0\.9\]: math domain"):
        policy.directions(X, [np.random.default_rng(i) for i in range(4)])
    with pytest.raises(GradientOracleError, match=r"raises at x=\[0\.0, -0\.9\]"):
        falsify(partial_oracle.scenario, 0.5, FalsifyBudget(starts=4, horizon=0.01),
                hints=[Hint(np.array([0.0, -0.9]), b_ascent(partial_oracle.scenario.barrier))])


# ----------------------------------------------------------------------- #
# coasting: a lone trial of a policy with ``rows`` advances in blocks of steps
def _single_steps(policy):
    """The same velocity, the (1, n) ``rows`` call of a single step, through
    a policy without ``rows`` or ``velocity``, which the loop takes one step
    at a time."""
    return custom_policy(lambda x, image, rng: policy.rows(x[None])[0], name=policy.name, verify=policy.verify)


def _run_both(system, x0, policy, *, nsteps, step, box=None, backward=False, watch=None,
              on_infeasible="truncate"):
    """The coasted run and the single-step run of ``policy`` from ``x0``,
    asserted equal bit for bit: history, lengths, stop flags and watch."""
    from inclusafe.flow import _Watch

    assert policy.rows is not None
    runs, watches = [], []
    for p in (policy, _single_steps(policy)):
        w = None if watch is None else _Watch(*watch, 1)
        runs.append(_lockstep(system, np.asarray(x0, dtype=float).reshape(1, -1), [p],
                              [np.random.default_rng(0)], nsteps=nsteps, step=step,
                              box=None if box is None else np.asarray(box, dtype=float),
                              backward=backward, on_infeasible=on_infeasible, watch=w))
        watches.append(w)
    _assert_same_runs(runs, watches)
    return runs[0], watches[0]


def _assert_same_runs(runs, watches):
    """Two runs equal bit for bit: history, lengths, stop flags and watch."""
    a, b = runs
    assert len(a.history) == len(b.history)
    for (ta, Sa), (tb, Sb) in zip(a.history, b.history):
        assert ta.tolist() == tb.tolist() and Sa.shape == Sb.shape and Sa.tobytes() == Sb.tobytes()
    for field in ("lengths", "exited", "truncated"):
        assert getattr(a, field).tolist() == getattr(b, field).tolist()
    if watches[0] is not None:
        assert watches[0].depth.tobytes() == watches[1].depth.tobytes()
        assert watches[0].hit.tolist() == watches[1].hit.tolist()
        assert watches[0].winner == watches[1].winner


def _raised_by_both(system, x0, policy, error, **kw):
    texts = []
    for p in (policy, _single_steps(policy)):
        with pytest.raises(error) as info:
            _lockstep(system, np.asarray(x0, dtype=float).reshape(1, -1), [p],
                      [np.random.default_rng(0)], **kw)
        texts.append(str(info.value))
    assert texts[0] == texts[1]
    return texts[0]


_STEP, _V = 1e-3, 0.7  # states whose sums round: the fold must round alike


def _states(nsteps):
    return oracles.euler_states(lambda x: _V, 0.0, nsteps * _STEP, _STEP)


def _until(c):
    """Image {0.7} left of c, {-1} from c on: the velocity turns infeasible
    at the first state at or past c."""
    return SetValuedMap(1, [constant_piece(lambda x: x[0] < c, [[_V]]),
                            constant_piece(lambda x: x[0] >= c, [[-1.0]])])


def test_add_accumulate_is_the_left_fold_of_repeated_addition():
    # pairwise summation would differ here: 1 + 1e-16 rounds back to 1
    A = np.array([[1.0, 3.0]] + [[1e-16, 2.5e-16]] * 127)
    folded, x = np.add.accumulate(A), A[0].copy()
    for j in range(1, A.shape[0]):
        x = x + A[j]
        assert folded[j].tobytes() == x.tobytes()
    assert np.ascontiguousarray(A[:, 0]).sum() != folded[-1, 0]


@pytest.mark.parametrize("stop", [30, 63, 64, 65, 129])
def test_coast_truncates_as_single_steps_mid_block_and_at_block_edges(stop):
    # the step that starts from state `stop` is infeasible
    run, _ = _run_both(_until(_states(stop)[-1]), [0.0], constant_policy([_V]),
                       nsteps=150, step=_STEP, box=[[-1.0, 1.0]])
    assert run.truncated[0] and run.lengths[0] == stop + 1 == len(run.history) + 1


@pytest.mark.parametrize("stop", [30, 64, 65, 128, 129])
def test_coast_leaves_the_box_as_single_steps_mid_block_and_at_block_edges(stop):
    # state `stop` is the first outside the box
    states = _states(stop)
    box = [[-1.0, 0.5 * (states[-1] + states[-2])]]
    run, _ = _run_both(_until(1.0), [0.0], constant_policy([_V]), nsteps=150, step=_STEP, box=box)
    assert run.exited[0] and run.lengths[0] == stop + 1 == len(run.history) + 1


@pytest.mark.parametrize("nsteps", [1, 63, 64, 150])
def test_coast_reaches_a_horizon_that_is_not_a_multiple_of_the_block(nsteps):
    run, _ = _run_both(_until(1.0), [0.0], constant_policy([_V]), nsteps=nsteps, step=_STEP)
    assert run.lengths[0] == nsteps + 1 and not (run.exited[0] or run.truncated[0])
    assert run.history[-1][1][0, 0] == _states(nsteps)[-1]


def test_coast_hits_inside_a_block_as_single_steps():
    states = _states(150)

    def unsafe(S):
        return S[:, 0] > states[40]

    def depth(S):
        return S[:, 0] - states[40]

    _, watch = _run_both(_until(1.0), [0.0], constant_policy([_V]), nsteps=150, step=_STEP,
                         watch=(unsafe, depth, states[100] - states[40]))
    assert watch.hit.tolist() == [100] and watch.winner == 0
    assert watch.depth[0] == states[150] - states[40]


@pytest.mark.parametrize("values", [
    [-0.0, 0.0, -0.0, 0.0],             # the first of equal values stays
    [0.0, -0.0, math.nan, -0.0],
    [math.nan, math.nan, -1.0, math.nan],  # a NaN is never stored
    [math.nan] * 4,
])
def test_coast_folds_depth_ties_and_nan_as_single_steps(values):
    # states j / 8 are exact, so the depth can look its value up by step
    table = np.array((values * 40)[:150])

    def depth(S):
        return table[np.rint(8.0 * S[:, 0]).astype(int) % table.size]

    system = SetValuedMap(1, [constant_piece(lambda x: True, [[0.125]])])
    for threshold in (math.inf, 0.0):
        _, watch = _run_both(system, [0.0], constant_policy([0.125]), nsteps=149, step=1.0,
                             watch=(lambda S: S[:, 0] >= 0.0, depth, threshold))
        assert watch.depth.tobytes() == np.array([next((v for v in values if not math.isnan(v)), -math.inf)]).tobytes()


def test_coast_backward_negates_the_image_as_single_steps():
    # backward, the image {-0.7} left of c is {0.7}: feasible until c
    c = _states(90)[-1]
    system = SetValuedMap(1, [constant_piece(lambda x: x[0] < c, [[-_V]]),
                              constant_piece(lambda x: x[0] >= c, [[1.0]])])
    run, _ = _run_both(system, [0.0], constant_policy([_V]), nsteps=150, step=_STEP, backward=True)
    assert run.truncated[0] and run.lengths[0] == 91


def test_coast_through_integrate_without_a_box():
    policy = constant_policy([_V])
    coasted = integrate(_until(1.0), [0.0], horizon=0.15, step=_STEP, policy=policy)
    single = integrate(_until(1.0), [0.0], horizon=0.15, step=_STEP, policy=_single_steps(policy))
    assert coasted.states.tobytes() == single.states.tobytes() and len(coasted) == 151
    assert coasted.states[:, 0].tolist() == _states(150)


def test_coast_past_a_truncation_takes_no_image_error():
    # no piece holds from c2 on, but the trial truncates at c first
    c, c2 = _states(30)[-1], _states(40)[-1]
    system = SetValuedMap(1, [constant_piece(lambda x: x[0] < c, [[_V]]),
                              constant_piece(lambda x: c <= x[0] < c2, [[-1.0]])])
    run, _ = _run_both(system, [0.0], constant_policy([_V]), nsteps=150, step=_STEP)
    assert run.truncated[0] and run.lengths[0] == 31


def test_coast_raises_a_missing_piece_where_single_steps_raise_it():
    from inclusafe.svmap import NoMatchingPieceError

    c = _states(70)[-1]
    system = SetValuedMap(1, [constant_piece(lambda x: x[0] < c, [[_V]])])
    text = _raised_by_both(system, [0.0], constant_policy([_V]), NoMatchingPieceError,
                           nsteps=150, step=_STEP, on_infeasible="truncate")
    assert f"x=[{c!r}]" in text


def test_coast_raises_the_infeasible_selection_text_of_single_steps():
    c = _states(45)[-1]
    text = _raised_by_both(_until(c), [0.0], constant_policy([_V]), InfeasibleSelectionError,
                           nsteps=150, step=_STEP, on_infeasible="raise")
    assert text == f"policy 'constant(0.7)' chose velocity [0.7] outside the image at x={[c]}"
    assert text.endswith("x=[0.03149999999999998]")


def test_coast_of_an_expression_policy_with_constant_components(example2):
    policy = expression_policy(["0.03", "-1/40"], 2, name="drift")
    assert policy.velocity.tolist() == [0.03, -0.025] and not policy.velocity.flags.writeable
    assert expression_policy(["x1", "1"], 2).velocity is None
    assert b_ascent(example2.scenario.barrier).velocity is random_extreme().velocity is None
    sc = example2.scenario
    system = PerturbedSystem(sc.dynamics, 0.04, "strong")
    # the image's upper end in x2 sinks below -0.025 as x2 falls below 0
    run, _ = _run_both(system, [5.0, 0.0], policy, nsteps=700, step=1e-3, box=sc.box)
    assert run.truncated[0] and 65 < run.lengths[0] < 700


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_falsify_example1_with_a_coasting_hint_equals_single_steps(example1, eps):
    hint = example1.hints(eps)[0]
    budget = FalsifyBudget(starts=3, horizon=1.0)
    coasted = falsify(example1.scenario, eps, budget, hints=[hint])
    single = falsify(example1.scenario, eps, budget,
                     hints=[Hint(hint.x0, _single_steps(hint.policy), hint.label)])
    assert coasted.found and coasted.to_dict() == single.to_dict()
    assert coasted.trajectory.states.tobytes() == single.trajectory.states.tobytes()
    assert coasted.trajectory.values.tobytes() == single.trajectory.values.tobytes()


# a lone state-feedback trial coasts too: its velocities come row by row,
# then one image call and one feasibility call cover the block
_FEEDBACK = ["0.7 + 0.1*x2*x2", "x1 - 0.5*x2"]  # x1 rises every step
_X0 = [0.0, 0.25]
_SQUARE = [[-10.0, -10.0], [10.0, -10.0], [10.0, 10.0], [-10.0, 10.0]]
_UNIT_BOX = [[-1.0, 1.0], [-1.0, 1.0]]


def _feedback(components=_FEEDBACK):
    policy = expression_policy(components, 2, name="feedback")
    assert policy.velocity is None and policy.rows is not None
    return policy


def _feedback_x1(nsteps):
    """x1 of the feedback policy's single steps from _X0, by hand."""
    rows, X, out = _feedback().rows, np.array([_X0]), [_X0[0]]
    for _ in range(nsteps):
        X = X + _STEP * rows(X)
        out.append(float(X[0, 0]))
    return out


def _square_until(c, square=_SQUARE):
    """Image ``square`` left of x1 = c, {(-1, -1)} from c on: the feedback
    velocity turns infeasible at the first state at or past c."""
    return SetValuedMap(2, [constant_piece(lambda x: x[0] < c, square),
                            constant_piece(lambda x: x[0] >= c, [[-1.0, -1.0]])])


def _box_before(stop):
    """The unit box cut between the states stop - 1 and stop of the
    feedback policy, so that state stop is the first outside it."""
    x1 = _feedback_x1(stop)
    return [[-1.0, 0.5 * (x1[-1] + x1[-2])], [-1.0, 1.0]]


@pytest.fixture()
def blocks(monkeypatch):
    """The steps each guarded block of steps took (its longest-running
    trial's, before retirement), or None where it fell back to blocks of
    one step; those, run outside the guard, are not recorded."""
    from inclusafe import flow

    taken = []

    def recording(advance):
        def recorded(*args):
            if np.geterr()["invalid"] != "raise":
                return advance(*args)
            try:
                made = advance(*args)
            except Exception:
                taken.append(None)
                raise
            taken.append(int(made[1].max()))
            return made
        return recorded

    monkeypatch.setattr(flow, "_block", recording(flow._block))
    return taken


@pytest.mark.parametrize("stop", [30, 63, 64, 65, 129])
def test_feedback_coast_truncates_as_single_steps_mid_block_and_at_block_edges(stop, blocks):
    # the step that starts from state `stop` is infeasible
    run, _ = _run_both(_square_until(_feedback_x1(stop)[-1]), _X0, _feedback(), nsteps=150, step=_STEP,
                       box=_UNIT_BOX)
    assert run.truncated[0] and run.lengths[0] == stop + 1 == len(run.history) + 1
    assert None not in blocks and sum(blocks) == stop


@pytest.mark.parametrize("stop", [30, 64, 65, 128, 129])
def test_feedback_coast_leaves_the_box_as_single_steps_mid_block_and_at_block_edges(stop, blocks):
    run, _ = _run_both(_square_until(1.0), _X0, _feedback(), nsteps=150, step=_STEP, box=_box_before(stop))
    assert run.exited[0] and run.lengths[0] == stop + 1 == len(run.history) + 1
    assert None not in blocks and sum(blocks) == stop


@pytest.mark.parametrize("nsteps", [1, 63, 64, 150])
def test_feedback_coast_reaches_horizons_on_and_off_the_block(nsteps, blocks):
    run, _ = _run_both(_square_until(1.0), _X0, _feedback(), nsteps=nsteps, step=_STEP, box=_UNIT_BOX)
    assert run.lengths[0] == nsteps + 1 and not (run.exited[0] or run.truncated[0])
    assert run.history[-1][1][0, 0] == _feedback_x1(nsteps)[-1]
    assert blocks == [min(64, nsteps - j) for j in range(0, nsteps, 64)]


def test_feedback_coast_hits_inside_a_block_as_single_steps(blocks):
    x1 = _feedback_x1(150)
    watch = (lambda S: S[:, 0] > x1[40], lambda S: S[:, 0] - x1[40], x1[100] - x1[40])
    _, watch = _run_both(_square_until(1.0), _X0, _feedback(), nsteps=150, step=_STEP, watch=watch)
    assert watch.hit.tolist() == [100] and watch.winner == 0
    assert watch.depth[0] == x1[150] - x1[40]
    assert None not in blocks


def test_feedback_coast_backward_negates_the_image_as_single_steps(blocks):
    # x1 velocities of at least 0.7 lie in the negated image, not in the image
    left = [[-10.0, -10.0], [-0.1, -10.0], [-0.1, 10.0], [-10.0, 10.0]]
    system = _square_until(_feedback_x1(90)[-1], left)
    run, _ = _run_both(system, _X0, _feedback(), nsteps=150, step=_STEP, backward=True)
    assert run.truncated[0] and run.lengths[0] == 91
    run, _ = _run_both(system, _X0, _feedback(), nsteps=150, step=_STEP)
    assert run.truncated[0] and run.lengths[0] == 1
    assert None not in blocks


def _raising(c):
    """The feedback policy, whose ``rows`` raises from x1 >= c on."""
    feedback = _feedback()

    def rows(X):
        if X[0, 0] >= c:
            raise ValueError(f"no velocity at x={X[0].tolist()}")
        return feedback.rows(X)

    return SelectionPolicy("raising", lambda x, image, rng: rows(x[None])[0], verify=True, rows=rows)


def _overflowing(c):
    """The feedback policy, whose x1 velocity overflows to inf (with a
    numpy warning) at x1 > c."""
    return _feedback([f"0.7 + 0.1*x2*x2 + x1 * 1e308 * (x1 > {c!r}) * 1e3", _FEEDBACK[1]])


@pytest.mark.parametrize("policy", [_raising, _overflowing])
@pytest.mark.parametrize("stop", ["exit", "truncate"])
def test_feedback_coast_past_its_stop_neither_raises_nor_warns(policy, stop, blocks):
    # the trial stops at state 37; the velocity fails from state 38 (raising)
    # or 39 (overflowing) on, before the box check after step 40 ends the fold
    x1 = _feedback_x1(39)
    system = _square_until(x1[37] if stop == "truncate" else 1.0)
    box = _box_before(37) if stop == "exit" else _UNIT_BOX
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run, _ = _run_both(system, _X0, policy(x1[38]), nsteps=150, step=_STEP, box=box)
    assert caught == []
    assert run.lengths[0] == 38 and run.exited[0] == (stop == "exit") and run.truncated[0] == (stop == "truncate")
    assert blocks == [None]  # the block met the failure and took single steps


def test_feedback_coast_raises_before_its_stop_where_single_steps_raise(blocks):
    x1 = _feedback_x1(100)
    text = _raised_by_both(_square_until(1.0), _X0, _raising(x1[70]), ValueError,
                           nsteps=150, step=_STEP, box=np.array(_UNIT_BOX), on_infeasible="truncate")
    assert text.startswith(f"no velocity at x=[{x1[70]!r}, ")
    assert blocks == [64, None]


def test_feedback_coast_warns_before_its_stop_where_single_steps_warn(blocks):
    # x1 first exceeds c at state 50: the overflowing velocity truncates there
    x1 = _feedback_x1(50)
    policy = _overflowing(x1[49])
    seen = []
    for p in (policy, _single_steps(policy)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = _lockstep(_square_until(1.0), np.array([_X0]), [p], [np.random.default_rng(0)],
                            nsteps=150, step=_STEP, on_infeasible="truncate")
        seen.append(([(w.category, str(w.message)) for w in caught], run.lengths.tolist(),
                     run.truncated.tolist(), [S.tobytes() for _, S in run.history]))
    assert seen[0] == seen[1]
    assert seen[0][0] == [(RuntimeWarning, "overflow encountered in multiply")]
    assert seen[0][1:3] == ([51], [True])
    assert blocks == [None]


def test_feedback_coast_raises_the_infeasible_selection_text_of_single_steps(blocks):
    x1 = _feedback_x1(45)
    text = _raised_by_both(_square_until(x1[45]), _X0, _feedback(), InfeasibleSelectionError,
                           nsteps=150, step=_STEP, on_infeasible="raise")
    assert text.startswith("policy 'feedback' chose velocity [0.7") and f"at x=[{x1[45]!r}, " in text
    assert blocks == [45]


@pytest.mark.parametrize("eps", [0.04, 0.1])
def test_coast_of_example2s_hint_equals_single_steps(example2, eps, blocks):
    from inclusafe import expressions

    sc, hint = example2.scenario, example2.hints(eps)[0]
    assert hint.policy.velocity is None
    system = PerturbedSystem(sc.dynamics, eps, "strong")
    watch = (expressions.rows_of(sc.unsafe, bool), expressions.rows_of(sc.depth), 0.5)
    run, watch = _run_both(system, hint.x0, hint.policy, nsteps=1000, step=eps / 50.0, box=sc.box, watch=watch)
    assert run.exited[0] and 64 < run.lengths[0] < 1000 and watch.hit[0] > 0
    assert None not in blocks
    budget = FalsifyBudget(starts=1, horizon=0.5)
    coasted = falsify(sc, eps, budget, hints=[hint])
    single = falsify(sc, eps, budget, hints=[Hint(hint.x0, _single_steps(hint.policy), hint.label)])
    assert coasted.found and coasted.to_dict() == single.to_dict()
    assert coasted.trajectory.states.tobytes() == single.trajectory.states.tobytes()
    assert coasted.trajectory.values.tobytes() == single.trajectory.values.tobytes()


def test_feedback_coast_stops_its_fold_within_8_steps_of_the_box_exit(example2):
    # the exit is looked for after every 8th folded step, so few rows calls
    # fall past it: the eps = 0.04 find leaves the box after 326 steps and
    # the eps = 0.1 find after 464
    sc = example2.scenario
    for eps, steps in ((0.04, 326), (0.1, 464)):
        hint = example2.hints(eps)[0]
        calls = []

        def rows(X, rows=hint.policy.rows):
            calls.append(X.shape[0])
            return rows(X)

        counted = SelectionPolicy(hint.policy.name, hint.policy.select, verify=True, rows=rows)
        res = falsify(sc, eps, FalsifyBudget(starts=1, horizon=0.5), hints=[Hint(hint.x0, counted, hint.label)])
        assert res.found and len(res.trajectory) == steps + 1 and res.trajectory.exited_box
        assert set(calls) == {1} and steps <= len(calls) < steps + 8


@pytest.fixture()
def feasibility_rows(monkeypatch):
    """The rows of each 2-D containment check (``checked``), and those of
    them that the nearest-point certificate leaves to the 256-direction
    product (``sampled``)."""
    from inclusafe import convexset

    rows = {"checked": [], "sampled": []}
    for key, name in (("checked", "_certified"), ("sampled", "_sampled")):
        def recorded(stack, *args, seen=rows[key], check=getattr(convexset, name)):
            seen.append(stack[0].shape[0])
            return check(stack, *args)
        monkeypatch.setattr(convexset, name, recorded)
    return rows


@pytest.mark.parametrize("eps, steps", [(0.04, 326), (0.1, 464)])
def test_example2_finds_settle_every_velocity_by_the_certificate(example2, eps, steps, feasibility_rows):
    # each hint velocity is f(x + (0, eps)) + (0, eps), and (0, eps) is an
    # offset of the strong image's lattice, so it lies eps from a point
    hint = example2.hints(eps)[0]
    res = falsify(example2.scenario, eps, FalsifyBudget(starts=1, horizon=0.5), hints=[hint])
    assert res.found and len(res.trajectory) == steps + 1
    assert sum(feasibility_rows["checked"]) == steps and feasibility_rows["sampled"] == []


def test_an_infeasible_planar_hint_reaches_the_sampled_check_and_truncates_first(example2, feasibility_rows):
    sc = example2.scenario
    policy = expression_policy(["0", "100"], 2, name="infeasible")
    assert policy.velocity is not None and policy.verify
    run, _ = _run_both(PerturbedSystem(sc.dynamics, 0.04, "strong"), [5.0, 0.0], policy, nsteps=1000,
                       step=0.04 / 50.0, box=sc.box)
    assert run.truncated[0] and run.lengths[0] == 1 and not run.exited[0]
    # the coasting block's rows up to its box exit, then the single step's one
    assert feasibility_rows["sampled"] == feasibility_rows["checked"] == [13, 1]


# ----------------------------------------------------------------------- #
# blocks of several trials: when every live trial's policy is an
# extreme-point, state-feedback or fixed-velocity one, in any mix, the loop
# advances all of them to the end of the 64-step window of normals
def _one_at_a_time(policies):
    """Each distinct policy as a custom policy with the same ``select`` and
    ``verify``, which the loop steps one step at a time."""
    wrapped = {}
    return [wrapped.setdefault(id(p), custom_policy(p.select, name=p.name, verify=p.verify)) for p in policies]


def _streams(count, seed=5):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _steer_both(system, X0, policies, *, nsteps, step=1e-3, box=None, backward=False, watch=None):
    """The blocked run and the one-step-at-a-time run of ``policies``,
    asserted equal bit for bit (:func:`_assert_same_runs`), and so are the
    generators of the trials that reach the horizon.  Returns the blocked
    run, its watch and its generators."""
    from inclusafe.flow import _Watch

    X0 = np.asarray(X0, dtype=float)
    runs, watches, streams = [], [], []
    for ps in (policies, _one_at_a_time(policies)):
        rngs = _streams(len(ps))
        w = None if watch is None else _Watch(*watch, len(ps))
        runs.append(_lockstep(system, X0, ps, rngs, nsteps=nsteps, step=step,
                              box=None if box is None else np.asarray(box, dtype=float),
                              backward=backward, on_infeasible="truncate", watch=w))
        watches.append(w)
        streams.append(rngs)
    _assert_same_runs(runs, watches)
    run = runs[0]
    on = (run.lengths == nsteps + 1) & ~run.exited
    for i in np.flatnonzero(on).tolist():
        assert streams[0][i].bit_generator.state == streams[1][i].bit_generator.state
    return run, watches[0], streams[0]


@pytest.mark.parametrize("name, eps, mode, trials, nsteps, hinted", [
    ("linear-stable", 0.1, "strong", 1, 150, None),
    ("linear-stable", 0.1, "strong", 4, 64, None),
    ("linear-stable", 0.1, "strong", 5, 150, None),
    ("noisy-loop", None, None, 4, 63, None),
    ("example1", 1.0, "image", 1, 128, None),
    ("example1", 1.0, "image", 4, 150, None),
    ("example1", 0.1, "strong", 5, 1, None),
    ("example2", 0.04, "strong", 4, 150, None),
    ("example2", 0.04, "strong", 5, 65, None),
    # the fixed-velocity hint first, then b-ascent and random-extreme
    # trials, as the finds run: its hit retires the others
    ("example1", 0.5, "strong", 5, 150, "beside"),
    # state-feedback hints only, from starts 0.2 apart in x1
    ("example2", 0.04, "strong", 4, 400, "copies"),
])
def test_steered_blocks_equal_single_steps(name, eps, mode, trials, nsteps, hinted, blocks):
    bundle = scenarios.build(name)
    sc = bundle.scenario
    system = sc.dynamics if eps is None else PerturbedSystem(sc.dynamics, eps, mode)
    pool = sc.initial_samples()
    X0 = pool[np.linspace(0, pool.shape[0] - 1, trials).astype(int)]
    pair = [b_ascent(sc.barrier), random_extreme()]
    policies = [pair[i % 2] for i in range(trials)]
    step, watch = 1e-3, None
    if hinted is not None:
        hint = bundle.hints(eps)[0]
        copies = 1 if hinted == "beside" else trials
        X0[:copies] = hint.x0
        X0[:copies, 0] -= 0.2 * np.arange(copies)
        policies[:copies] = [hint.policy] * copies
        step = min(1e-3, eps / 50.0)
        threshold = falsify(sc, eps, FalsifyBudget(starts=1, horizon=step), hints=[hint]).threshold
        watch = (expressions.rows_of(sc.unsafe, bool), expressions.rows_of(sc.depth), threshold)
    run, watch, _ = _steer_both(system, X0, policies, nsteps=nsteps, step=step, box=sc.box, watch=watch)
    assert None not in blocks
    if hinted is not None:
        # the hint of trial 0 wins, and the trials after it that are still
        # in the box then retire (example2's copies 2 and 3 leave it first)
        assert watch.winner == 0 and 0 < watch.hit[0] < nsteps and not run.truncated.any()
        retired = ~run.exited[1:]
        assert retired.any() and (run.lengths[1:][retired] == watch.hit[0] + 1).all()
        assert (run.lengths[1:] <= watch.hit[0] + 1).all()
    elif name == "example2":  # planar trials leave the box at different steps
        assert run.exited.any() and len(set(run.lengths.tolist())) > 2
    else:
        assert (run.lengths == nsteps + 1).all()
        assert blocks == [min(64, nsteps - j) for j in range(0, nsteps, 64)]


def test_fixed_velocity_blocks_equal_single_steps(blocks):
    # four constant velocities in the image [-1, 1] left of c, {-5} from c
    # on: trial 0 (0.7) truncates after step 41, trial 1 (-0.5) leaves the
    # box after step 71, and the slow trials 2 and 3 run to the horizon
    c = 0.02805
    system = SetValuedMap(1, [constant_piece(lambda x: x[0] < c, [[-1.0], [1.0]]),
                              constant_piece(lambda x: x[0] >= c, [[-5.0]])])
    X0 = np.array([[0.0], [0.0], [-0.02], [0.005]])
    policies = [constant_policy([v]) for v in (0.7, -0.5, 0.3, 0.1)]
    run, _, _ = _steer_both(system, X0, policies, nsteps=150, box=[[-0.0351, 1.0]])
    assert run.lengths.tolist() == [42, 72, 151, 151]
    assert run.truncated.tolist() == [True, False, False, False]
    assert run.exited.tolist() == [False, True, False, False]
    assert None not in blocks and blocks == [64, 64, 22]


@pytest.mark.parametrize("h", [30, 63, 64])
@pytest.mark.parametrize("late", [0, 1, 2])
def test_a_hit_on_the_step_before_an_infeasible_velocity_retires_the_trial(h, late, blocks):
    # two fixed velocities on a drift with step 1/128, whose states are
    # exact: trial 0 from -10 reaches the unsafe depth h / 128 at step h;
    # trial 1's velocity turns infeasible at step h + late, where single
    # steps retire a trial before they check its velocity
    s = h + late
    system = SetValuedMap(1, [constant_piece(lambda x: x[0] < 0.0, [[1.0]]),
                              constant_piece(lambda x: x[0] >= 0.0, [[-1.0]])])
    X0 = np.array([[-10.0], [-(s - 1) / 128.0]])
    policy = constant_policy([1.0])
    watch = (lambda S: S[:, 0] < -5.0, lambda S: S[:, 0] + 10.0, h / 128.0)
    run, watch, _ = _steer_both(system, X0, [policy, policy], nsteps=150, step=1 / 128, box=[[-20.0, 20.0]],
                                watch=watch)
    assert watch.hit.tolist() == [h, -1] and watch.winner == 0
    assert run.lengths.tolist() == [151, h if late == 0 else h + 1]
    assert run.truncated.tolist() == [False, late == 0]
    assert None not in blocks


def _drift(x2_exit=None, trials=5):
    """A planar drift: every velocity is (1, 1), and with the step 1/128
    and starts on a grid of 1/256 every state is exact.  Trial i starts at
    x1 = -i / 8 and x2 = 0, but trial 3 at x2 just below the box's upper
    edge 10 so that it leaves through it after step ``x2_exit``."""
    X0 = np.zeros((trials, 2))
    X0[:, 0] = -np.arange(trials) / 8.0
    if x2_exit is not None:
        X0[3, 1] = 10.0 - (x2_exit - 0.5) / 128.0
    system = SetValuedMap(2, [constant_piece(lambda x: True, [[1.0, 1.0]])])
    ascent = b_ascent(_candidate(["1", "0"], 2))
    return system, X0, [ascent, random_extreme(), ascent, random_extreme(), ascent][:trials]


_DRIFT_BOX = [[-20.0, 20.0], [-20.0, 10.0]]


@pytest.mark.parametrize("stop", [1, 30, 64, 65, 128, 129])
def test_steered_block_drops_only_the_tail_of_a_trial_that_leaves_the_box(stop, blocks):
    def depth(S):
        # the watch never sees a state past the exit, whose x2 is 10 + 0.5/128
        if (S[:, 1] > 10.05).any():
            raise ValueError("a state past the exit")
        return S[:, 0]

    system, X0, policies = _drift(stop)
    run, _, _ = _steer_both(system, X0, policies, nsteps=150, step=1 / 128, box=_DRIFT_BOX,
                            watch=(lambda S: S[:, 0] > -100.0, depth, math.inf))
    assert run.lengths.tolist() == [151, 151, 151, stop + 1, 151]
    assert run.exited.tolist() == [False, False, False, True, False]
    assert None not in blocks and len(blocks) == 3


@pytest.mark.parametrize("first, second, leaves", [
    (70, 100, None),  # both hits inside the second block
    (30, 60, None),   # both inside the first
    (64, 65, None),   # the first on a block's last step, the second on the next block's first
    (30, 128, None),
    (70, 100, 70),    # trial 3 leaves the box on the step that retires it: it exits
    (70, 100, 71),    # ... or one step later: it retires first
    (70, 100, 40),    # ... or before any hit
])
def test_steered_block_retires_trials_after_each_lower_index_hit_as_single_steps(first, second, leaves, blocks):
    # trial 2 reaches the unsafe depth 0.5 at step `first`, which retires
    # trials 3 and 4; trial 0 reaches it at step `second`, which retires
    # trials 1 and 2; trials 1 and 3 would hit 10 and 5 steps after them
    system, X0, policies = _drift(leaves)
    X0[:4, 0] = 0.5 - np.array([second, second + 10, first, first + 5]) / 128.0
    X0[4, 0] = -10.0
    watch = (lambda S: S[:, 0] > 0.0, lambda S: S[:, 0], 0.5)
    run, watch, _ = _steer_both(system, X0, policies, nsteps=150, step=1 / 128, box=_DRIFT_BOX, watch=watch)
    assert watch.hit.tolist() == [second, -1, first, -1, -1] and watch.winner == 0
    three = first + 1 if leaves is None else min(first, leaves) + 1
    assert run.lengths.tolist() == [151, second + 1, second + 1, three, first + 1]
    assert run.exited.tolist() == [False, False, False, leaves is not None and leaves <= first, False]
    assert watch.depth[1] == 0.5 - 10 / 128 and watch.depth[0] == 0.5 + (150 - second) / 128
    assert None not in blocks


def test_steered_block_backward_negates_the_image_as_single_steps(linear_stable, blocks):
    # backward, the contraction pushes away from 0 and the trials leave the box
    sc = linear_stable.scenario
    system = PerturbedSystem(sc.dynamics, 0.1, "strong")
    X0 = np.array([[0.5], [0.4], [-0.3], [0.05]])
    run, _, _ = _steer_both(system, X0, [b_ascent(sc.barrier), random_extreme()] * 2, nsteps=300, step=1e-2,
                            box=sc.box, backward=True)
    assert run.exited.any() and len(set(run.lengths.tolist())) > 2
    assert None not in blocks


def _vanishing(gradient="2*x1 + 2"):
    """Three trials of example1's map in mode image with eps = 1 (velocities
    1 to 3) on the box x1 <= -0.25, step 1/128: b-ascent trial 0 moves at 3
    and leaves the box after step 20; b-ascent trial 1 moves at 1 from
    x1 = -1 - 10/128 to -1, where the gradient 2*x1 + 2 vanishes, so at step
    11 it draws its direction from its generator, and it stays in the box
    for 40 steps; random-extreme trial 2 stays in it too."""
    sc = scenarios.build("example1").scenario
    system = PerturbedSystem(sc.dynamics, 1.0, "image")
    ascent = b_ascent(_candidate([gradient], 1))
    X0 = np.array([[-0.25 - 19.5 * 3 / 128], [-1.0 - 10 / 128], [-2.0]])
    return system, X0, [ascent, ascent, random_extreme()], [[-3.0, -0.25]]


def test_steered_block_keeps_the_draw_of_a_vanishing_gradient_beside_a_trial_that_leaves(blocks):
    system, X0, policies, box = _vanishing()
    run, _, streams = _steer_both(system, X0, policies, nsteps=40, step=1 / 128, box=box)
    assert run.lengths.tolist() == [21, 41, 41] and run.exited.tolist() == [True, False, False]
    assert run.trajectory(1, 1 / 128, "").states[10, 0] == -1.0
    # trial 1 drew once, after trial 0 had left: the same draw as single steps
    fresh = _streams(3)[1]
    assert streams[1].bit_generator.state != fresh.bit_generator.state
    fresh.standard_normal(1)
    assert streams[1].bit_generator.state == fresh.bit_generator.state
    assert blocks == [40]


def _overflowing_past(c):
    # past x1 = c a term of the gradient overflows with a numpy warning, and
    # the gradient is still 2*x1 + 2
    return f"2*x1 + 2 + min((x1 > {c!r}) * 1e308 * 10, 0)"


def _raising_past(c):
    # past x1 = c the gradient oracle raises (a square root of a negative)
    return f"2*x1 + 2 + 0*sqrt({c!r} - x1)"


@pytest.mark.parametrize("gradient", [_overflowing_past, _raising_past])
def test_steered_block_past_a_stop_neither_raises_nor_warns(gradient, blocks):
    # trial 0 leaves the box after step 20 and passes x1 = -0.2 at step 22,
    # inside the first block; the others never reach -0.2, and trial 1
    # leaves the box after step 43
    system, X0, policies, box = _vanishing(gradient(-0.2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run, _, _ = _steer_both(system, X0, policies, nsteps=100, step=1 / 128, box=box)
    assert caught == []
    assert run.lengths.tolist() == [21, 44, 101] and run.exited.tolist() == [True, True, False]
    # the block met the failure after trial 1's draw at step 11, put its
    # generator back, and the window's steps were taken one by one; blocks
    # resume with the next window
    assert blocks == [None, 36]


@pytest.fixture()
def one_by_one(monkeypatch):
    """Runs whose guarded blocks all fail before their first step, so the
    loop takes blocks of one step from the start: the reference for the
    errors and warnings of a block that falls back."""
    from inclusafe import flow

    def runs(call):
        advance = flow._block

        def failing(*args):
            return 1 / 0 if np.geterr()["invalid"] == "raise" else advance(*args)

        with monkeypatch.context() as m:
            m.setattr(flow, "_block", failing)
            return call()
    return runs


def test_steered_block_warns_before_a_stop_where_single_steps_warn(one_by_one, blocks):
    # trial 0 passes x1 = -0.45 at step 11, after trial 1's draw at step
    # 11, and warns on every later step until it leaves the box
    system, X0, policies, box = _vanishing(_overflowing_past(-0.45))
    seen = []
    for call in (lambda f: f(), one_by_one):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            streams = _streams(3)
            run = call(lambda: _lockstep(system, X0, policies, streams, nsteps=40, step=1 / 128,
                                         box=np.array(box), on_infeasible="truncate"))
        seen.append(([(w.category, str(w.message)) for w in caught], run.lengths.tolist(),
                     [S.tobytes() for _, S in run.history], [g.bit_generator.state for g in streams]))
    assert seen[0] == seen[1]
    # trial 0 warns on its steps 12 to 20, trial 1 on its last few steps
    assert set(seen[0][0]) == {(RuntimeWarning, "overflow encountered in multiply")} and len(seen[0][0]) > 9
    assert seen[0][1] == [21, 41, 41]
    assert blocks == [None]
    assert seen[0][3][1] != _streams(3)[1].bit_generator.state  # trial 1 drew


def test_steered_block_raises_before_a_stop_where_single_steps_raise(one_by_one, blocks):
    system, X0, policies, box = _vanishing(_raising_past(-0.45))
    texts, states = [], []
    for call, ps in ((lambda f: f(), policies), (one_by_one, policies), (lambda f: f(), _one_at_a_time(policies))):
        streams = _streams(3)
        with pytest.raises(GradientOracleError) as info:
            call(lambda: _lockstep(system, X0, ps, streams, nsteps=40, step=1 / 128, box=np.array(box),
                                   on_infeasible="truncate"))
        texts.append(str(info.value))
        states.append([g.bit_generator.state for g in streams])
    assert texts[0] == texts[1] == texts[2] and texts[0].startswith("the gradient oracle raises at x=[-0.4")
    # put back after the block: trial 1's draw, then nothing past the raise
    # (the one-at-a-time run draws its random-extreme normals step by step)
    assert states[0] == states[1] and states[0][:2] == states[2][:2]
    assert blocks == [None]


@pytest.mark.parametrize("name, eps, mode, starts", [
    ("linear-stable", 0.1, "strong", 2),
    ("noisy-loop", None, "strong", 2),
    ("example1", 1.0, "image", 3),
])
def test_exhaust_searches_of_the_benchmark_run_in_steered_blocks(name, eps, mode, starts, blocks):
    # the falsify-search workload's exhaust commands: 1,000 steps each; the
    # example1 hint truncates at its second step inside the first block,
    # and its states past the truncation cross the exit threshold, which
    # ends that block after 32 steps; then every trial steers
    bundle = scenarios.build(name)
    res = falsify(bundle.scenario, eps, FalsifyBudget(starts=starts, horizon=1.0), mode=mode,
                  hints=bundle.hints(eps))
    assert not res.found
    assert None not in blocks and len(blocks) == (17 if name == "example1" else 16)
    assert sum(blocks) == 1000
