"""Max-min optimality certificate for both fluid waterfill backends.

The checker below knows nothing about how the solvers work.  It takes
one tier's call — the flows it solved, their demands and weights, and
the rates, bottlenecks and slack it left — and checks the conditions
that characterise the unique demand-bounded weighted max-min point:

* no link carries more than its capacity plus ``eps``;
* every solved flow is at its demand, or crosses a saturated link
  (``slack <= eps``, earlier tiers' traffic included) on which its level
  ``rate / weight`` is the largest of that tier's flows (to rel 1e-9,
  or to within ``eps`` of the link's load);
* ``bottleneck`` is -1 for flows held at their demand, and otherwise
  such a link with no lower-index one on the flow's path (the tie rule);
* the NumPy kernel and the pure-Python reference agree per call at rel
  1e-9 with identical bottlenecks.

Inputs are small hypothesis-drawn incidences (ties, zero weights,
pathless flows, several tiers sharing one slack vector) and per-tier
calls captured from real ``gen:fat-tree`` epochs at 1.05x and 1.5x load.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fluid import FluidOptions, FluidSimulation
from repro.fluid import model as fluid_model
from repro.scenario import DisciplineSpec, registry

pytestmark = pytest.mark.skipif(
    fluid_model._np is None, reason="numpy not installed"
)

REL = 1e-9


def eps_of(caps):
    return [max(1e-9 * c, 1e-6) for c in caps]


def solve_tier(backend, paths, caps, members, demand, weight, rate,
               bottleneck, slack, max_rounds=200):
    """One tier's waterfill on ``backend``; returns the new (rate,
    bottleneck, slack) lists and the exhausted-flow count."""
    if backend == "pure":
        rate, bottleneck, slack = list(rate), list(bottleneck), list(slack)
        exhausted = fluid_model.waterfill_pure(
            list(members), paths, list(caps), eps_of(caps), list(demand),
            list(weight), rate, bottleneck, slack, max_rounds,
        )
        return rate, bottleneck, slack, exhausted
    import numpy as np

    from repro.fluid.kernel import CsrIncidence, waterfill

    caps_a = np.asarray(caps, dtype=float)
    rate_a = np.asarray(rate, dtype=float)
    bn_a = np.asarray(bottleneck, dtype=np.int64)
    slack_a = np.asarray(slack, dtype=float)
    exhausted = waterfill(
        CsrIncidence(paths, len(caps)), caps_a, np.asarray(eps_of(caps)),
        np.asarray(members, dtype=np.int64), np.asarray(demand, dtype=float),
        np.asarray(weight, dtype=float), rate_a, bn_a, slack_a, max_rounds,
    )
    return rate_a.tolist(), bn_a.tolist(), slack_a.tolist(), exhausted


def assert_certificate(paths, caps, members, demand, weight, rate,
                       bottleneck, rate_in):
    """The max-min optimality conditions for one converged tier call."""
    eps = eps_of(caps)
    used = [0.0] * len(caps)
    for f, r in enumerate(rate):
        for l in paths[f]:
            used[l] += r
    for l, cap in enumerate(caps):
        assert used[l] <= cap + eps[l], f"link {l} over capacity"
    saturated = [cap - u <= e for cap, u, e in zip(caps, used, eps)]

    active = [
        f for f in members if demand[f] > 0 and weight[f] > 0 and paths[f]
    ]
    for f in set(members) - set(active):
        assert rate[f] == rate_in[f] and bottleneck[f] == -1, f
    level = {f: rate[f] / weight[f] for f in active}
    top, crossing = {}, {}
    for f in active:
        for l in paths[f]:
            top[l] = max(top.get(l, 0.0), level[f])
            crossing.setdefault(l, []).append(f)
    for f in active:
        assert rate[f] <= demand[f] * (1 + REL), f"flow {f} above demand"
        at_demand = rate[f] >= demand[f] * (1 - REL)
        # A link certifies f when it is saturated and f's level is the
        # top one there: strictly (to rel 1e-9), or up to eps — capping
        # every flow of the link at f's level leaves it within eps of
        # saturation (the solvers' tie rule reads slack <= eps).
        strict = [
            l for l in paths[f]
            if saturated[l] and level[f] >= top[l] * (1 - REL)
        ]
        loose = [
            l for l in paths[f]
            if caps[l] - used[l] + sum(
                max(0.0, rate[g] - level[f] * weight[g])
                for g in crossing[l]
            ) <= eps[l] * (1 + REL)
        ]
        assert at_demand or loose, f"flow {f} has no bottleneck"
        if bottleneck[f] >= 0:
            assert bottleneck[f] in loose, f
            assert all(l >= bottleneck[f] for l in strict), f
        else:
            assert at_demand, f"flow {f} below demand without bottleneck"


def assert_backends_agree(pure, numpy_):
    (p_rate, p_bn, p_slack, p_ex), (n_rate, n_bn, n_slack, n_ex) = (
        pure, numpy_
    )
    assert p_ex == n_ex
    assert p_bn == n_bn
    for x, y in zip(p_rate, n_rate):
        assert x == pytest.approx(y, rel=REL, abs=1e-9)
    for x, y in zip(p_slack, n_slack):
        assert x == pytest.approx(y, rel=REL, abs=1e-6)


def check_call(paths, caps, members, demand, weight, rate, bottleneck,
               slack):
    """Solve one tier call on both backends, certify both, compare."""
    results = {}
    for backend in ("pure", "numpy"):
        results[backend] = solve_tier(
            backend, paths, caps, members, demand, weight, rate,
            bottleneck, slack,
        )
        out_rate, out_bn, _, exhausted = results[backend]
        assert exhausted == 0
        assert_certificate(
            paths, caps, members, demand, weight, out_rate, out_bn, rate,
        )
    assert_backends_agree(results["pure"], results["numpy"])
    return results["pure"]


# -- hypothesis-drawn incidences ---------------------------------------

VALUES = (0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 5.0, 1e9)


@st.composite
def incidences(draw):
    """Up to 6 links and 9 flows over 1-3 tiers.  Values come from a
    small set so ties are common; paths may be empty, weights zero, and
    weight may follow demand (the FIFO family's proportional share)."""
    num_links = draw(st.integers(1, 6))
    num_flows = draw(st.integers(1, 9))
    caps = [
        1000.0 * draw(st.sampled_from((1.0, 2.0, 3.0, 5.0)))
        for _ in range(num_links)
    ]
    paths = [
        tuple(draw(st.lists(
            st.integers(0, num_links - 1), max_size=4, unique=True,
        )))
        for _ in range(num_flows)
    ]
    demand = [1000.0 * draw(st.sampled_from(VALUES)) for _ in paths]
    by_demand = draw(st.booleans())
    weight = [
        d if by_demand else draw(st.sampled_from(VALUES[:6]))
        for d in demand
    ]
    tiers = [draw(st.integers(0, 2)) for _ in paths]
    return paths, caps, demand, weight, tiers


def solve_all_tiers(paths, caps, demand, weight, tiers):
    """The engine's per-epoch loop: tiers in order over one slack
    vector, every call certified and cross-checked.  Pathless flows are
    passed as members too; both solvers must leave them alone."""
    F = len(paths)
    rate, bottleneck, slack = [0.0] * F, [-1] * F, list(caps)
    for t in range(3):
        members = [f for f in range(F) if tiers[f] == t]
        rate, bottleneck, slack, _ = check_call(
            paths, caps, members, demand, weight, rate, bottleneck, slack,
        )
    return rate, bottleneck


@settings(max_examples=300, deadline=None)
@given(incidences())
def test_drawn_incidences_are_max_min(case):
    solve_all_tiers(*case)


def test_parking_lot_levels():
    """A worked example: three links in a row, one long flow crossing
    all of them and one short flow per link, unequal capacities.  The
    tightest link sets the long flow's share; the others hand their
    remainder to their short flows."""
    caps = [3000.0, 2000.0, 4000.0]
    paths = [(0, 1, 2), (0,), (1,), (2,)]
    demand = [1e12] * 4
    weight = [1.0] * 4
    rate, bottleneck = solve_all_tiers(paths, caps, demand, weight, [0] * 4)
    assert rate == pytest.approx([1000.0, 2000.0, 1000.0, 3000.0])
    assert bottleneck == [1, 0, 1, 2]


def test_demand_limited_flow_releases_share():
    """A flow that wants less than its fair share keeps its demand and
    the rest of the link goes to the others, weighted."""
    caps = [3000.0]
    paths = [(0,), (0,), (0,)]
    demand = [500.0, 1e12, 1e12]
    weight = [1.0, 1.0, 4.0]
    rate, bottleneck = solve_all_tiers(paths, caps, demand, weight, [0] * 3)
    assert rate == pytest.approx([500.0, 500.0, 2000.0])
    assert bottleneck == [-1, 0, 0]


def test_round_cap_is_counted_and_feasible():
    """A chain whose four levels depend on each other, so the solve
    needs four rounds: a cap of one round leaves three flows unsolved,
    counts them, and still respects capacity."""
    caps = [1000.0, 3000.0, 6000.0, 10000.0]
    paths = [(0, 1, 2, 3), (1, 2, 3), (2, 3), (3,)]
    demand = [1e12] * 4
    weight = [1.0] * 4
    members = [0, 1, 2, 3]
    for backend in ("pure", "numpy"):
        _, _, slack, exhausted = solve_tier(
            backend, paths, caps, members, demand, weight, [0.0] * 4,
            [-1] * 4, list(caps), max_rounds=1,
        )
        assert exhausted == 3
        assert min(slack) >= -1e-6
        rate, bottleneck, _, exhausted = solve_tier(
            backend, paths, caps, members, demand, weight, [0.0] * 4,
            [-1] * 4, list(caps), max_rounds=4,
        )
        assert exhausted == 0
        assert rate == pytest.approx([1000.0, 2000.0, 3000.0, 4000.0])
        assert bottleneck == [0, 1, 2, 3]


# -- real epochs -------------------------------------------------------

def captured_calls(target_utilization):
    """Every per-tier waterfill call of a small fat-tree run on the
    kernel, with its inputs as the kernel saw them."""
    from repro.fluid import kernel as kernel_mod

    spec = registry.build(
        "gen:fat-tree", gen_seed=1, k=4, num_flows=400, duration=1.0,
        warmup=0.25, engine="fluid", target_utilization=target_utilization,
        disciplines=(
            DisciplineSpec.fifo(), DisciplineSpec.wfq(),
            DisciplineSpec.unified(name="CSZ"),
        ),
    )
    calls = []
    original = kernel_mod.FluidKernel._waterfill

    def capture(self, members, demand, weight, rate, bottleneck, slack):
        paths = [
            tuple(self.csr.el[self.csr.flow_ptr[f]:self.csr.flow_ptr[f + 1]]
                  .tolist())
            for f in range(self.F)
        ]
        calls.append((
            paths, self.caps.tolist(), members.tolist(), demand.tolist(),
            weight.tolist(), rate.tolist(), bottleneck.tolist(),
            slack.tolist(),
        ))
        original(self, members, demand, weight, rate, bottleneck, slack)

    kernel_mod.FluidKernel._waterfill = capture
    try:
        for discipline in spec.disciplines:
            FluidSimulation(
                spec, discipline,
                FluidOptions(backend="numpy", epoch_seconds=0.25),
            ).run()
    finally:
        kernel_mod.FluidKernel._waterfill = original
    return calls


@pytest.mark.parametrize("target_utilization", (1.05, 1.5))
def test_fat_tree_epochs_are_max_min(target_utilization):
    calls = captured_calls(target_utilization)
    assert len(calls) >= 10
    saturated = 0
    for call in calls:
        _, bottleneck, _, _ = check_call(*call)
        saturated += sum(b >= 0 for b in bottleneck)
    assert saturated > 0  # the cells really congest


# -- solver health in results ------------------------------------------

@pytest.mark.parametrize("backend", ("numpy", "pure"))
def test_exhaustion_reported_in_runtime(backend):
    """``waterfill_exhausted`` rides in the result's ``runtime`` block:
    non-zero under a forced one-round cap, 0 by default, and never in
    ``comparable_dict`` (goldens and digests do not see it)."""
    spec = registry.build(
        "gen:fat-tree", gen_seed=1, k=4, num_flows=400, duration=1.0,
        engine="fluid", target_utilization=1.5,
    )
    counts = {}
    for max_rounds in (1, FluidOptions().max_rounds):
        result = FluidSimulation(
            spec, spec.disciplines[0],
            FluidOptions(backend=backend, max_rounds=max_rounds),
        ).run().collect()
        payload = result.to_dict()
        counts[max_rounds] = payload["runtime"]["waterfill_exhausted"]
        assert "waterfill_exhausted" not in str(result.comparable_dict())
    assert counts[1] > 0
    assert counts[FluidOptions().max_rounds] == 0
