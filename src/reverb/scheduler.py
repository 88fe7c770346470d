"""Greedy value-of-information sensor scheduling and the one round pipeline.

The planner (``plan_selection``) decides AoL-REVERB's transmission set per
query interval: (1) service age-of-loop violations with the nearest sensor of
each stale feature, (2) while the variance targets still fail, pick the
feature with the worst variance-to-target ratio and add its lowest-noise
sensor not yet picked, recomputing the would-be posterior covariance after
each pick with ``estimator.rank1_update``, until the targets hold, the cap is
reached, or no candidate sensor remains. A sensor measures one feature, so
each feature's candidates are its own sensors and no other feature's pick
can take them: the planner walks one candidate queue per feature, with a
cursor, from which only that feature's own age pick is dropped, and takes
the argmax over the two features written out. It keeps the running
covariance as four floats and counts the room left under the cap, and it
returns each pick's flat rank-1 step, (g0, g1, c00, c01, c10, c11), as its
steps.

``run_round(select, fuse, belief, ...)`` is the round every radio scheme
runs, with the scheme's selector and fuse bound first. It predicts the prior
from the last belief (``estimator.predict``); the selector names the
sensors, reading the due features of the last interval's ages; their links
are sized and their readings transmitted; the fuse corrects the prior with
the readings that arrive; and the ages make the round's one transition
(``AolTracker.close_loop``). The loop's link table (``TwinLoop.links``)
holds, per sensor, its ``LinkBudget`` and the fade-free parts of its SNR
(``channel.link_terms``), solved the first time the sensor is selected, and,
per selection tuple, an entry of three parts: its fully delivered
``ScheduleResult``, its links' terms in pick order and its closing flags
(whether it holds a sensor of feature 0, of feature 1). A tuple selection is
its own key, and a fully delivered round hands the key on as its
deliveries. A round takes the normals for all observation noise
(``sensing.observe``), then those for all fades, from the loop's stream
(``loop.NormalStream``): the numbers, in the order, that per-link
``uplink_outcome`` calls on the stream's generator would draw.
``channel.meets_deadline`` forms each fade and tests each link from the
table's parts in one pass. Fusion (``fuse_delivered``) is one rank-1 update
per delivered reading, in selection order: while every pick so far has
arrived, update n is the planner's step n, so only the mean moves; from the
first lost pick on, ``rank1_update`` runs on the running covariance. A blind
round selects nothing and takes no normals.

The targets are a plain tuple of per-feature variance bounds, computed and
checked in Python floats by ``compute_targets``. The planner, the fusion and
the loop closing read each sensor's feature and noise from the fleet's
id-indexed tuples. ``ScheduleResult`` is a named tuple that stores the
round's PRB total once; only a round with a lost pick builds one.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import channel as ch
from . import estimator as est
from .aol import AolTracker
from .dynamics import MountainCar, Normals, State
from .errors import InputError
from .sensing import SensorFleet, observe


class ScheduleResult(NamedTuple):
    selected: tuple[int, ...]                  # sensor ids, selection order
    delivered: tuple[int, ...]                 # sensor ids whose uplink made the deadline
    total_prbs: int                            # sum of the selected links' PRBs, stored once

    @property
    def blind(self) -> bool:
        """No sensor was selected this interval."""
        return not self.selected


BLIND = ScheduleResult((), (), 0)  # nothing selected, delivered or spent


def compute_targets(required_var: Sequence[float], accuracy_request: Sequence[float]) -> tuple[float, ...]:
    """Per-feature variance bounds the twin must satisfy this interval.

    Per feature: min(required_var, 1/request); a zero request imposes nothing.
    One pass checks both: a request that is not nonnegative (NaN included)
    fails as it is met, and a bound that is not strictly positive (NaN
    included) fails once every request has been checked.
    """
    if len(accuracy_request) != len(required_var):
        raise InputError("one accuracy request per feature is required")
    bounds = []
    nonpositive = False
    for x, e in zip(required_var, accuracy_request):
        if e > 0.0:
            b = 1.0 / e
            if not b < x:
                b = x
        elif e == 0.0:
            b = x
        else:
            raise InputError("accuracy requests must be nonnegative")
        if not b > 0.0:
            nonpositive = True
        bounds.append(b)
    if nonpositive:
        raise InputError("variance bounds must be strictly positive")
    return tuple(bounds)


def plan_selection(
    prior_cov: est.Matrix2,
    targets: tuple[float, ...],
    violated: tuple[int, ...],
    fleet: SensorFleet,
    cap: int,
) -> tuple[list[int], list[est.Step]]:
    """Decide the transmission set; returns (picks, steps): sensor ids in order, and their rank-1 updates.

    Step i is ``estimator.rank1_update``'s flat step for pick i, from the
    covariance after the picks before it: the covariance used inside the
    loop assumes every pick is delivered, and the planned covariance is the
    last step's (the prior's when nothing is picked). Real outages are
    applied afterwards to the stored belief only. Candidates come from the
    fleet's cached per-feature orders: nearest first for stale features,
    quietest first for the value-of-information picks. Each sensor measures
    one feature and the age phase visits each stale feature once, so no
    feature's pick can take another feature's candidate: a stale feature's
    nearest sensor is always free, and each feature's value-of-information
    queue is its quietest-first order less its own age-phase pick.
    """
    b0, b1 = targets
    (c00, c01), (c10, c11) = prior_cov
    noise_vars = fleet.noise_vars
    rank1 = est.rank1_update
    selected: list[int] = []
    steps: list[est.Step] = []
    room = cap
    q0, q1 = fleet.quietest_first[0], fleet.quietest_first[1]

    for k in sorted(violated):
        if room <= 0:
            break
        if fleet.nearest_first[k]:
            i = fleet.nearest_first[k][0]
            step = rank1(c00, c01, c10, c11, k, noise_vars[i])
            selected.append(i)
            steps.append(step)
            _, _, c00, c01, c10, c11 = step
            room -= 1
            # The age pick leaves its own feature's queue; no other queue holds it.
            if k == 0:
                q0 = [j for j in q0 if j != i]
            else:
                q1 = [j for j in q1 if j != i]

    n0, n1 = len(q0), len(q1)
    c0 = c1 = 0
    while room > 0 and (c00 > b0 or c11 > b1):
        # The coverable feature with the largest variance-to-target ratio;
        # strict, so ties keep feature 0.
        if c1 < n1 and (c0 >= n0 or c11 / b1 > c00 / b0):
            k, i = 1, q1[c1]
            c1 += 1
        elif c0 < n0:
            k, i = 0, q0[c0]
            c0 += 1
        else:
            break
        step = rank1(c00, c01, c10, c11, k, noise_vars[i])
        selected.append(i)
        steps.append(step)
        _, _, c00, c01, c10, c11 = step
        room -= 1

    return selected, steps


def size_and_transmit(
    selected: Sequence[int],
    fleet: SensorFleet,
    params: ch.ChannelParams,
    links: dict,
    true_state: State,
    normals: Normals,
) -> tuple[ScheduleResult, tuple[bool, bool], list[float], Sequence[int]]:
    """Size every selected link, read the sensors, realize the uplinks.

    Returns (result, closes, values, delivered agent ids): the round's
    ``ScheduleResult``, its closing flags, the selected sensors'
    observations in selection order, and the ids whose uplink made the
    deadline, in selection order. All observation noise is one take of
    ``normals`` (``sensing.observe``), then all fades one take of two normals
    per link (real, imaginary part): the numbers, in the order, that
    ``channel.uplink_outcome`` per link draws from the stream's generator.
    ``channel.meets_deadline`` forms each fade and tests each deadline with
    ``uplink_outcome``'s own float expressions, so deliveries equal theirs
    bit for bit.

    ``links`` is the loop's link table on ``params``, with two kinds of
    entry. A sensor id maps to its (``LinkBudget``, ``channel.link_terms``),
    solved and added the first time the sensor is selected, so a sensor that
    is never selected is never sized, even when its link is infeasible. A
    selection tuple maps to its three-part entry (see the module text), built
    from the sensor entries the first time the selection is made and never
    checked, split or summed again. A tuple ``selected`` is its own key. A
    fully delivered round returns the entry's result and flags, and the key
    as its deliveries, a round with a lost pick new ones; an empty selection
    returns ``BLIND`` at once, adds no entry and takes no normals.
    """
    if not selected:
        return BLIND, (False, False), [], []
    key = selected if selected.__class__ is tuple else tuple(selected)
    entry = links.get(key)
    features = fleet.features
    if entry is None:
        for i in key:
            if i not in links:
                agent = fleet.agents[i]
                budget = ch.optimal_bandwidth(params, agent.tx_power_w, agent.distance_m, agent_id=i)
                links[i] = budget, ch.link_terms(params, budget)
        picked = {features[i] for i in key}
        full = ScheduleResult(key, key, sum([links[i][0].prbs for i in key]))
        entry = links[key] = full, [links[i][1] for i in key], (0 in picked, 1 in picked)
    full, terms, closes = entry
    values = observe(fleet, key, true_state, normals)
    met = ch.meets_deadline(params, terms, normals(2 * len(terms)))
    if False not in met:
        return full, closes, values, key
    delivered = [i for i, ok in zip(key, met) if ok]
    c0 = c1 = False
    for i in delivered:
        if features[i] == 0:
            c0 = True
        else:
            c1 = True
    return ScheduleResult(full.selected, tuple(delivered), full.total_prbs), (c0, c1), values, delivered


def fuse_delivered(
    prior: est.Belief,
    selected: Sequence[int],
    delivered: Sequence[int],
    values: list[float],
    fleet: SensorFleet,
    steps: Sequence[est.Step] = (),
) -> est.Belief:
    """Kalman-update the prior with the observations that actually arrived.

    Each delivered reading y of feature k is one rank-1 update, applied in
    selection order: the mean moves by K (y - m_k) and the covariance is
    ``estimator.rank1_update``'s. ``steps`` are the planner's rank-1 updates
    of ``selected``, from the same prior and in the same order: while every
    pick so far has arrived, step n is this fusion's update n, so it is
    reused; from the first lost pick on, each update is computed from the
    running covariance. When every pick was planned and arrived, the steps
    are applied in one pass with no per-pick test. With nothing delivered
    the posterior is a new belief holding the prior's numbers.
    """
    features, noise_vars = fleet.features, fleet.noise_vars
    (m0, m1), ((c00, c01), (c10, c11)) = prior.mean, prior.cov
    if len(delivered) == len(selected) == len(steps):
        # Fully planned and fully delivered: update n is step n, every one.
        for i, y, (g0, g1, c00, c01, c10, c11) in zip(selected, values, steps):
            innovation = y - (m0 if features[i] == 0 else m1)
            m0, m1 = m0 + g0 * innovation, m1 + g1 * innovation
        return est.Belief((m0, m1), ((c00, c01), (c10, c11)))
    arrived = set(delivered) if len(delivered) < len(selected) else None
    planned = len(steps)
    for n, (i, y) in enumerate(zip(selected, values)):
        if arrived is not None and i not in arrived:
            planned = min(planned, n)
            continue
        k = features[i]
        g0, g1, c00, c01, c10, c11 = (
            steps[n] if n < planned else est.rank1_update(c00, c01, c10, c11, k, noise_vars[i])
        )
        innovation = y - (m0 if k == 0 else m1)
        m0, m1 = m0 + g0 * innovation, m1 + g1 * innovation
    return est.Belief((m0, m1), ((c00, c01), (c10, c11)))


def run_round(
    select,
    fuse,
    belief: est.Belief,
    force: float,
    plant: MountainCar,
    targets: tuple[float, ...],
    aol: AolTracker,
    fleet: SensorFleet,
    params: ch.ChannelParams,
    links: dict,
    cap: int,
    true_state: State,
    normals: Normals,
) -> tuple[ScheduleResult, est.Belief, AolTracker]:
    """One round of a radio scheme: predict, select, size and transmit, fuse what arrived, one age transition.

    The prior is ``estimator.predict`` of ``belief`` under ``force`` and
    ``plant``. ``select(prior, targets, aol, fleet, cap)`` returns (picks,
    steps): the sensor ids in order, a list or a tuple, and the planner's
    rank-1 updates of the picks (see ``plan_selection``) or empty; it reads
    the due features of ``aol``, the last interval's tracker. ``fuse`` has
    the signature of ``fuse_delivered``; ``links`` is the loop's link table
    on ``params``, and the result and the closing flags come from it (see
    ``size_and_transmit``); ``normals`` is the loop's stream
    (``dynamics.Normals``).
    """
    prior = est.predict(belief, force, plant)
    selected, steps = select(prior, targets, aol, fleet, cap)
    result, closes, values, delivered = size_and_transmit(selected, fleet, params, links, true_state, normals)
    return result, fuse(prior, selected, delivered, values, fleet, steps), aol.close_loop(closes)
