"""Crowd-sensed whitespace detection for an unlicensed GSM band.

Handsets already measure neighbor channels; the base station advertises
six fake neighbors per scan plan and every SMS a phone sends carries its
energy readings for those channels.  The detector folds in one SMS per
call, as a mapping {arfcn: energy} taken at the SMS's time, and
classifies each ARFCN:

* one positive (non-zero energy) report marks a channel occupied on the
  spot;
* free requires a long run of zero-energy reports (n_free of them) over
  at least t_free seconds with no positive in between;
* evidence goes stale after evidence_ttl seconds and the channel drops
  back to unknown.

The scan plan keeps unknown channels advertised until they classify,
refilling vacant slots with the least-recently-scanned unknowns (walking
the band from arfcn 1 upward on a cold start) and, once the band is
mapped, cycling the stalest free channels for re-verification.  The
serving channel is never advertised as a fake neighbor but its own
measurements are always accepted.

The station starts quiesced (serving=None) and only transmits after a
channel has been verified free.  When its serving channel turns occupied
it moves to the stalest verified-free channel, or quiesces again when
there is none.

On a field with no interferer every reading is 0, so until some verdict
changes an SMS only adds one zero to each measured channel and moves its
last report time.  run_detection therefore folds such a run of SMS into
one step (Detector.fold_silent), and stops just before the first SMS
that could change a verdict: one that brings a measured channel not yet
free to both n_free zeros and t_free seconds of window, or one after a
gap longer than evidence_ttl.  Once fewer unknowns than slots remain,
the plan also rotates the stalest free channels after every SMS; the
fold replays that rotation on a heap of the free channels, and also
stops before an SMS more than evidence_ttl after the evidence floor,
where the plan's sweep for stale evidence could run.  The SMS it stops
at goes through ingest_report as before, so the detector ends in the
state the per-SMS loop leaves, field by field.

detection_study runs the whole study of one loaded ``whitespace``
scenario section: interferers, phones, organic and volunteer traffic,
and one detector fed by them.

The NGSM baseline in compare_ngsm runs the identical estimator fed only
by organic traffic; the volunteer strategy adds paid periodic senders on
top of the same organic trace.  It takes the traffic periods of a loaded
``whitespace`` section and keeps its own fixed estimator.  One call
draws that trace and classifies the baseline once for all the volunteer
ratios it is given.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass
from enum import Enum

from .errors import NoFreeChannel, UnplannedChannel


class Verdict(str, Enum):
    UNKNOWN = "unknown"
    FREE = "free"
    OCCUPIED = "occupied"


# The fake neighbours a scan plan advertises.
SLOTS = 6
# The most a phone moves along each axis of the unit square per SMS.
WALK_STEP = 0.05


@dataclass
class DetectorConfig:
    first_arfcn: int
    last_arfcn: int
    n_free: int
    t_free_s: float
    evidence_ttl_s: float


@dataclass(slots=True)
class ChannelState:
    arfcn: int
    verdict: Verdict = Verdict.UNKNOWN
    zero_count: int = 0
    window_start: float | None = None
    last_report_at: float | None = None
    last_planned_at: float | None = None
    t_verdict: float | None = None


class Detector:
    """Per-base-station channel estimator, scan planner and serving
    channel picker.

    The channels holding each verdict, and a lower bound on the time of
    the reports behind the verdicts, are kept as verdicts change.  So
    counting the unknowns and deciding whether the plan is current cost
    no scan of the band, and each pick scans only the verdict set it
    picks from: the unknowns for the plan's fill, the free channels for
    re-verification and for the serving channel.  Each channel's reports
    must come in time order.
    """

    def __init__(self, config: DetectorConfig):
        self.config = config
        c = config
        self.states: dict[int, ChannelState] = {
            a: ChannelState(arfcn=a) for a in range(c.first_arfcn, c.last_arfcn + 1)
        }
        self.plan: tuple[int, ...] = ()
        self.plan_dirty = True
        # The channels holding each verdict.
        self._holding: dict[Verdict, set[int]] = {v: set() for v in Verdict}
        self._holding[Verdict.UNKNOWN].update(self.states)
        # No channel with a verdict has last_report_at below this bound.
        self._evidence_floor = math.inf
        self.serving: int | None = None
        self.switches: list[tuple[float, int | None, int | None]] = []
        self.dropped_unplanned = 0

    # ---------------------------------------------------------- evidence

    def _set_verdict(self, state: ChannelState, verdict: Verdict) -> None:
        """The one way a verdict changes: keeps the per-verdict channel
        sets and marks the plan for review."""
        self._holding[state.verdict].remove(state.arfcn)
        self._holding[verdict].add(state.arfcn)
        state.verdict = verdict
        self.plan_dirty = True

    def _expire(self, state: ChannelState, now: float) -> None:
        ttl = self.config.evidence_ttl_s
        if state.verdict is Verdict.UNKNOWN or state.last_report_at is None:
            return
        if now - state.last_report_at > ttl:
            self._set_verdict(state, Verdict.UNKNOWN)
            state.zero_count = 0
            state.window_start = None
            state.t_verdict = None

    def ingest_report(self, readings: dict[int, int], at: float) -> None:
        """Fold in one SMS: ``readings`` maps each channel the phone
        measured, in measurement order, to the energy it read there, all
        at time ``at``.  Every reading is checked before any is folded: a
        channel outside the scan plan (other than the serving channel)
        drops the whole SMS, is counted and raises UnplannedChannel."""
        states = self.states
        for arfcn in readings:
            if arfcn not in states or (arfcn not in self.plan and arfcn != self.serving):
                self.dropped_unplanned += 1
                raise UnplannedChannel(f"arfcn {arfcn} is not being scanned")
        if readings and at < self._evidence_floor:
            self._evidence_floor = at
        c = self.config
        ttl, n_free, t_free_s = c.evidence_ttl_s, c.n_free, c.t_free_s
        unknown, free = Verdict.UNKNOWN, Verdict.FREE
        for arfcn, energy in readings.items():
            state = states[arfcn]
            last = state.last_report_at
            if (
                last is not None
                and state.verdict is not unknown
                and at - last > ttl
            ):
                self._expire(state, at)
            state.last_report_at = at
            if energy > 0:
                state.zero_count = 0
                state.window_start = None
                if state.verdict is not Verdict.OCCUPIED:
                    self._set_verdict(state, Verdict.OCCUPIED)
                    state.t_verdict = at
            else:
                state.zero_count += 1
                if state.window_start is None:
                    state.window_start = at
                if (
                    state.verdict is not free
                    and state.zero_count >= n_free
                    and at - state.window_start >= t_free_s
                ):
                    self._set_verdict(state, free)
                    state.t_verdict = at

    def fold_silent(self, traffic: list[tuple[float, int]], start: int) -> int:
        """Fold in the longest run of SMS from ``traffic[start]`` on that
        changes no verdict, each reading 0 on every measured channel (the
        plan plus the serving channel), with plan_scan run after each SMS
        while the plan rotates free channels; return how many were folded.

        Until a verdict changes, such an SMS only adds one zero and moves
        last_report_at on every measured channel.  On a current plan the
        measured channels stay, so a run of m of them is folded as
        ``zero_count += m`` and the last SMS's time.  On a plan that
        rotates free channels, plan_scan would keep the plan's unknowns
        and refill the other slots with the stalest free channels after
        every SMS; the fold replays that rotation on one heap of the free
        channels instead, giving each rotated channel its zeros, report
        time and last_planned_at, and leaves the last plan in place.  It
        folds nothing there unless the plan holds every unknown but the
        serving channel, so that plan_scan would plan no other.  The run
        ends just before the first SMS that could change a verdict:

        * a measured channel not yet free reaching both n_free zeros and
          ``at - window_start >= t_free_s`` (the very test ingest_report
          makes, found by bisection, as times never fall);
        * a gap of more than evidence_ttl_s since the previous SMS, or,
          at the first SMS, since a verdict's own last report;
        * while rotating, an SMS more than evidence_ttl_s after the
          evidence floor, after which plan_scan could sweep the band.
          Short of it no report behind a verdict can expire.

        Nothing is folded while a measured channel has no zero window.
        ``traffic`` must be in time order.
        """
        config, states = self.config, self.states
        end = len(traffic)
        if start >= end:
            return 0
        first, ttl = traffic[start][0], config.evidence_ttl_s
        rotating = self.plan_dirty
        if rotating:
            unknown, serving = self._holding[Verdict.UNKNOWN], self.serving
            keep = [a for a in self.plan if a in unknown and a != serving]
            free = self._holding[Verdict.FREE]
            rotated = min(SLOTS - len(keep), len(free) - (serving in free))
            if rotated <= 0 or len(keep) + (serving in unknown) < len(unknown):
                return 0
        channels = [states[a] for a in self.measured()]
        for state in channels:
            window_start = state.window_start
            if window_start is None:
                return 0
            if (
                state.verdict is not Verdict.UNKNOWN
                and first - state.last_report_at > ttl
            ):
                return 0
            if state.verdict is not Verdict.FREE:
                counted = start + max(0, config.n_free - state.zero_count - 1)
                end = bisect.bisect_left(
                    traffic, config.t_free_s, min(counted, end), end,
                    key=lambda e: e[0] - window_start,
                )
        # The evidence floor once the first SMS is in.
        floor = min(self._evidence_floor, first) if channels else self._evidence_floor
        if rotating:
            end = bisect.bisect_right(
                traffic, ttl, start, end, key=lambda e: e[0] - floor
            )
        if end > start and traffic[end - 1][0] - first > ttl:
            # Some gap in the run outlives the evidence: stop before it.
            for k in range(start + 1, end):
                if traffic[k][0] - traffic[k - 1][0] > ttl:
                    end = k
                    break
        folded = end - start
        if not folded or not channels:
            return folded
        self._evidence_floor = floor
        last = traffic[end - 1][0]
        if not rotating:
            for state in channels:
                state.zero_count += folded
                state.last_report_at = last
            return folded
        # The first SMS measures the plan as it stands; every SMS measures
        # the kept unknowns and the serving channel.
        for state in channels:
            state.zero_count += 1
            state.last_report_at = first
        steady = keep if serving is None else keep + [serving]
        for a in steady:
            state = states[a]
            state.zero_count += folded - 1
            state.last_report_at = last
        # Each SMS reports the free channels the previous plan rotated in,
        # then plan_scan rotates in the stalest ones, as _stalest_free
        # picks them.  The heap's entries are the channels' own times.
        # One heap for the whole run, not a scan of the free set per SMS
        # as _stalest_free makes: with the scan here, the whitespace_band
        # benchmark's run_s was 37-53% higher in three paired runs.
        heap = [(states[a].last_report_at, a) for a in free if a != serving]
        heapq.heapify(heap)
        planned, picked = self.plan, []
        for k in range(start, end):
            at = traffic[k][0]
            for a in picked:
                state = states[a]
                state.zero_count += 1
                state.last_report_at = at
                heapq.heappush(heap, (at, a))
            picked = [heapq.heappop(heap)[1] for _ in range(rotated)]
            for a in picked:
                if a not in planned:
                    states[a].last_planned_at = at
            planned = picked
        self.plan = tuple(keep + picked)
        return folded

    def measured(self) -> tuple[int, ...]:
        """The channels an SMS measures: the plan, then the serving
        channel when it is not in the plan."""
        if self.serving is None or self.serving in self.plan:
            return self.plan
        return self.plan + (self.serving,)

    def unknown_count(self) -> int:
        return len(self._holding[Verdict.UNKNOWN])

    # ------------------------------------------------------ scan planning

    def plan_scan(self, now: float) -> tuple[int, ...]:
        """Recompute the advertised fake neighbors at a batch boundary.

        Unknown channels already advertised stay until classified; vacant
        slots take the least-recently-planned unknowns, then the stalest
        free channels as re-verification candidates.  Never the serving
        channel, never an occupied one.  The band is swept for stale
        evidence only when the oldest report behind a verdict may have
        outlived evidence_ttl.
        """
        if now - self._evidence_floor > self.config.evidence_ttl_s:
            floor = math.inf
            for state in self.states.values():
                self._expire(state, now)
                if state.verdict is not Verdict.UNKNOWN:
                    floor = min(floor, state.last_report_at)
            self._evidence_floor = floor
        keep = [
            a
            for a in self.plan
            if self.states[a].verdict is Verdict.UNKNOWN and a != self.serving
        ]
        vacancies = SLOTS - len(keep)
        chosen = list(keep)
        # (key, arfcn) pairs: the arfcn breaks ties, so no two compare equal.
        states = self.states
        if vacancies > 0:
            fresh = heapq.nsmallest(
                vacancies,
                [
                    (-1.0 if (t := states[a].last_planned_at) is None else t, a)
                    for a in self._holding[Verdict.UNKNOWN]
                    if a not in chosen and a != self.serving
                ],
            )
            chosen.extend(a for _, a in fresh)
            vacancies = SLOTS - len(chosen)
        if vacancies > 0:
            # chosen holds only unknowns so far.
            chosen.extend(self._stalest_free(vacancies))
        for arfcn in chosen:
            if arfcn not in self.plan:
                self.states[arfcn].last_planned_at = now
        self.plan = tuple(chosen)
        # A plan that rotates verified channels is rebuilt every batch;
        # on a silent field fold_silent replays runs of those rebuilds.
        self.plan_dirty = any(
            self.states[a].verdict is not Verdict.UNKNOWN for a in chosen
        )
        return self.plan

    def plan_is_current(self) -> bool:
        """False once a verdict change (or expiry) may alter the plan, and
        whenever free channels are being rotated for re-verification."""
        return not self.plan_dirty

    # --------------------------------------------------- serving channel

    def maybe_switch_channel(self, now: float) -> None:
        """Move off an occupied serving channel (or claim a first one),
        to the stalest verified-free channel.  When nothing is verified
        free the station quiesces and NoFreeChannel is raised."""
        serving_bad = (
            self.serving is not None
            and self.states[self.serving].verdict is Verdict.OCCUPIED
        )
        if not serving_bad and self.serving is not None:
            return
        stalest = self._stalest_free(1)
        if not stalest:
            if serving_bad:
                old = self.serving
                self.serving = None
                self.switches.append((now, old, None))
                raise NoFreeChannel(f"no verified-free channel at t={now:.0f}")
            return
        old = self.serving
        self.serving = stalest[0]
        self.switches.append((now, old, stalest[0]))

    def _stalest_free(self, count: int) -> list[int]:
        """Up to ``count`` free channels other than the serving one,
        stalest report first, lower arfcn first on ties.  Every free
        channel has been reported, so its last_report_at is a time."""
        states = self.states
        keyed = [
            (states[a].last_report_at, a)
            for a in self._holding[Verdict.FREE]
            if a != self.serving
        ]
        return [a for _, a in heapq.nsmallest(count, keyed)]

    # ----------------------------------------------------------- export

    def occupancy_rows(self) -> list[tuple[int, str, float | None]]:
        return [
            (s.arfcn, s.verdict.value, s.t_verdict)
            for s in sorted(self.states.values(), key=lambda s: s.arfcn)
        ]


# ----------------------------------------------------------- radio world


@dataclass
class Phone:
    x: float
    y: float


class RadioField:
    """Unit-square world: one stationary interferer per truth-occupied
    channel; a phone hears its energy only inside the radius."""

    def __init__(
        self,
        interferers: dict[int, tuple[float, float]],
        radius: float = 0.25,
    ):
        self.interferers = dict(interferers)
        self.radius = radius

    def walk(self, phone: Phone, rng: random.Random) -> None:
        phone.x = min(1.0, max(0.0, phone.x + rng.uniform(-WALK_STEP, WALK_STEP)))
        phone.y = min(1.0, max(0.0, phone.y + rng.uniform(-WALK_STEP, WALK_STEP)))

    def measure(self, phone: Phone, arfcns) -> dict[int, int]:
        """One SMS worth of readings, ``{arfcn: energy}`` in the order of
        ``arfcns``; a channel with no interferer reads 0 wherever the
        phone is."""
        readings = dict.fromkeys(arfcns, 0)
        for a in self.interferers.keys() & readings.keys():
            readings[a] = self.energy(phone, a)
        return readings

    def energy(self, phone: Phone, arfcn: int) -> int:
        spot = self.interferers.get(arfcn)
        if spot is None:
            return 0
        d = math.hypot(phone.x - spot[0], phone.y - spot[1])
        if d > self.radius:
            return 0
        return max(1, int(round(60.0 * (1.0 - d / self.radius))))

    @classmethod
    def place(cls, occupied: list[int], rng: random.Random, **kw) -> "RadioField":
        spots = {a: (rng.random(), rng.random()) for a in sorted(occupied)}
        return cls(spots, **kw)


def make_phones(count: int, rng: random.Random) -> list[Phone]:
    return [Phone(rng.random(), rng.random()) for _ in range(count)]


def volunteer_traffic(
    volunteers: int, period_s: float, until_s: float
) -> list[tuple[float, int]]:
    """Deterministic paid-sender schedule: each volunteer one SMS per
    period, staggered evenly.  Returns (at, volunteer_index) sorted."""
    if volunteers <= 0:
        return []
    out = []
    for v in range(volunteers):
        t = period_s * v / volunteers
        while t <= until_s:
            out.append((t, v))
            t += period_s
    out.sort()
    return out


def organic_traffic(
    users: int, mean_period_s: float, count: int, rng: random.Random
) -> list[tuple[float, int]]:
    """Merged Poisson SMS arrivals for ``users`` phones, ``count`` events."""
    heap = []
    for u in range(users):
        heapq.heappush(heap, (rng.expovariate(1.0 / mean_period_s), u))
    out = []
    # Each user has one entry, so no two entries tie and replacing the
    # head pops in the order a pop and a push would.
    while len(out) < count:
        at, u = heap[0]
        out.append((at, u))
        heapq.heapreplace(heap, (at + rng.expovariate(1.0 / mean_period_s), u))
    return out


def with_volunteers(
    organic: list[tuple[float, int]],
    users: int,
    volunteers: int,
    period_s: float,
    until_s: float,
) -> list[tuple[float, int]]:
    """The organic trace of ``users`` phones plus the volunteer schedule
    up to until_s, volunteer v sending as phone users + v, in time order."""
    extra = volunteer_traffic(volunteers, period_s, until_s)
    return sorted(organic + [(at, users + v) for at, v in extra])


@dataclass
class DetectionRun:
    converged_at: float | None
    batches: int
    collisions: int = 0


def run_detection(
    traffic: list[tuple[float, int]],
    detector: Detector,
    field_model: RadioField,
    phones: list[Phone],
    rng: random.Random,
    *,
    truth_occupied: set[int] | None = None,
    manage_serving: bool = True,
) -> DetectionRun:
    """Drive a detector with SMS-borne measurement batches.

    Each traffic event, in time order, is one SMS from one phone: the
    phone takes a step, measures the advertised channels (plus the
    serving channel) and the batch is folded in by one ``ingest_report``
    call; plans and serving choice update at batch boundaries.  Stops
    when the band is fully classified or the traffic runs out.

    ``rng`` feeds only the phones' walk.  On a field with no interferer
    every reading is 0 wherever a phone stands, so nobody walks: the
    phones and ``rng`` are left untouched.  There, after every SMS,
    ``Detector.fold_silent`` folds in at once the SMS up to the next one
    that could change a verdict, rotating free channels through the plan
    as ``plan_scan`` would when the plan holds some.  Until then no
    unknown joins the plan, the serving channel stays and nothing
    converges, so each folded SMS would only have counted one batch, and
    one collision if the serving channel is truth-occupied.  The SMS
    that can change a verdict goes through ``ingest_report`` as before,
    so the detector ends in the same state.
    """
    run = DetectionRun(converged_at=None, batches=0)
    detector.plan_scan(traffic[0][0] if traffic else 0.0)
    walking = bool(field_model.interferers)
    i = 0
    while i < len(traffic):
        at, phone_idx = traffic[i]
        i += 1
        phone = phones[phone_idx % len(phones)]
        if walking:
            field_model.walk(phone, rng)
        detector.ingest_report(field_model.measure(phone, detector.measured()), at)
        run.batches += 1
        if not detector.plan_is_current():
            detector.plan_scan(at)
        if manage_serving:
            try:
                detector.maybe_switch_channel(at)
            except NoFreeChannel:
                pass
        collides = truth_occupied is not None and detector.serving in truth_occupied
        if collides:
            run.collisions += 1
        if run.converged_at is None and detector.unknown_count() == 0:
            run.converged_at = at
            break
        if not walking:
            folded = detector.fold_silent(traffic, i)
            run.batches += folded
            if collides:
                run.collisions += folded
            i += folded
    return run


def detection_budget(cfg: dict) -> tuple[int, float]:
    """The traffic detection_study budgets for a loaded ``whitespace``
    section with at least one reporter: twice the batches every scan-plan
    group needs, plus 400.  Returns (the organic SMS it draws, 0 without
    users; the volunteers' horizon when there is no organic SMS)."""
    first, last = cfg["band"]["first"], cfg["band"]["last"]
    organic_rate = cfg["users"] / cfg["organic_period_s"]
    rate = organic_rate + cfg["volunteers"] / cfg["volunteer_period_s"]
    groups = math.ceil((last - first + 1) / SLOTS)
    batches = groups * (cfg["n_free"] + cfg["t_free_s"] * rate) * 2 + 400
    count = int(batches * organic_rate / rate) + 50 if cfg["users"] else 0
    return count, batches / rate


def detection_study(cfg: dict, seed: int) -> tuple[Detector, DetectionRun]:
    """The detection study of one loaded ``whitespace`` scenario section:
    the detector, holding the verdicts and switches, and its run.  With
    no reporter nothing is drawn or run.  random.Random(seed) places the
    interferers, then the phones, then draws the organic trace (see
    detection_budget); random.Random(seed + 1) walks the phones.  The
    volunteers send up to the last organic SMS."""
    first, last = cfg["band"]["first"], cfg["band"]["last"]
    config = DetectorConfig(
        first_arfcn=first, last_arfcn=last, n_free=cfg["n_free"],
        t_free_s=cfg["t_free_s"], evidence_ttl_s=cfg["evidence_ttl_s"],
    )
    detector = Detector(config)
    users, volunteers = cfg["users"], cfg["volunteers"]
    if users + volunteers == 0:
        return detector, DetectionRun(converged_at=None, batches=0)
    truth = [a for a in cfg["truth_occupied"] if first <= a <= last]
    rng = random.Random(seed)
    field_model = RadioField.place(truth, rng, radius=cfg["radius"])
    phones = make_phones(users + volunteers, rng)
    count, idle_horizon = detection_budget(cfg)
    organic = organic_traffic(users, cfg["organic_period_s"], count, rng)
    horizon = organic[-1][0] if organic else idle_horizon
    traffic = with_volunteers(
        organic, users, volunteers, cfg["volunteer_period_s"], horizon
    )
    # Called through this module's global, which perfbench/tracing.py wraps.
    run = run_detection(
        traffic, detector, field_model, phones, random.Random(seed + 1),
        truth_occupied=set(truth),
    )
    return detector, run


def ngsm_config(users: int) -> DetectorConfig:
    """compare_ngsm's fixed estimator for ``users`` phones."""
    return DetectorConfig(
        first_arfcn=1, last_arfcn=users, n_free=50, t_free_s=600.0,
        evidence_ttl_s=86400.0,
    )


def ngsm_budget(users: int, organic_period_s: float) -> int:
    """The organic SMS compare_ngsm draws for ``users`` phones: each
    scan-plan group needs n_free zero batches and t_free of elapsed
    window; budget events for whichever dominates, with slack."""
    config = ngsm_config(users)
    groups = math.ceil(users / SLOTS)
    per_group = config.n_free + math.ceil(config.t_free_s * users / organic_period_s)
    return groups * (per_group + 10) + 400


def compare_ngsm(
    cfg: dict, users: int, volunteer_ratios: list[float], seed: int
) -> tuple[float, list[float]]:
    """Time to classify the whole band: organic-only baseline vs the same
    organic trace plus paid volunteers, at each ratio of volunteers to
    users.  Returns seconds (ngsm, [volunteer time for each ratio]); a
    ratio that rounds to no volunteer gets the baseline's time.  The
    traffic periods are a loaded ``whitespace`` section's
    ``organic_period_s`` and ``volunteer_period_s``.

    The organic trace is drawn, and the baseline classified, once.  The
    bench band is truth-free everywhere, which makes classification
    purely evidence-count driven: identical organic traces guarantee the
    volunteer strategy can only be earlier.  The estimator is fixed, not
    the section's: the band has one channel per user, 1..users (one
    handset per household, band sized to the community), and a channel
    turns free after 50 zeros over 600 s; evidence lives a day.
    """
    organic_period_s = cfg["organic_period_s"]
    volunteer_period_s = cfg["volunteer_period_s"]
    config = ngsm_config(users)
    need = ngsm_budget(users, organic_period_s)
    organic = organic_traffic(users, organic_period_s, need, random.Random(seed))

    def classify(trace: list[tuple[float, int]], senders: int) -> float:
        run = run_detection(
            trace,
            Detector(config),
            RadioField({}),
            make_phones(senders, random.Random(seed + 1)),
            random.Random(seed + 2),
            manage_serving=False,
        )
        if run.converged_at is None:
            return float("inf")
        return run.converged_at

    t_ngsm = classify(organic, users)
    until_s = organic[-1][0]
    t_vols = []
    for ratio in volunteer_ratios:
        volunteers = round(ratio * users)
        if volunteers == 0:
            t_vols.append(t_ngsm)
            continue
        # Passed straight in, so one ratio's merged trace is freed before
        # the next one is built.
        t_vols.append(
            classify(
                with_volunteers(
                    organic, users, volunteers, volunteer_period_s, until_s
                ),
                users + volunteers,
            )
        )
    return t_ngsm, t_vols
