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

The NGSM baseline in compare_ngsm runs the identical estimator fed only
by organic traffic; the volunteer strategy adds paid periodic senders on
top of the same organic trace.  One call draws that trace and classifies
the baseline once for all the volunteer ratios it is given.
"""

from __future__ import annotations

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


@dataclass
class DetectorConfig:
    first_arfcn: int = 1
    last_arfcn: int = 124
    slots: int = 6
    n_free: int = 500
    t_free_s: float = 1800.0
    evidence_ttl_s: float = 86400.0


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
    no scan of the band, and the picks look only at the channels they
    can pick.
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
        slots = self.config.slots
        vacancies = slots - len(keep)
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
            vacancies = slots - len(chosen)
        if vacancies > 0:
            stale_free = heapq.nsmallest(
                vacancies,
                [
                    (-1.0 if (t := states[a].last_report_at) is None else t, a)
                    for a in self._holding[Verdict.FREE]
                    if a not in chosen and a != self.serving
                ],
            )
            chosen.extend(a for _, a in stale_free)
        for arfcn in chosen:
            if arfcn not in self.plan:
                self.states[arfcn].last_planned_at = now
        self.plan = tuple(chosen)
        # A plan that rotates verified channels is rebuilt every batch.
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
        stalest = min(
            (
                self.states[a]
                for a in self._holding[Verdict.FREE]
                if a != self.serving
            ),
            key=lambda s: (
                s.last_report_at if s.last_report_at is not None else -1.0,
                s.arfcn,
            ),
            default=None,
        )
        if stalest is None:
            if serving_bad:
                old = self.serving
                self.serving = None
                self.switches.append((now, old, None))
                raise NoFreeChannel(f"no verified-free channel at t={now:.0f}")
            return
        old = self.serving
        self.serving = stalest.arfcn
        self.switches.append((now, old, stalest.arfcn))

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
        step: float = 0.05,
    ):
        self.interferers = dict(interferers)
        self.radius = radius
        self.step = step

    def walk(self, phone: Phone, rng: random.Random) -> None:
        phone.x = min(1.0, max(0.0, phone.x + rng.uniform(-self.step, self.step)))
        phone.y = min(1.0, max(0.0, phone.y + rng.uniform(-self.step, self.step)))

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
    while len(out) < count:
        at, u = heapq.heappop(heap)
        out.append((at, u))
        heapq.heappush(heap, (at + rng.expovariate(1.0 / mean_period_s), u))
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

    Each traffic event is one SMS from one phone: the phone takes a step,
    measures the advertised channels (plus the serving channel) and the
    batch is folded in by one ``ingest_report`` call; plans and serving
    choice update at batch boundaries.  Stops when the band is fully
    classified or the traffic runs out.

    ``rng`` feeds only the phones' walk.  On a field with no interferer
    every reading is 0 wherever a phone stands, so nobody walks: the
    phones and ``rng`` are left untouched.
    """
    run = DetectionRun(converged_at=None, batches=0)
    detector.plan_scan(traffic[0][0] if traffic else 0.0)
    walking = bool(field_model.interferers)
    for at, phone_idx in traffic:
        phone = phones[phone_idx % len(phones)]
        if walking:
            field_model.walk(phone, rng)
        measured = detector.plan
        if detector.serving is not None and detector.serving not in measured:
            measured += (detector.serving,)
        detector.ingest_report(field_model.measure(phone, measured), at)
        run.batches += 1
        if not detector.plan_is_current():
            detector.plan_scan(at)
        if manage_serving:
            try:
                detector.maybe_switch_channel(at)
            except NoFreeChannel:
                pass
        if truth_occupied is not None and detector.serving in truth_occupied:
            run.collisions += 1
        if run.converged_at is None and detector.unknown_count() == 0:
            run.converged_at = at
            break
    return run


def compare_ngsm(
    users: int,
    volunteer_ratios: list[float],
    *,
    seed: int = 0,
    organic_period_s: float = 300.0,
    volunteer_period_s: float = 60.0,
) -> tuple[float, list[float]]:
    """Time to classify the whole band: organic-only baseline vs the same
    organic trace plus paid volunteers, at each ratio of volunteers to
    users.  Returns seconds (ngsm, [volunteer time for each ratio]); a
    ratio that rounds to no volunteer gets the baseline's time.

    The organic trace is drawn, and the baseline classified, once.  The
    bench band is truth-free everywhere, which makes classification
    purely evidence-count driven: identical organic traces guarantee the
    volunteer strategy can only be earlier.  The band has one channel per
    user, 1..users (one handset per household, band sized to the
    community).
    """
    config = DetectorConfig(
        first_arfcn=1, last_arfcn=users, n_free=50, t_free_s=600.0
    )
    groups = math.ceil(users / config.slots)
    # Each group needs n_free zero batches and t_free of elapsed window;
    # budget events for whichever dominates, with slack.
    per_group = config.n_free + math.ceil(
        config.t_free_s * users / organic_period_s
    )
    need = groups * (per_group + 10) + 400
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
