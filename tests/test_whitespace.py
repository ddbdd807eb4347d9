"""Whitespace detector tests: verdicts, scan plans, serving channel."""

import heapq
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenlinks import whitespace
from greenlinks.errors import NoFreeChannel, UnplannedChannel
from greenlinks.scenario import check_scenario, section
from greenlinks.whitespace import (
    DetectionRun,
    Detector,
    DetectorConfig,
    RadioField,
    Verdict,
    compare_ngsm,
    detection_study,
    make_phones,
    organic_traffic,
    run_detection,
    volunteer_traffic,
)
from test_artifact_hashes import QUIESCE_SCENARIO


def small_detector(**kw):
    defaults = dict(
        first_arfcn=1, last_arfcn=12, n_free=2, t_free_s=0.0, evidence_ttl_s=86400.0
    )
    defaults.update(kw)
    det = Detector(DetectorConfig(**defaults))
    det.plan_scan(0.0)
    return det


# ----------------------------------------------------------------- verdicts


def test_one_positive_marks_occupied_immediately():
    det = small_detector()
    det.ingest_report({3: 17}, at=5.0)
    state = det.states[3]
    assert state.verdict is Verdict.OCCUPIED
    assert state.t_verdict == 5.0


def test_free_needs_both_the_count_and_the_elapsed_window():
    det = small_detector(n_free=3, t_free_s=10.0)
    state = det.states[1]
    for t in (0.0, 1.0, 2.0):
        det.ingest_report({1: 0}, at=t)
    assert state.verdict is Verdict.UNKNOWN  # count met, window not
    det.ingest_report({1: 0}, at=11.0)
    assert state.verdict is Verdict.FREE
    assert state.t_verdict == 11.0


def test_positive_resets_the_zero_window():
    det = small_detector(n_free=3, t_free_s=10.0)
    det.ingest_report({1: 0}, at=0.0)
    det.ingest_report({1: 0}, at=1.0)
    det.ingest_report({1: 9}, at=2.0)  # burst of interference
    for t in (3.0, 4.0, 5.0):
        det.ingest_report({1: 0}, at=t)
    state = det.states[1]
    assert state.verdict is Verdict.OCCUPIED  # window restarted at t=3
    det.ingest_report({1: 0}, at=13.0)
    assert state.verdict is Verdict.FREE  # re-verified after the burst


def test_stale_evidence_decays_to_unknown():
    det = small_detector(n_free=3, t_free_s=10.0, evidence_ttl_s=100.0)
    for t in (0.0, 1.0, 11.0):
        det.ingest_report({1: 0}, at=t)
    assert det.states[1].verdict is Verdict.FREE
    det.ingest_report({1: 0}, at=150.0)  # 139 s since last word
    state = det.states[1]
    assert state.verdict is Verdict.UNKNOWN
    assert state.zero_count == 1  # the fresh report opens a new window


def test_reports_outside_the_plan_are_dropped():
    det = small_detector()
    with pytest.raises(UnplannedChannel):
        det.ingest_report({9: 0}, at=1.0)  # plan covers 1..6
    assert det.dropped_unplanned == 1
    # one unplanned reading drops the whole SMS: nothing of it is folded
    with pytest.raises(UnplannedChannel):
        det.ingest_report({1: 0, 2: 30, 9: 0}, at=2.0)
    assert det.dropped_unplanned == 2
    assert det.states[1].last_report_at is None
    assert det.states[2].verdict is Verdict.UNKNOWN
    fresh = Detector(
        DetectorConfig(
            first_arfcn=1, last_arfcn=4, n_free=500, t_free_s=1800.0,
            evidence_ttl_s=86400.0,
        )
    )
    with pytest.raises(UnplannedChannel):
        fresh.ingest_report({1: 0}, at=0.0)  # no plan yet at all


# ---------------------------------------------------------------- scanning


def test_plan_walks_the_band_and_rotates_verified_channels():
    det = small_detector()  # band 1..12, slots 6, n_free 2, t_free 0
    assert det.plan == (1, 2, 3, 4, 5, 6)

    det.ingest_report({a: 0 for a in range(1, 7)}, at=1.0)
    assert det.plan_is_current()  # nothing classified yet

    # 2 occupied; a second zero on the rest: all free
    det.ingest_report({1: 0, 2: 40, 3: 0, 4: 0, 5: 0, 6: 0}, at=2.0)
    assert not det.plan_is_current()
    assert det.plan_scan(2.0) == (7, 8, 9, 10, 11, 12)

    for t in (3.0, 4.0):
        det.ingest_report({a: 0 for a in range(7, 13)}, at=t)
    # band fully mapped; the stalest free channels cycle back in for
    # re-verification and the occupied one never does
    assert det.plan_scan(4.0) == (1, 3, 4, 5, 6, 7)
    assert det.unknown_count() == 0


def test_serving_channel_is_never_advertised():
    det = small_detector()
    for t in (1.0, 2.0):
        det.ingest_report({a: 0 for a in range(1, 7)}, at=t)
    det.maybe_switch_channel(2.0)
    assert det.serving == 1  # stalest free, arfcn order on ties
    plan = det.plan_scan(2.0)
    assert det.serving not in plan


# ---------------------------------------------------------- serving channel


def free_state(det, arfcn, last_report):
    """Verify ``arfcn`` free at ``last_report`` through its own zero
    reports, advertising it alone for as long as they take (n_free
    reports at one instant: the detector needs t_free_s == 0)."""
    plan, det.plan = det.plan, (arfcn,)
    for _ in range(det.config.n_free):
        det.ingest_report({arfcn: 0}, at=last_report)
    det.plan = plan
    assert det.states[arfcn].verdict is Verdict.FREE


def test_bootstrap_stays_quiet_until_something_is_verified():
    det = small_detector()
    det.maybe_switch_channel(1.0)
    assert det.serving is None and det.switches == []
    free_state(det, 5, 10.0)
    det.maybe_switch_channel(11.0)
    assert det.serving == 5
    assert det.switches == [(11.0, None, 5)]


def test_switch_moves_to_stalest_free():
    det = small_detector()
    free_state(det, 5, 10.0)
    det.maybe_switch_channel(11.0)
    free_state(det, 6, 3.0)
    free_state(det, 7, 8.0)
    det.maybe_switch_channel(11.5)  # serving still free: no move
    assert det.serving == 5 and len(det.switches) == 1
    det.ingest_report({5: 33}, at=12.0)  # serving turns occupied
    det.maybe_switch_channel(12.0)
    assert det.serving == 6  # stalest first
    assert det.switches[-1] == (12.0, 5, 6)


def test_no_free_channel_quiesces_the_station():
    det = small_detector()
    free_state(det, 4, 1.0)
    det.maybe_switch_channel(2.0)
    det.ingest_report({4: 50}, at=3.0)
    with pytest.raises(NoFreeChannel):
        det.maybe_switch_channel(3.0)
    assert det.serving is None
    assert det.switches[-1] == (3.0, 4, None)


# ------------------------------------------------------------ bookkeeping


class ReferenceDetector(Detector):
    """Folding one reading at a time, and planning and counting by
    scanning the whole band on every call, as the detector originally
    did.  The one-call-per-SMS fold, the kept per-verdict channel sets,
    the evidence floor and the partial picks must give the same answers."""

    def ingest_reading(self, arfcn, energy, at):
        state = self.states.get(arfcn)
        if state is None or (arfcn not in self.plan and arfcn != self.serving):
            self.dropped_unplanned += 1
            raise UnplannedChannel(f"arfcn {arfcn} is not being scanned")
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
                state.verdict is not Verdict.FREE
                and state.zero_count >= self.config.n_free
                and at - state.window_start >= self.config.t_free_s
            ):
                self._set_verdict(state, Verdict.FREE)
                state.t_verdict = at

    def unknown_count(self):
        return sum(1 for s in self.states.values() if s.verdict is Verdict.UNKNOWN)

    def plan_scan(self, now):
        for state in self.states.values():
            self._expire(state, now)
        keep = [
            a
            for a in self.plan
            if self.states[a].verdict is Verdict.UNKNOWN and a != self.serving
        ]
        slots = whitespace.SLOTS
        vacancies = slots - len(keep)
        chosen = list(keep)
        if vacancies > 0:
            fresh = sorted(
                (
                    s
                    for s in self.states.values()
                    if s.verdict is Verdict.UNKNOWN
                    and s.arfcn not in chosen
                    and s.arfcn != self.serving
                ),
                key=lambda s: (
                    s.last_planned_at if s.last_planned_at is not None else -1.0,
                    s.arfcn,
                ),
            )
            for state in fresh[:vacancies]:
                chosen.append(state.arfcn)
            vacancies = slots - len(chosen)
        if vacancies > 0:
            stale_free = sorted(
                (
                    s
                    for s in self.states.values()
                    if s.verdict is Verdict.FREE
                    and s.arfcn not in chosen
                    and s.arfcn != self.serving
                ),
                key=lambda s: (
                    s.last_report_at if s.last_report_at is not None else -1.0,
                    s.arfcn,
                ),
            )
            for state in stale_free[:vacancies]:
                chosen.append(state.arfcn)
        for arfcn in chosen:
            if arfcn not in self.plan:
                self.states[arfcn].last_planned_at = now
        self.plan = tuple(chosen)
        self.plan_dirty = False
        return self.plan

    def plan_is_current(self):
        if self.plan_dirty:
            return False
        return all(self.states[a].verdict is Verdict.UNKNOWN for a in self.plan)

    def maybe_switch_channel(self, now):
        serving_bad = (
            self.serving is not None
            and self.states[self.serving].verdict is Verdict.OCCUPIED
        )
        if not serving_bad and self.serving is not None:
            return
        free = [
            s.arfcn
            for s in sorted(
                self.states.values(),
                key=lambda s: (
                    s.last_report_at if s.last_report_at is not None else -1.0,
                    s.arfcn,
                ),
            )
            if s.verdict is Verdict.FREE and s.arfcn != self.serving
        ]
        if not free:
            if serving_bad:
                old = self.serving
                self.serving = None
                self.switches.append((now, old, None))
                raise NoFreeChannel(f"no verified-free channel at t={now:.0f}")
            return
        old = self.serving
        self.serving = free[0]
        self.switches.append((now, old, free[0]))


# One step: (kind, pick, energies, dt).  A report is one SMS with one
# reading per energy, on distinct channels of the advertised plan plus
# the serving channel, starting at channel ``pick``.  Time never runs
# backwards.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(("report", "report", "plan", "plan", "switch")),
        st.integers(0, 6),
        st.lists(st.sampled_from((0, 0, 25)), min_size=1, max_size=4),
        st.sampled_from((0.0, 1.0, 2.0, 6.0)),
    ),
    max_size=80,
)


def verdict_sets(det):
    return {
        v: {a for a, s in det.states.items() if s.verdict is v} for v in Verdict
    }


@settings(max_examples=500, deadline=None)
@given(steps=STEPS)
@mock.patch.object(whitespace, "SLOTS", 3)
def test_kept_bookkeeping_matches_the_full_band_scans(steps):
    # Evidence lives 10 s, so verdicts expire both on a late report and
    # in a plan_scan sweep.  Three slots on five channels leave unknowns
    # waiting for a slot.
    config = DetectorConfig(
        first_arfcn=1, last_arfcn=5, n_free=2, t_free_s=1.0,
        evidence_ttl_s=10.0,
    )
    det, ref = Detector(config), ReferenceDetector(config)
    det.plan_scan(0.0)
    ref.plan_scan(0.0)
    now = 0.0
    for kind, pick, energies, dt in steps:
        now += dt
        if kind == "report":
            heard = det.plan
            if det.serving is not None and det.serving not in heard:
                heard += (det.serving,)
            picks = [heard[(pick + k) % len(heard)] for k in range(len(heard))]
            readings = dict(zip(picks, energies))
            det.ingest_report(readings, now)
            for arfcn, energy in readings.items():
                ref.ingest_reading(arfcn, energy, now)
        elif kind == "plan":
            det.plan_scan(now)
            ref.plan_scan(now)
        else:
            outcomes = []
            for d in (det, ref):
                try:
                    d.maybe_switch_channel(now)
                    outcomes.append(None)
                except NoFreeChannel:
                    outcomes.append(NoFreeChannel)
            assert outcomes[0] == outcomes[1]
        assert det.states == ref.states
        assert det._holding == verdict_sets(ref)
        assert det.unknown_count() == ref.unknown_count()
        assert det.plan == ref.plan
        assert det.plan_is_current() == ref.plan_is_current()
        assert det.serving == ref.serving
        assert det.switches == ref.switches


# ------------------------------------------------------------ traffic model


def test_volunteer_schedule_rate_example():
    sched = volunteer_traffic(5, 60.0, 600.0)
    first_minute = [e for e in sched if e[0] < 60.0]
    assert len(first_minute) == 5  # 5 sms/min, 6 channels each: 30 reports
    assert [e[0] for e in first_minute] == [0.0, 12.0, 24.0, 36.0, 48.0]
    assert volunteer_traffic(0, 60.0, 600.0) == []


def test_doubling_volunteers_keeps_every_old_report_time():
    for v in (1, 2, 5):
        base = {t for t, _ in volunteer_traffic(v, 60.0, 600.0)}
        double = {t for t, _ in volunteer_traffic(2 * v, 60.0, 600.0)}
        assert base <= double


def test_organic_traffic_is_sorted_and_deterministic():
    a = organic_traffic(10, 300.0, 200, random.Random(4))
    b = organic_traffic(10, 300.0, 200, random.Random(4))
    assert a == b
    assert len(a) == 200
    assert [t for t, _ in a] == sorted(t for t, _ in a)
    assert {u for _, u in a} <= set(range(10))


# -------------------------------------------------------------- detection


def test_detection_run_classifies_a_tiny_band():
    det = Detector(
        DetectorConfig(
            first_arfcn=1, last_arfcn=6, n_free=3, t_free_s=0.0, evidence_ttl_s=86400.0
        )
    )
    field_model = RadioField({3: (0.5, 0.5)}, radius=0.25, step=0.0)
    phones = make_phones(1, random.Random(0))
    phones[0].x = phones[0].y = 0.5  # parked on the interferer
    traffic = [(float(t), 0) for t in range(1, 10)]
    run = run_detection(
        traffic, det, field_model, phones, random.Random(1),
        truth_occupied={3},
    )
    assert det.states[3].verdict is Verdict.OCCUPIED
    assert all(
        det.states[a].verdict is Verdict.FREE for a in (1, 2, 4, 5, 6)
    )
    assert run.converged_at == 3.0  # third zero closes every free verdict
    assert run.collisions == 0 and det.serving not in {3, None}


def test_detection_is_deterministic():
    def once():
        det = Detector(
            DetectorConfig(
                first_arfcn=1, last_arfcn=10, n_free=4, t_free_s=5.0,
                evidence_ttl_s=86400.0,
            )
        )
        rng = random.Random(9)
        field_model = RadioField.place([2, 7], rng)
        phones = make_phones(5, rng)
        traffic = organic_traffic(5, 10.0, 300, rng)
        run = run_detection(
            traffic, det, field_model, phones, random.Random(10),
            truth_occupied={2, 7},
        )
        return det.occupancy_rows(), run.converged_at, run.collisions

    assert once() == once()


def test_empty_field_leaves_phones_and_rng_untouched():
    # Nothing to hear, so nobody walks: a run on an empty field draws
    # nothing from rng, moves no phone, and matches a loop that walks
    # every sender before its SMS as the detector originally did.
    traffic = organic_traffic(4, 10.0, 400, random.Random(5))
    config = DetectorConfig(
        first_arfcn=1, last_arfcn=9, n_free=5, t_free_s=20.0, evidence_ttl_s=86400.0
    )
    phones = make_phones(4, random.Random(6))
    before = [(p.x, p.y) for p in phones]
    rng = random.Random(7)
    state = rng.getstate()
    det = Detector(config)
    run = run_detection(traffic, det, RadioField({}), phones, rng)
    assert rng.getstate() == state
    assert [(p.x, p.y) for p in phones] == before
    assert run.converged_at is not None

    walked = Detector(config)
    field_model = RadioField({})
    walkers = make_phones(4, random.Random(6))
    walk_rng = random.Random(7)
    expected = DetectionRun(converged_at=None, batches=0)
    walked.plan_scan(traffic[0][0])
    for at, idx in traffic:
        phone = walkers[idx]
        field_model.walk(phone, walk_rng)
        measured = walked.plan
        if walked.serving is not None and walked.serving not in measured:
            measured += (walked.serving,)
        walked.ingest_report(
            {a: field_model.energy(phone, a) for a in measured}, at
        )
        expected.batches += 1
        if not walked.plan_is_current():
            walked.plan_scan(at)
        try:
            walked.maybe_switch_channel(at)
        except NoFreeChannel:
            pass
        if walked.unknown_count() == 0:
            expected.converged_at = at
            break
    assert walk_rng.getstate() != state  # the reference loop did walk
    assert run == expected
    assert det.occupancy_rows() == walked.occupancy_rows()
    assert det.switches == walked.switches


class FreeScanDetector(Detector):
    """Takes the stalest free channels by scanning every free channel on
    each pick, as the detector did before it kept them in a heap."""

    def _stalest_free(self, count):
        keyed = [
            (-1.0 if (t := self.states[a].last_report_at) is None else t, a)
            for a in self._holding[Verdict.FREE]
            if a != self.serving
        ]
        return [a for _, a in heapq.nsmallest(count, keyed)]


def per_sms_detection(
    traffic, detector, field_model, phones, rng, *, truth_occupied, manage_serving
):
    """run_detection as it was before silent runs were folded: one
    ingest_report call for every SMS."""
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


UNIT = st.floats(0.0, 1.0)
# Times are sums of these gaps, so the float test at - window_start >=
# t_free_s is met by sums that at >= window_start + t_free_s misses.
GAPS = st.lists(st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.0)), max_size=120)


@settings(max_examples=500, deadline=None)
@given(
    last=st.integers(1, 12),
    slots=st.integers(1, 6),
    n_free=st.integers(0, 6),
    t_free_s=st.sampled_from((0.0, 0.3, 1.0, 2.5)),
    ttl=st.sampled_from((0.5, 1.0, 3.0, 1e9)),
    gaps=GAPS,
    senders=st.lists(st.integers(0, 2), min_size=1),
    interferers=st.one_of(
        st.just({}),
        st.dictionaries(st.integers(1, 12), st.tuples(UNIT, UNIT), max_size=3),
    ),
    truth=st.sampled_from(("none", "interferers", "odd")),
    manage_serving=st.booleans(),
)
# A float window: 3.2 - 0.7 >= 2.5 although 3.2 < 0.7 + 2.5.
@example(
    last=6, slots=6, n_free=3, t_free_s=2.5, ttl=1e9,
    gaps=[0.7, 0.7, 0.3, 0.7, 0.7, 0.1, 1.0], senders=[0], interferers={},
    truth="none", manage_serving=False,
)
# Serving channel 1, verified free at 2.8 s, outlives its evidence in
# the 2 s gap between the two SMS that would fold after 3.5 s.
@example(
    last=12, slots=6, n_free=4, t_free_s=0.0, ttl=1.0,
    gaps=[0.7] * 6 + [2.0] + [0.7] * 5, senders=[0], interferers={},
    truth="none", manage_serving=True,
)
# Every SMS at 1.0 s: once 1-3 are free, the plan rotates free channels
# past unknowns 4 and 5, and the fold must break the ties on report time
# by arfcn as plan_scan does, not by the order channels were reported.
@example(
    last=5, slots=3, n_free=4, t_free_s=0.0, ttl=1e9,
    gaps=[1.0] + [0.0] * 6, senders=[0], interferers={},
    truth="none", manage_serving=True,
)
# Evidence lives 1 s: a fold that rotates free channels past unknowns 5-7
# ends before the SMS more than 1 s after the evidence floor, where
# plan_scan sweeps the band.
@example(
    last=7, slots=4, n_free=2, t_free_s=1.0, ttl=1.0,
    gaps=[0.3] * 10, senders=[0], interferers={},
    truth="none", manage_serving=True,
)
def test_folded_detection_matches_one_call_per_sms(
    last, slots, n_free, t_free_s, ttl, gaps, senders, interferers, truth,
    manage_serving,
):
    config = DetectorConfig(
        first_arfcn=1, last_arfcn=last, n_free=n_free, t_free_s=t_free_s,
        evidence_ttl_s=ttl,
    )
    spots = {a: xy for a, xy in interferers.items() if a <= last}
    traffic = [
        (at, senders[k % len(senders)])
        for k, at in enumerate(itertools.accumulate(gaps))
    ]
    truth_occupied = {
        "none": None,
        "interferers": set(spots),
        "odd": set(range(1, last + 1, 2)),
    }[truth]
    got, want = Detector(config), FreeScanDetector(config)
    with mock.patch.object(whitespace, "SLOTS", slots):
        runs = [
            drive(
                traffic, det, RadioField(spots, radius=0.4, step=0.2),
                make_phones(3, random.Random(1)), random.Random(2),
                truth_occupied=truth_occupied, manage_serving=manage_serving,
            )
            for drive, det in ((run_detection, got), (per_sms_detection, want))
        ]
    assert runs[0] == runs[1]
    assert got.states == want.states
    assert got._holding == want._holding
    assert (got.plan, got.serving, got.switches, got.dropped_unplanned) == (
        want.plan, want.serving, want.switches, want.dropped_unplanned
    )


class CountingDetector(Detector):
    def __init__(self, config):
        super().__init__(config)
        self.ingested = 0

    def ingest_report(self, readings, at):
        self.ingested += 1
        super().ingest_report(readings, at)


@pytest.mark.parametrize("manage_serving", [False, True])
@pytest.mark.parametrize("width", [6, 8, 10, 12, 20, 30])
def test_a_silent_band_takes_two_ingest_calls_per_group(width, manage_serving):
    # Each group of up to six needs 20 zeros over 10 s: its first SMS
    # opens the windows, the next 18 fold, and the 20th turns the group
    # free.  A last group of fewer than six shares the plan with free
    # channels rotated for re-verification, and folds all the same.
    config = DetectorConfig(
        first_arfcn=1, last_arfcn=width, n_free=20, t_free_s=10.0,
        evidence_ttl_s=86400.0,
    )
    det = CountingDetector(config)
    traffic = [(float(t), t % 4) for t in range(1000)]
    run = run_detection(
        traffic, det, RadioField({}), make_phones(4, random.Random(0)),
        random.Random(1), manage_serving=manage_serving,
    )
    groups = math.ceil(width / 6)
    assert run.batches == 20 * groups
    assert run.converged_at == 20.0 * groups - 1
    assert det.ingested == 2 * groups


# ------------------------------------------------------------------ study


def study_section(**override):
    section = {**QUIESCE_SCENARIO["whitespace"], **override}
    return check_scenario({"whitespace": section})["whitespace"]


def test_the_study_quiesces_when_no_channel_is_left_free():
    detector, run = detection_study(study_section(), 0)
    # Channel 2 is the only verified-free channel when it is reported
    # occupied: the station goes quiet until 7 is verified.
    (t_claim, _, first), (t_quiet, old, new), (t_back, _, last) = detector.switches
    assert (first, old, new, last) == (2, 2, None, 7)
    assert t_claim < t_quiet < t_back == run.converged_at == 60.0


def test_a_study_with_no_reporter_leaves_the_band_unknown(monkeypatch):
    monkeypatch.setattr(whitespace, "run_detection", None)
    detector, run = detection_study(study_section(users=0, volunteers=0), 0)
    assert run == DetectionRun(converged_at=None, batches=0)
    assert detector.unknown_count() == 8 and detector.switches == []


def test_a_volunteer_only_study_runs_the_schedule_over_its_budget(monkeypatch):
    # With no organic trace the traffic is the volunteer schedule alone,
    # up to the batch budget over the volunteers' rate.
    cfg = study_section(users=0, volunteers=2)
    traces = []

    def spy(traffic, *args, **kwargs):
        traces.append(traffic)
        return run_detection(traffic, *args, **kwargs)

    monkeypatch.setattr(whitespace, "run_detection", spy)
    detection_study(cfg, 0)
    rate = 2 / cfg["volunteer_period_s"]
    groups = math.ceil(8 / 6)
    batches = groups * (cfg["n_free"] + cfg["t_free_s"] * rate) * 2 + 400
    assert traces == [volunteer_traffic(2, cfg["volunteer_period_s"], batches / rate)]


# ------------------------------------------------------------ ngsm compare


# The default whitespace section: its traffic periods drive compare_ngsm.
WS = section("whitespace")


def test_volunteers_beat_the_organic_only_baseline():
    t_ngsm, (t_vol, t_vol2) = compare_ngsm(WS, 20, [0.1, 0.2], 3)
    assert 0 < t_vol < t_ngsm
    again = compare_ngsm(WS, 20, [0.1, 0.2], 3)
    assert (t_ngsm, [t_vol, t_vol2]) == again
    assert t_vol2 <= t_vol


def test_ngsm_degenerate_cases():
    t_ngsm, (t_vol,) = compare_ngsm(WS, 10, [0.0], 1)
    assert t_ngsm == t_vol


def test_ngsm_ratios_share_one_baseline_and_keep_their_times():
    # the baseline is classified once per call; asking for the ratios one
    # call at a time or all at once gives the same numbers
    t_one, (t_vol_1,) = compare_ngsm(WS, 10, [0.1], 3)
    t_two, (t_vol_2,) = compare_ngsm(WS, 10, [0.2], 3)
    both = compare_ngsm(WS, 10, [0.1, 0.2], 3)
    assert t_one == t_two
    assert both == (t_one, [t_vol_1, t_vol_2])
    assert t_vol_1 != t_vol_2  # the ratios are told apart


def test_no_ngsm_time_beats_one_evidence_window_per_plan_group():
    # A channel gathers evidence only while it is planned, the plan holds
    # SLOTS channels, and each needs compare_ngsm's t_free_s of 600 s of
    # window: no run can converge before 600 s per group of SLOTS.
    ngsm = WS["ngsm"]
    for seed in range(5):
        for users in ngsm["user_counts"]:
            t_ngsm, t_vols = compare_ngsm(WS, users, ngsm["ratios"], seed)
            bound = 600.0 * math.ceil(users / whitespace.SLOTS)
            assert min(t_ngsm, *t_vols) >= bound, (seed, users)
