"""A simulated fleet of concurrent touch devices.

The paper's system is one device on one wrist; the production target
is a service ingesting many such devices at once (Kusche et al.'s
multichannel real-time bioimpedance hardware is exactly this fleet,
one channel per subject).  :class:`DeviceFleet` models N concurrent
devices, each a :class:`SimulatedDevice` with its own subject, arm
position, sampling rate, chunk cadence, start offset and link jitter.
Recordings come from the physiological synthesizer
(:func:`repro.synth.recording.synthesize_recording`), so every
session's ground truth is known; chunks from all devices interleave in
simulated arrival order, which is what the streaming executor and the
ingest bench consume.

Beyond the single pristine measurement, the fleet models *long-lived
load*: each device performs ``n_rounds`` measurement rounds (one
session per round, jittered gaps in between) under configurable
churn — with probability ``dropout`` a round's user lifts their thumbs
mid-measurement.  A dropped session either **rejoins** (the remaining
chunks arrive after a reconnect delay, so the session stays open for a
long stretch while other rounds stream past) or never completes (the
open session a journal-attached executor persists for later
recovery).  Churn only reorders and withholds chunks — it never
touches sample values — so a session's analysis result is well-defined
regardless of how its transport was disturbed, which is what the
crash-recovery bit-identity property rests on.

Everything is deterministic given the fleet seed: device parameters,
round schedules, churn draws, link jitter and the synthesized signals
all derive from seeded generators, so a fleet run is exactly
reproducible — the property the streaming-vs-offline parity tests rely
on.  The churn generator draws the same sequence whatever the
``dropout``/``rejoin`` *values*, so fleets differing only in those
knobs share identical session content and round timing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.ingest.chunks import RecordingChunk, chunk_recording
from repro.io.records import Recording
from repro.synth.recording import SynthesisConfig, synthesize_recording
from repro.synth.subject import default_cohort

__all__ = ["SimulatedDevice", "FleetConfig", "SessionSchedule",
           "DeviceFleet"]


@dataclass(frozen=True)
class SimulatedDevice:
    """One touch device of the fleet.

    ``session_id`` is the device identity; a device produces one
    session per measurement round (round 0's session id equals the
    device id when the fleet runs a single round, ``<id>-r<j>``
    otherwise).
    """

    session_id: str
    subject_index: int          # index into the fleet's cohort
    position: int               # arm position 1-3
    fs: float
    duration_s: float
    chunk_s: float
    start_offset_s: float       # when the user initiates the touch
    jitter_s: float             # link-delay jitter std, seconds
    injection_frequency_hz: float = 50_000.0
    seed: int = 0


@dataclass(frozen=True)
class FleetConfig:
    """Shape of a simulated fleet.

    Device parameters are drawn deterministically from ``seed``:
    subjects round-robin through the cohort, positions cycle 1-3,
    start offsets spread uniformly over ``stagger_s`` and each link
    gets its own jitter scale.  ``fs_choices`` lets part of the fleet
    run at a different rate (the executor builds one pipeline per
    rate, as the batch path does).

    ``n_rounds`` turns one run into long-lived load: every device
    measures repeatedly, with a jittered gap of 0.5-1.5 x
    ``round_gap_s`` between its rounds.  ``dropout`` is the
    per-session probability the user aborts mid-measurement; a dropped
    session's remaining chunks arrive after a reconnect delay when
    ``rejoin`` is on, and never when it is off.
    """

    n_devices: int = 8
    duration_s: float = 30.0
    chunk_s: float = 2.0
    fs_choices: tuple = (250.0,)
    stagger_s: float = 5.0
    jitter_s: float = 0.05
    seed: int = 0
    n_rounds: int = 1
    round_gap_s: float = 5.0
    dropout: float = 0.0
    rejoin: bool = True

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ConfigurationError("a fleet needs >= 1 device")
        if self.duration_s <= 0 or self.chunk_s <= 0:
            raise ConfigurationError(
                "duration_s and chunk_s must be positive")
        if not self.fs_choices or any(fs <= 0 for fs in self.fs_choices):
            raise ConfigurationError("fs_choices must be positive rates")
        if self.stagger_s < 0 or self.jitter_s < 0:
            raise ConfigurationError(
                "stagger_s and jitter_s must be non-negative")
        if self.n_rounds < 1:
            raise ConfigurationError("n_rounds must be >= 1")
        if self.round_gap_s < 0:
            raise ConfigurationError("round_gap_s must be non-negative")
        if not 0.0 <= self.dropout <= 1.0:
            raise ConfigurationError("dropout must be a probability")


@dataclass(frozen=True)
class SessionSchedule:
    """One device's plan for one measurement round.

    ``drop_fraction`` is only meaningful when ``dropped``: the device
    emits roughly that fraction of the session's chunks, then goes
    silent — forever when the fleet's ``rejoin`` is off, else until
    ``rejoin_delay_s`` after the drop.
    """

    session_id: str
    device: SimulatedDevice
    round_index: int
    start_s: float              #: when this round begins streaming
    synthesis_seed: Optional[int]  #: ``None`` -> subject default rng
    dropped: bool = False
    drop_fraction: float = 0.0
    rejoin_delay_s: float = 0.0


class DeviceFleet:
    """N concurrent simulated devices, yielding interleaved chunks.

    Iterating a fleet produces every session's chunks merged by
    simulated arrival time (ties broken by device order, round, then
    sequence, so the order is total and reproducible).  Note the
    producer-side memory shape: the arrival-order merge primes every
    stream at the first ``next()``, so all sessions are synthesized
    (and memoized) up front — producer memory is
    O(n_devices x n_rounds x duration).  The downstream *queue* bounds
    how far the producer runs ahead of the consumers (chunk
    buffering), not the synthesis working set; a deployment ingesting
    real radios has no such set, the synthesizer here stands in for
    the outside world.
    """

    def __init__(self, config: Optional[FleetConfig] = None,
                 cohort=None) -> None:
        self.config = config or FleetConfig()
        self.cohort = list(cohort) if cohort is not None else default_cohort()
        if not self.cohort:
            raise ConfigurationError("fleet cohort must not be empty")
        self.devices = self._build_devices()
        self.schedules = self._build_schedules()
        self._recordings: dict = {}
        self._by_session = {s.session_id: s for s in self.schedules}

    def _build_devices(self) -> tuple:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        devices = []
        for i in range(cfg.n_devices):
            devices.append(SimulatedDevice(
                session_id=f"device-{i:03d}",
                subject_index=i % len(self.cohort),
                position=1 + i % 3,
                fs=float(cfg.fs_choices[i % len(cfg.fs_choices)]),
                duration_s=cfg.duration_s,
                chunk_s=cfg.chunk_s,
                start_offset_s=float(rng.uniform(0.0, cfg.stagger_s)),
                jitter_s=cfg.jitter_s,
                seed=int(rng.integers(0, 2**31 - 1)),
            ))
        return tuple(devices)

    def _build_schedules(self) -> tuple:
        """Every (device, round) session, deterministically.

        The churn generator is separate from the device-parameter one
        (same-seed devices stay identical whatever the round/churn
        settings), and the *same draws* happen whatever the
        ``dropout``/``rejoin`` values — so a churned fleet and its
        churn-free twin share session ids, content, and round starts.
        """
        cfg = self.config
        churn = np.random.default_rng((cfg.seed, 0xC0FFEE))
        schedules = []
        for device in self.devices:
            start = device.start_offset_s
            for round_index in range(cfg.n_rounds):
                u_gap, u_drop, u_frac, u_rejoin = churn.random(4)
                seed_draw = int(churn.integers(0, 2**31 - 1))
                if round_index > 0:
                    start += (device.duration_s
                              + cfg.round_gap_s * (0.5 + u_gap))
                session_id = (device.session_id if cfg.n_rounds == 1
                              else f"{device.session_id}-r{round_index}")
                schedules.append(SessionSchedule(
                    session_id=session_id,
                    device=device,
                    round_index=round_index,
                    start_s=start,
                    # Round 0 keeps the subject's default generator so
                    # a single-round fleet reproduces the pre-round-era
                    # streams bit-for-bit.
                    synthesis_seed=(None if round_index == 0
                                    else seed_draw),
                    dropped=bool(cfg.dropout > 0.0
                                 and u_drop < cfg.dropout),
                    drop_fraction=0.25 + 0.5 * u_frac,
                    rejoin_delay_s=(max(cfg.round_gap_s, 1.0)
                                    * (0.5 + u_rejoin)),
                ))
        return tuple(schedules)

    # -- sessions ----------------------------------------------------------

    @property
    def session_ids(self) -> tuple:
        """Every scheduled session id, device-major then round order."""
        return tuple(s.session_id for s in self.schedules)

    def session_recording(self, session_id: str) -> Recording:
        """The full recording one session will stream (ground truth
        attached), rendered deterministically from its schedule.

        Memoized per session: synthesis is pure, so re-iterating a
        fleet (or comparing a streamed run against the offline batch,
        as the bench does) must not pay it twice.
        """
        cached = self._recordings.get(session_id)
        if cached is not None:
            return cached
        schedule = self._by_session.get(session_id)
        if schedule is None:
            raise ConfigurationError(
                f"no session {session_id!r} in this fleet; scheduled: "
                f"{list(self.session_ids)}")
        device = schedule.device
        subject = self.cohort[device.subject_index]
        config = SynthesisConfig(
            duration_s=device.duration_s, fs=device.fs,
            injection_frequency_hz=device.injection_frequency_hz)
        rng = (None if schedule.synthesis_seed is None
               else np.random.default_rng(schedule.synthesis_seed))
        recording = synthesize_recording(subject, "device",
                                         device.position, config,
                                         rng=rng)
        meta = dict(recording.meta)
        meta["session_id"] = session_id
        meta["device_id"] = device.session_id
        meta["round"] = schedule.round_index
        recording = Recording(recording.fs, recording.signals,
                              recording.annotations, meta)
        self._recordings[session_id] = recording
        return recording

    def synthesize(self, device: SimulatedDevice) -> Recording:
        """The recording ``device`` streams in its first round (the
        whole-fleet view for a single-round fleet — the historical
        API; multi-round callers use :meth:`session_recording`)."""
        session_id = (device.session_id if self.config.n_rounds == 1
                      else f"{device.session_id}-r0")
        return self.session_recording(session_id)

    # -- the interleaved stream --------------------------------------------

    def _session_segments(self, order: int, schedule: SessionSchedule):
        """One session's chunk stream as sorted (key, chunk) segments.

        An ordered link delivers chunks in sequence no matter how the
        delays jitter, so each arrival stamp is clamped to be no
        earlier than its predecessor's — every segment is sorted by
        construction and merges without re-sorting.  Dropout splits
        the stream at the drop point: the head streams in place, the
        tail (when the fleet rejoins) arrives ``rejoin_delay_s``
        later — still in sequence order, possibly interleaving with
        the device's *next* rounds, which is exactly the long-open
        session shape the durable ingest layer exists for.
        """
        device = schedule.device
        recording = self.session_recording(schedule.session_id)
        jitter = np.random.default_rng(
            device.seed ^ 0x5EED ^ (schedule.round_index * 0x9E37))
        keyed = []
        previous = 0.0
        for chunk in chunk_recording(recording, schedule.session_id,
                                     device.chunk_s,
                                     start_s=schedule.start_s,
                                     jitter=jitter,
                                     jitter_s=device.jitter_s):
            arrival = max(previous, chunk.arrival_s)
            previous = arrival
            if arrival != chunk.arrival_s:
                chunk = replace(chunk, arrival_s=arrival)
            keyed.append(
                ((arrival, order, schedule.round_index, chunk.seq),
                 chunk))
        if not schedule.dropped or len(keyed) < 2:
            return [keyed]
        cut = max(1, min(len(keyed) - 1,
                         int(schedule.drop_fraction * len(keyed))))
        head = keyed[:cut]
        if not self.config.rejoin:
            return [head]
        delay = schedule.rejoin_delay_s
        tail = [((key[0] + delay, *key[1:]),
                 replace(chunk, arrival_s=key[0] + delay))
                for key, chunk in keyed[cut:]]
        return [head, tail]

    def __iter__(self) -> Iterator[RecordingChunk]:
        """All sessions' chunks, merged by simulated arrival time
        (ties broken by device order, round, then sequence, so the
        interleave is total and reproducible)."""
        segments = []
        for schedule in self.schedules:
            order = self.devices.index(schedule.device)
            segments.extend(self._session_segments(order, schedule))
        for _, chunk in heapq.merge(*segments, key=lambda kc: kc[0]):
            yield chunk

    @property
    def dropped_session_ids(self) -> tuple:
        """Sessions churn will actually interrupt (they complete late
        when the fleet rejoins, never within this stream otherwise).

        A dropout draw on a session too short to split — fewer than
        two chunks, where ``_session_segments`` streams it whole — is
        not a drop, so it is not reported as one.  Deciding that needs
        the session's chunk count, hence the (memoized) synthesis.
        """
        dropped = []
        for schedule in self.schedules:
            if not schedule.dropped:
                continue
            recording = self.session_recording(schedule.session_id)
            step = max(1, int(round(schedule.device.chunk_s
                                    * recording.fs)))
            n_chunks = (recording.n_samples + step - 1) // step
            if n_chunks >= 2:
                dropped.append(schedule.session_id)
        return tuple(dropped)

    @property
    def total_recording_s(self) -> float:
        """Sum of all scheduled sessions' durations (for throughput
        accounting: recordings/sec = n_sessions / wall time)."""
        return sum(s.device.duration_s for s in self.schedules)
