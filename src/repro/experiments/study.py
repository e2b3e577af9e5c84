"""The full study runner: synthesize the protocol, regenerate every
table and figure of the paper's evaluation.

One :func:`run_study` call produces a :class:`StudyResult` from which
each artefact is derived:

* ``correlation_table(position)`` — Tables II, III, IV;
* ``thoracic_mean_z()`` — Fig 6;
* ``device_mean_z(position)`` — Figs 7a-c (pairs are just two calls);
* ``relative_errors()`` — Figs 8a-c;
* ``hemodynamics(position)`` — Figs 9a-b.

The correlation statistic is the Pearson coefficient between the
ensemble-averaged ICG beats (device vs thoracic, normalised cardiac
phase), averaged over the four injection frequencies.  The paper does
not spell out its exact computation; this interpretation captures what
the claim is used for — "the touch signal has the same morphology as
the thoracic signal" — and is documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from repro.bioimpedance.analysis import (
    pearson_correlation,
    position_relative_errors,
)
from repro.core.cache import FilterDesignCache, default_design_cache
from repro.core.context import BeatContext
from repro.core.executor import (
    parallel_map,
    resolve_shm_result,
    will_parallelize,
)
from repro.core.shm import ShmArena, aligned_nbytes
from repro.core.stages import default_stage_graph
from repro.errors import ProtocolError
from repro.experiments.protocol import (
    HEMODYNAMICS_FREQUENCY_HZ,
    HEMODYNAMICS_POSITIONS,
    ProtocolConfig,
)
from repro.icg.ensemble import EnsembleConfig, ensemble_average
from repro.icg.hemodynamics import systolic_intervals
from repro.synth.recording import SynthesisConfig, synthesize_recording
from repro.synth.subject import default_cohort

__all__ = ["RecordingAnalysis", "StudyResult", "run_study",
           "analyse_recording", "study_jobs", "execute_study_jobs"]

#: The study needs the chain only through point detection; ensemble
#: statistics and NaN-tolerant interval summaries are derived here.
_ANALYSIS_GRAPH = default_stage_graph().upto("point_detection")


@dataclass(frozen=True)
class RecordingAnalysis:
    """Derived quantities of one protocol recording."""

    subject_id: int
    setup: str
    position: int
    frequency_hz: float
    mean_z0_ohm: float
    ensemble_beat: np.ndarray
    mean_pep_s: float
    mean_lvet_s: float
    hr_bpm: float
    n_beats: int
    n_failures: int


def analyse_recording(recording,
                      cache: Optional[FilterDesignCache] = None,
                      ) -> RecordingAnalysis:
    """Run the detection chain on one recording and summarise it.

    Uses the stage graph through point detection — the same code path
    as :class:`~repro.core.pipeline.BeatToBeatPipeline` — with filter
    designs shared through ``cache`` (the process-wide default when
    omitted), so a cohort pays each design once.
    """
    fs = recording.fs
    z = recording.channel("z")
    ctx = BeatContext.from_signals(recording.channel("ecg"), z, fs,
                                   cache=cache)
    ctx = _ANALYSIS_GRAPH.run(ctx)
    r_peaks = ctx.r_peak_indices
    icg = ctx.icg
    ensemble = ensemble_average(icg, fs, r_peaks, EnsembleConfig())
    points, failures = ctx.points, ctx.failures
    if points:
        intervals = systolic_intervals(points, fs)
        mean_pep = intervals.mean_pep_s
        mean_lvet = intervals.mean_lvet_s
    else:
        mean_pep = float("nan")
        mean_lvet = float("nan")
    rr = np.diff(r_peaks) / fs
    return RecordingAnalysis(
        subject_id=int(recording.meta["subject_id"]),
        setup=str(recording.meta["setup"]),
        position=int(recording.meta["position"]),
        frequency_hz=float(recording.meta["injection_frequency_hz"]),
        mean_z0_ohm=float(np.mean(z)),
        ensemble_beat=ensemble.waveform,
        mean_pep_s=mean_pep,
        mean_lvet_s=mean_lvet,
        hr_bpm=float(60.0 / rr.mean()) if rr.size else float("nan"),
        n_beats=len(points),
        n_failures=len(failures),
    )


@dataclass
class StudyResult:
    """All analysed recordings of a protocol run, with artefact
    derivations."""

    config: ProtocolConfig
    subject_ids: list
    #: (subject_id, position, frequency_hz) -> RecordingAnalysis
    device: dict = field(default_factory=dict)
    #: (subject_id, frequency_hz) -> RecordingAnalysis
    thoracic: dict = field(default_factory=dict)

    # -- Tables II-IV ----------------------------------------------------

    def correlation(self, subject_id: int, position: int) -> float:
        """Device-vs-thoracic ensemble-beat correlation, averaged over
        the injection frequencies."""
        values = []
        for freq in self.config.frequencies_hz:
            device = self._device(subject_id, position, freq)
            thoracic = self._thoracic(subject_id, freq)
            values.append(pearson_correlation(device.ensemble_beat,
                                              thoracic.ensemble_beat))
        return float(np.mean(values))

    def correlation_table(self, position: int) -> dict:
        """One of Tables II-IV: ``{subject_id: r}`` for a position."""
        return {sid: self.correlation(sid, position)
                for sid in self.subject_ids}

    # -- Figs 6-7 -----------------------------------------------------------

    def thoracic_mean_z(self) -> dict:
        """Fig 6: ``{frequency_hz: [Z0 per subject]}``."""
        return {
            freq: [self._thoracic(sid, freq).mean_z0_ohm
                   for sid in self.subject_ids]
            for freq in self.config.frequencies_hz
        }

    def device_mean_z(self, position: int) -> dict:
        """Fig 7 (one position): ``{frequency_hz: [Z0 per subject]}``."""
        return {
            freq: [self._device(sid, position, freq).mean_z0_ohm
                   for sid in self.subject_ids]
            for freq in self.config.frequencies_hz
        }

    # -- Fig 8 -----------------------------------------------------------

    def relative_errors(self) -> dict:
        """Figs 8a-c: ``{error_name: {subject_id: {freq: value}}}``.

        Errors follow equations (1)-(3) on the per-frequency mean
        device impedances.
        """
        out = {"e21": {}, "e23": {}, "e31": {}}
        for sid in self.subject_ids:
            per_freq = {name: {} for name in out}
            for freq in self.config.frequencies_hz:
                mean_z = {
                    pos: self._device(sid, pos, freq).mean_z0_ohm
                    for pos in self.config.positions
                }
                errors = position_relative_errors(mean_z)
                for name, value in errors.items():
                    per_freq[name][freq] = value
            for name in out:
                out[name][sid] = per_freq[name]
        return out

    def worst_case_error(self) -> float:
        """Conclusion claim: the largest |relative error| anywhere."""
        errors = self.relative_errors()
        worst = 0.0
        for by_subject in errors.values():
            for by_freq in by_subject.values():
                for value in by_freq.values():
                    worst = max(worst, abs(value))
        return worst

    # -- Fig 9 ------------------------------------------------------------

    def hemodynamics(self, position: int,
                     frequency_hz: float = HEMODYNAMICS_FREQUENCY_HZ,
                     ) -> dict:
        """Fig 9: ``{subject_id: {"lvet_s", "pep_s", "hr_bpm"}}``."""
        if position not in HEMODYNAMICS_POSITIONS:
            raise ProtocolError(
                f"the paper evaluates hemodynamics in positions "
                f"{HEMODYNAMICS_POSITIONS}, not {position}")
        table = {}
        for sid in self.subject_ids:
            analysis = self._device(sid, position, frequency_hz)
            table[sid] = {
                "lvet_s": analysis.mean_lvet_s,
                "pep_s": analysis.mean_pep_s,
                "hr_bpm": analysis.hr_bpm,
            }
        return table

    # -- aggregate claims ---------------------------------------------------

    def mean_correlation(self) -> float:
        """Conclusion claim: overall correlation (the paper's ~85 %)."""
        values = []
        for position in self.config.positions:
            values.extend(self.correlation_table(position).values())
        return float(np.mean(values))

    # -- internals ---------------------------------------------------------

    def _device(self, subject_id: int, position: int,
                frequency_hz: float) -> RecordingAnalysis:
        key = (subject_id, position, float(frequency_hz))
        if key not in self.device:
            raise ProtocolError(
                f"no device recording for subject {subject_id}, position "
                f"{position}, {frequency_hz} Hz")
        return self.device[key]

    def _thoracic(self, subject_id: int,
                  frequency_hz: float) -> RecordingAnalysis:
        key = (subject_id, float(frequency_hz))
        if key not in self.thoracic:
            raise ProtocolError(
                f"no thoracic recording for subject {subject_id} at "
                f"{frequency_hz} Hz")
        return self.thoracic[key]


def _run_study_job(job, cache: Optional[FilterDesignCache] = None,
                   verbose: bool = False):
    """One protocol job: synthesize a recording, run the detection
    chain, summarise.  Module-level so the process pool can pickle
    it (``cache=None`` makes each worker use its process-local default
    design cache)."""
    store, key, subject, setup, position, synth = job
    recording = synthesize_recording(subject, setup, position, synth)
    analysis = analyse_recording(recording, cache=cache)
    if verbose and store == "device":
        print(f"analysed subject {subject.subject_id} "
              f"pos {position} "
              f"f={synth.injection_frequency_hz / 1000:.0f} kHz")
    return store, key, analysis


def _run_study_job_shm(item, verbose: bool = False):
    """Process-pool study job with its ensemble waveform routed
    through the shared-memory result plane.

    ``item`` is ``(job, slot)`` where ``slot`` is a pre-reserved
    :class:`~repro.core.shm.ShmDescriptor` — the waveform is written
    into the parent's arena and only the descriptor is pickled home
    (the same scheme as the batch executor's result slots).  A
    waveform that does not fit the slot stays inline; correctness
    never depends on the fast path.
    """
    from repro.core.executor import swap_result_fields

    job, slot = item
    store, key, analysis = _run_study_job(job, cache=None,
                                          verbose=verbose)
    return store, key, swap_result_fields(analysis,
                                          {"ensemble_beat": slot})


def study_jobs(cohort, config: ProtocolConfig) -> list:
    """The protocol's flat, deterministic job list.

    One tuple ``(store, key, subject, setup, position, synth_config)``
    per recording, in canonical order (subject-major, then frequency,
    thoracic before the three device positions).  Every consumer of
    the protocol — :func:`run_study`, the shard runner in
    :mod:`repro.experiments.sharding`, the benches — derives its work
    from this single definition, so a shard partition can never drift
    from the serial run.
    """
    jobs = []
    for subject in cohort:
        for freq in config.frequencies_hz:
            synth = SynthesisConfig(duration_s=config.duration_s,
                                    fs=config.fs,
                                    injection_frequency_hz=freq)
            jobs.append(("thoracic",
                         (subject.subject_id, float(freq)),
                         subject, "thoracic", 1, synth))
            for position in config.positions:
                jobs.append(("device",
                             (subject.subject_id, position, float(freq)),
                             subject, "device", position, synth))
    return jobs


def execute_study_jobs(jobs, verbose: bool = False,
                       n_jobs: Optional[int] = 1,
                       cache: Optional[FilterDesignCache] = None) -> list:
    """Run protocol jobs through the batch executor.

    Returns ``(store, key, analysis)`` triples in job order.  Each job
    is a pure function of its tuple (synthesis is seeded per
    subject/setup/position/frequency), so the output is identical
    however the jobs are partitioned or fanned out.  ``n_jobs=1`` runs
    the jobs serially on the design ``cache`` (the process-wide
    default when omitted); ``n_jobs > 1`` fans them out over the warm
    process pool, whose workers each use their process-local default
    cache.
    """
    jobs = list(jobs)
    if not will_parallelize(n_jobs, len(jobs)):
        if cache is None:
            cache = default_design_cache()
        return [_run_study_job(job, cache, verbose) for job in jobs]
    # Forked path: synthesis happens in-worker (jobs are tiny tuples),
    # and the one array-sized result field — the ensemble waveform —
    # comes home through a shared-memory result arena instead of the
    # pipe, reusing the batch executor's descriptor scheme.
    from repro.icg.ensemble import EnsembleConfig

    n_phase = EnsembleConfig().n_phase_samples
    slot_bytes = aligned_nbytes(n_phase * np.dtype(np.float64).itemsize)
    try:
        arena = ShmArena(max(1, len(jobs)) * slot_bytes)
    except OSError:
        # No shared memory available (e.g. a /dev/shm cap): degrade to
        # the pickle plane — slower, never wrong.
        run_job = partial(_run_study_job, cache=None, verbose=verbose)
        return parallel_map(run_job, jobs, n_jobs=n_jobs)
    try:
        items = [(job, arena.reserve((n_phase,), np.float64))
                 for job in jobs]
        triples = parallel_map(
            partial(_run_study_job_shm, verbose=verbose), items,
            n_jobs=n_jobs)
        return [(store, key, resolve_shm_result(analysis, arena))
                for store, key, analysis in triples]
    finally:
        arena.release()


def run_study(cohort=None, config: Optional[ProtocolConfig] = None,
              verbose: bool = False, n_jobs: Optional[int] = 1,
              cache: Optional[FilterDesignCache] = None) -> StudyResult:
    """Simulate and analyse the complete protocol.

    Every recording is deterministic (seeded per subject/setup/
    position/frequency), so repeated runs produce identical tables —
    including with ``n_jobs > 1``, which fans the per-recording
    synthesis + analysis jobs out over the warm process pool (as in
    :func:`repro.core.executor.parallel_map`).  The serial run shares
    one filter-design ``cache`` (the process-wide default when
    omitted), so the whole protocol designs each filter once; process
    workers each keep a process-local cache — designs are paid once
    per worker, and the GIL-bound analysis scales with cores.

    For cross-machine runs, :mod:`repro.experiments.sharding` executes
    any deterministic partition of the same job list and merges the
    shard artifacts into this exact result.
    """
    cohort = cohort if cohort is not None else default_cohort()
    config = config or ProtocolConfig()
    result = StudyResult(config=config,
                         subject_ids=[s.subject_id for s in cohort])
    jobs = study_jobs(cohort, config)
    for store, key, analysis in execute_study_jobs(
            jobs, verbose=verbose, n_jobs=n_jobs, cache=cache):
        getattr(result, store)[key] = analysis
    return result
