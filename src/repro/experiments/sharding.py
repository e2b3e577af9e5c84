"""Shard the study across machines: partition, run, merge.

The protocol's job list (:func:`repro.experiments.study.study_jobs`)
is flat and deterministic, which makes distributing it trivial:
:func:`partition_jobs` deals the list round-robin into ``n_shards``
disjoint slices, :func:`run_study_shard` executes one slice into a
:class:`StudyShard` artifact (serialised by :mod:`repro.io.shards`,
shipped between machines as a single ``.npz``), and
:func:`merge_shards` validates a complete shard set and reassembles
the exact :class:`~repro.experiments.study.StudyResult` the unsharded
run produces — bit-identically, because every job is a pure seeded
function of its tuple and the merge re-inserts analyses in the serial
run's canonical order.

Lifecycle::

    machine i of K:  repro study --shards K --shard-index i --out s_i.npz
    anywhere:        repro merge s_0.npz ... s_K-1.npz
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.cache import FilterDesignCache
from repro.errors import ConfigurationError, ProtocolError
from repro.experiments.protocol import ProtocolConfig
from repro.experiments.study import (
    StudyResult,
    execute_study_jobs,
    study_jobs,
)
from repro.synth.subject import default_cohort

__all__ = ["StudyShard", "partition_jobs", "run_study_shard",
           "merge_shards"]


def partition_jobs(jobs, n_shards: int, shard_index: int) -> list:
    """Shard ``shard_index`` of the round-robin deal of ``jobs``.

    ``jobs[shard_index::n_shards]`` — deterministic, disjoint, and
    jointly exhaustive over the shard indices; round-robin (rather
    than contiguous blocks) balances the per-subject synthesis cost
    across machines.  The single-machine sibling is
    :func:`repro.core.executor.job_batches`, which must preserve
    contiguity instead.
    """
    if n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    if not 0 <= shard_index < n_shards:
        raise ConfigurationError(
            f"shard_index must be in [0, {n_shards}), got {shard_index}")
    return list(jobs)[shard_index::n_shards]


@dataclass
class StudyShard:
    """One machine's slice of a sharded study run.

    Carries everything the merge needs to validate completeness and
    reassemble the unsharded result: the protocol identity (config +
    subject ids), the shard coordinates, and the analyses this shard
    computed (same key scheme as :class:`StudyResult`).
    """

    config: ProtocolConfig
    subject_ids: list
    n_shards: int
    shard_index: int
    #: Total jobs in the *unsharded* protocol (coverage check).
    n_jobs_total: int
    #: (subject_id, position, frequency_hz) -> RecordingAnalysis
    device: dict = field(default_factory=dict)
    #: (subject_id, frequency_hz) -> RecordingAnalysis
    thoracic: dict = field(default_factory=dict)

    @property
    def n_jobs_done(self) -> int:
        """Analyses this shard holds."""
        return len(self.device) + len(self.thoracic)


def run_study_shard(cohort=None, config: Optional[ProtocolConfig] = None,
                    n_shards: int = 1, shard_index: int = 0,
                    verbose: bool = False, n_jobs: Optional[int] = 1,
                    cache: Optional[FilterDesignCache] = None) -> StudyShard:
    """Execute one shard of the protocol.

    The job list, its order and its round-robin partition depend only
    on ``(cohort, config, n_shards)``, so any machine given the same
    inputs computes the same slice; fan-out options are as in
    :func:`~repro.experiments.study.run_study`.
    """
    cohort = cohort if cohort is not None else default_cohort()
    config = config or ProtocolConfig()
    jobs = study_jobs(cohort, config)
    shard = StudyShard(config=config,
                       subject_ids=[s.subject_id for s in cohort],
                       n_shards=n_shards, shard_index=shard_index,
                       n_jobs_total=len(jobs))
    selected = partition_jobs(jobs, n_shards, shard_index)
    for store, key, analysis in execute_study_jobs(
            selected, verbose=verbose, n_jobs=n_jobs, cache=cache):
        getattr(shard, store)[key] = analysis
    return shard


def _canonical_store_keys(subject_ids, config: ProtocolConfig) -> list:
    """The serial run's insertion order of ``(store, key)`` pairs —
    mirrors :func:`study_jobs` without synthesizing anything."""
    order = []
    for sid in subject_ids:
        for freq in config.frequencies_hz:
            order.append(("thoracic", (sid, float(freq))))
            for position in config.positions:
                order.append(("device", (sid, position, float(freq))))
    return order


def merge_shards(shards) -> StudyResult:
    """Reassemble a complete shard set into the unsharded result.

    Validates that the shards describe one protocol (same config,
    cohort and shard count), that every shard index 0..K-1 appears
    exactly once, and that together they cover every job exactly once
    — then rebuilds the :class:`StudyResult` with analyses inserted in
    the serial run's canonical order.  The output is therefore
    *bit-identical* to ``run_study`` on the same inputs, down to dict
    iteration order.
    """
    shards = list(shards)
    if not shards:
        raise ProtocolError("no shards to merge")
    first = shards[0]
    indices = []
    for shard in shards:
        if shard.config != first.config:
            raise ProtocolError(
                "shards disagree on the protocol configuration")
        if list(shard.subject_ids) != list(first.subject_ids):
            raise ProtocolError("shards disagree on the cohort")
        if shard.n_shards != first.n_shards:
            raise ProtocolError(
                f"shard counts disagree: {shard.n_shards} vs "
                f"{first.n_shards}")
        indices.append(shard.shard_index)
    expected = set(range(first.n_shards))
    if sorted(indices) != sorted(expected) or len(indices) != len(expected):
        missing = sorted(expected - set(indices))
        duplicated = sorted({i for i in indices if indices.count(i) > 1})
        raise ProtocolError(
            f"incomplete shard set: missing {missing}, "
            f"duplicated {duplicated}")

    device: dict = {}
    thoracic: dict = {}
    for shard in shards:
        for store, merged in (("device", device), ("thoracic", thoracic)):
            for key, analysis in getattr(shard, store).items():
                if key in merged:
                    raise ProtocolError(
                        f"job {store}{key} present in more than one "
                        f"shard")
                merged[key] = analysis

    n_merged = len(device) + len(thoracic)
    if n_merged != first.n_jobs_total:
        raise ProtocolError(
            f"merged {n_merged} analyses, protocol has "
            f"{first.n_jobs_total} jobs")

    result = StudyResult(config=first.config,
                         subject_ids=list(first.subject_ids))
    for store, key in _canonical_store_keys(first.subject_ids,
                                            first.config):
        source = device if store == "device" else thoracic
        if key not in source:
            raise ProtocolError(f"missing analysis for {store}{key}")
        getattr(result, store)[key] = source[key]
    return result
