"""The paper's primary contribution: the beat-to-beat pipeline.

The chain is a stage graph (:mod:`repro.core.stages`) exchanging a
:class:`~repro.core.context.BeatContext`, with filter designs memoized
by :mod:`repro.core.cache` and cohort fan-out provided by
:mod:`repro.core.executor`.  :class:`BeatToBeatPipeline` is the
single-recording facade over that machinery.
"""

from repro.core.cache import (
    FilterDesignCache,
    cache_statistics,
    default_design_cache,
)
from repro.core.cohort import (
    CohortGroup,
    CohortPlan,
    plan_cohort,
    process_cohort,
)
from repro.core.config import PipelineConfig
from repro.core.context import BeatContext
from repro.core.executor import (
    BACKENDS,
    BATCH_BACKENDS,
    IpcStats,
    job_batches,
    last_ipc_stats,
    parallel_map,
    persistent_pool_stats,
    persistent_process_pool,
    process_batch,
    process_worker_cache_stats,
    resolve_backend,
    shutdown_persistent_pool,
)
from repro.core.pipeline import (
    BeatToBeatPipeline,
    PipelineResult,
    result_from_context,
)
from repro.core.shm import (
    RecordingDescriptor,
    ShmArena,
    ShmDescriptor,
    attach_view,
    publish_recording,
    recording_from_descriptor,
)
from repro.core.stages import (
    EcgConditionStage,
    HemodynamicsStage,
    IcgConditionStage,
    PointDetectionStage,
    RPeakStage,
    Stage,
    StageGraph,
    WaveletIcgConditionStage,
    default_stage_graph,
)

__all__ = [
    "BeatToBeatPipeline", "PipelineConfig", "PipelineResult",
    "BeatContext", "result_from_context",
    "Stage", "StageGraph", "default_stage_graph",
    "EcgConditionStage", "RPeakStage", "IcgConditionStage",
    "WaveletIcgConditionStage", "PointDetectionStage",
    "HemodynamicsStage",
    "FilterDesignCache", "default_design_cache", "cache_statistics",
    "process_batch", "parallel_map", "resolve_backend", "BACKENDS",
    "BATCH_BACKENDS", "job_batches", "IpcStats", "last_ipc_stats",
    "process_worker_cache_stats", "persistent_pool_stats",
    "persistent_process_pool", "shutdown_persistent_pool",
    "process_cohort", "plan_cohort", "CohortPlan", "CohortGroup",
    "ShmArena", "ShmDescriptor", "RecordingDescriptor", "attach_view",
    "publish_recording", "recording_from_descriptor",
]
