"""ICG processing: conditioning, characteristic points, ensemble
averaging and hemodynamic parameter estimation."""

from repro.icg.ensemble import (
    EnsembleBeat,
    EnsembleConfig,
    ensemble_average,
    extract_beats,
)
from repro.icg.batch import BeatLandmarks, detect_all_points_batched
from repro.icg.hemodynamics import (
    BLOOD_RESISTIVITY_OHM_CM,
    BeatHemodynamics,
    BeatHemodynamicsSeries,
    HemodynamicsEstimator,
    SystolicIntervals,
    kubicek_stroke_volume_ml,
    sramek_bernstein_stroke_volume_ml,
    systolic_intervals,
    systolic_intervals_from_landmarks,
    thoracic_fluid_content,
)
from repro.icg.points import (
    BeatPoints,
    PointConfig,
    detect_all_points,
    detect_beat_points,
)
from repro.icg.preprocessing import (
    IcgFilterConfig,
    condition_icg,
    highpass,
    icg_from_impedance,
    lowpass,
)

__all__ = [
    "IcgFilterConfig", "lowpass", "highpass", "condition_icg",
    "icg_from_impedance",
    "PointConfig", "BeatPoints", "detect_beat_points", "detect_all_points",
    "BeatLandmarks", "detect_all_points_batched",
    "EnsembleConfig", "EnsembleBeat", "ensemble_average", "extract_beats",
    "SystolicIntervals", "systolic_intervals",
    "systolic_intervals_from_landmarks", "BeatHemodynamics",
    "BeatHemodynamicsSeries",
    "HemodynamicsEstimator", "kubicek_stroke_volume_ml",
    "sramek_bernstein_stroke_volume_ml", "thoracic_fluid_content",
    "BLOOD_RESISTIVITY_OHM_CM",
]
