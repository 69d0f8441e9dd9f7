"""Scheduling of jobs whose execution speed ramps up linearly after release."""

from .core import (
    DOUBLE,
    InfeasibleIntervalError,
    Instance,
    Job,
    NeverCompletesError,
    PrecisionContext,
    Schedule,
    SchedulingError,
    Segment,
    SpeedFunction,
    UnsupportedInstanceError,
    Verdict,
    completion_from,
    dyadic,
    lazy_job,
    nonlazy_job,
    speed_at,
    stretch,
    work_in,
)

__version__ = "0.1.0"

__all__ = [
    "DOUBLE",
    "InfeasibleIntervalError",
    "Instance",
    "Job",
    "NeverCompletesError",
    "PrecisionContext",
    "Schedule",
    "SchedulingError",
    "Segment",
    "SpeedFunction",
    "UnsupportedInstanceError",
    "Verdict",
    "completion_from",
    "dyadic",
    "lazy_job",
    "nonlazy_job",
    "speed_at",
    "stretch",
    "work_in",
    "__version__",
]
