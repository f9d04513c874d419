"""Domain data model and sliding-window construction.

Weekly drought severity (DSCI) and per-week societal impact vectors are
the two channels every other module consumes.  All containers here are
frozen after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date, timedelta
from enum import Enum

import numpy as np

from .errors import AlignmentError, InsufficientDataError

DSCI_MIN = 0.0
DSCI_MAX = 500.0

#: The societal impact determinants in canonical order; the order defines the
#: impact vector component indices, and "Other" is the catch-all topic.
DETERMINANT_NAMES = (
    "Agriculture",
    "Ecosystems",
    "Energy",
    "Hazard Planning & Preparedness",
    "Manufacturing",
    "Navigation and Transportation",
    "Public Health",
    "Recreation and Tourism",
    "Water Utilities",
    "Wildfire Management",
    "Other",
)
DETERMINANT_COUNT = len(DETERMINANT_NAMES)
OTHER_INDEX = DETERMINANT_NAMES.index("Other")


class Source(str, Enum):
    SOCIAL = "social"
    NEWS = "news"


@dataclass(frozen=True)
class TimeStep:
    """One weekly collection period.

    ``index`` is zero-based and consecutive; ``week_start`` anchors the
    7-day interval ``[week_start, week_start + 7d)``.
    """

    index: int
    week_start: date

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"timestep index must be >= 0, got {self.index}")


@dataclass(frozen=True)
class SeveritySeries:
    """Weekly DSCI values, one per consecutive timestep."""

    steps: tuple[TimeStep, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.steps) != len(self.values):
            raise AlignmentError(
                f"{len(self.steps)} timesteps vs {len(self.values)} values"
            )
        for i, step in enumerate(self.steps):
            if step.index != i:
                raise ValueError(f"timestep {i} carries index {step.index}")
            if i > 0 and (step.week_start - self.steps[i - 1].week_start) != timedelta(days=7):
                raise ValueError(
                    f"week_start at index {i} is not 7 days after its predecessor"
                )
        for i, v in enumerate(self.values):
            if not (DSCI_MIN <= v <= DSCI_MAX):
                raise ValueError(f"DSCI value {v} at index {i} outside [0, 500]")

    def __len__(self) -> int:
        return len(self.values)

    def timestep_of(self, day: date) -> int | None:
        """Index of the week containing ``day``, or None if out of range."""
        if not self.steps:
            return None
        offset = (day - self.steps[0].week_start).days
        idx = offset // 7
        if 0 <= idx < len(self.steps):
            return idx
        return None


@dataclass(frozen=True)
class Document:
    """One social post or news article bucketed into a weekly timestep."""

    id: str
    timestep: int
    text: str
    source: Source

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError(f"document {self.id!r} has empty text")
        if self.timestep < 0:
            raise ValueError(f"document {self.id!r} has negative timestep")


@dataclass(frozen=True)
class ImpactVector:
    """Per-week normalized determinant distributions, one per source.

    Each part either sums to 1 (documents present) or is all-zero
    (no documents that week: absence of discourse is kept as signal).
    """

    timestep: int
    social_part: tuple[float, ...]
    news_part: tuple[float, ...]

    def __post_init__(self):
        for name, part in (("social", self.social_part), ("news", self.news_part)):
            if len(part) != DETERMINANT_COUNT:
                raise ValueError(
                    f"{name} part has {len(part)} components, expected {DETERMINANT_COUNT}"
                )
            # NaN fails every comparison, so this also rejects non-finite values.
            if not all(0.0 <= c <= 1.0 for c in part):
                raise ValueError(f"{name} part has components outside [0, 1]")
            total = sum(part)
            if total != 0.0 and abs(total - 1.0) > 1e-6:
                raise ValueError(f"{name} part sums to {total}, expected 0 or 1")

    def concatenated(self) -> tuple[float, ...]:
        """Full 2*delta feature vector, social part first."""
        return self.social_part + self.news_part


@dataclass(frozen=True, eq=False)
class Windows:
    """Stacked lookback windows and the prediction windows that follow them.

    Row ``i`` is one window: its lookback begins at timestep ``starts[i]``
    and its output at ``starts[i] + lookback``.  Shapes: ``starts`` (n,),
    ``severity_in`` (n, lookback), ``severity_out`` (n, horizon),
    ``impact_in`` (n, lookback, 2 * DETERMINANT_COUNT) and ``impact_out``
    (n, horizon, 2 * DETERMINANT_COUNT); impact rows are concatenated
    vectors, social part first.  A slice is again a ``Windows``.
    """

    starts: np.ndarray
    severity_in: np.ndarray
    severity_out: np.ndarray
    impact_in: np.ndarray
    impact_out: np.ndarray

    def __post_init__(self):
        if not (
            self.starts.shape == self.severity_in.shape[:1] == self.severity_out.shape[:1]
            and self.impact_in.shape[:2] == self.severity_in.shape
            and self.impact_out.shape[:2] == self.severity_out.shape
        ):
            raise AlignmentError("window arrays differ in window count or length")

    def __len__(self) -> int:
        return self.starts.shape[0]

    def __getitem__(self, index: slice) -> "Windows":
        if not isinstance(index, slice):
            raise TypeError(f"Windows supports slices only, got {type(index).__name__}")
        return Windows(*(getattr(self, f.name)[index] for f in fields(self)))


def make_windows(
    severity: SeveritySeries,
    impacts: list[ImpactVector],
    lookback: int,
    horizon: int,
) -> Windows:
    """Slide a (lookback, horizon) window over the aligned series, stride 1.

    Args:
        severity: weekly DSCI series of length T.
        impacts: one ImpactVector per timestep, aligned with ``severity``.
        lookback: input window length (>= 1).
        horizon: prediction window length (>= 1).

    Returns:
        Exactly ``T - lookback - horizon + 1`` windows in chronological order.

    Raises:
        AlignmentError: series and impacts differ in length or timestep order.
        InsufficientDataError: T < lookback + horizon.
    """
    if lookback < 1 or horizon < 1:
        raise ValueError(f"window sizes must be >= 1, got ({lookback}, {horizon})")
    total = len(severity)
    if len(impacts) != total:
        raise AlignmentError(
            f"severity has {total} timesteps but impacts has {len(impacts)}"
        )
    for i, vec in enumerate(impacts):
        if vec.timestep != i:
            raise AlignmentError(f"impact vector at position {i} carries timestep {vec.timestep}")
    if total < lookback + horizon:
        raise InsufficientDataError(
            f"need at least {lookback + horizon} timesteps, have {total}"
        )

    values = np.array(severity.values, dtype=np.float64)
    stacked = np.array([vec.concatenated() for vec in impacts], dtype=np.float64)
    starts = np.arange(total - lookback - horizon + 1)
    into = starts[:, None] + np.arange(lookback)
    out = starts[:, None] + np.arange(lookback, lookback + horizon)
    return Windows(
        starts=starts,
        severity_in=values[into],
        severity_out=values[out],
        impact_in=stacked[into],
        impact_out=stacked[out],
    )


def chronological_split(
    samples: Windows,
    ratios: tuple[int, int, int] = (7, 1, 2),
) -> tuple[Windows, Windows, Windows]:
    """Partition chronologically ordered windows into train/val/test.

    Sizes are ``floor(n * r / sum(r))`` per part with the remainder
    assigned to train, so the partition is contiguous, exhaustive and
    leak-free for forecasting.

    Raises:
        ValueError: empty samples or non-positive ratios.
    """
    if not samples:
        raise ValueError("cannot split an empty sample list")
    n_train, n_val, _ = split_sizes(len(samples), ratios)
    train = samples[:n_train]
    val = samples[n_train : n_train + n_val]
    test = samples[n_train + n_val :]
    return train, val, test


def split_sizes(n: int, ratios: tuple[int, int, int] = (7, 1, 2)) -> tuple[int, int, int]:
    """(train, val, test) sizes under the floor rule, remainder to train."""
    if any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be positive, got {ratios}")
    total_ratio = sum(ratios)
    n_train = n * ratios[0] // total_ratio
    n_val = n * ratios[1] // total_ratio
    n_test = n * ratios[2] // total_ratio
    n_train += n - (n_train + n_val + n_test)
    return n_train, n_val, n_test


def training_cutoff(
    total: int, lookback: int, horizon: int, ratios: tuple[int, int, int] = (7, 1, 2)
) -> int:
    """First timestep index NOT touched by any training window.

    Topic models must only see documents from timesteps the training
    samples cover; everything at or past this index belongs to the
    validation/test date range.  If the series is too short to window,
    the whole range counts as training.
    """
    n = total - lookback - horizon + 1
    if n < 1:
        return total
    n_train, _, _ = split_sizes(n, ratios)
    return min(total, (n_train - 1) + lookback + horizon)
