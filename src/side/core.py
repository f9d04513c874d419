"""Domain data model, sliding-window construction and the CSV file format.

Weekly drought severity (DSCI) and the weekly societal impact series are
the two channels every other module consumes: a ``SeveritySeries`` of T
values and a (T, IMPACT_DIM) impact array.  All containers
here are frozen after construction and safe to share across threads.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import date

import numpy as np

from .errors import AlignmentError, InsufficientDataError, ParseError

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

#: The text sources in the order of the impact vector's halves: each half is
#: one source's distribution over ``DETERMINANT_NAMES``.
SOURCES = ("social", "news")
IMPACT_DIM = len(SOURCES) * DETERMINANT_COUNT

#: The chronological train:val:test ratio of the windows.
SPLIT = (7, 1, 2)


@dataclass(frozen=True, eq=False)
class SeveritySeries:
    """Weekly DSCI values; week ``i`` is ``[start + 7i days, start + 7(i+1) days)``.

    ``values`` is a read-only 1-D float64 copy, every value within [0, 500].
    """

    start: date
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"DSCI values must be 1-D, got shape {values.shape}")
        # NaN fails both comparisons, so this also rejects non-finite values.
        outside = ~((values >= DSCI_MIN) & (values <= DSCI_MAX))
        if outside.any():
            i = int(outside.argmax())
            raise ValueError(f"DSCI value {values[i]} at index {i} outside [0, 500]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def timestep_of(self, day: date) -> int | None:
        """Index of the week containing ``day``, or None if out of range."""
        idx = (day - self.start).days // 7
        return idx if 0 <= idx < len(self.values) else None


def check_impacts(impacts, labels=None) -> None:
    """Check a (T, IMPACT_DIM) impact series, one half per source in ``SOURCES`` order.

    Each half row either sums to 1 (documents present) or is all-zero (no
    documents that week: absence of discourse is kept as signal).

    Raises:
        ValueError: a wrong shape, or naming the first bad row (as
            ``labels[i]``, default ``row i``): a component outside [0, 1]
            (NaN and inf included) or a half summing to neither 0 nor 1.
    """
    impacts = np.asarray(impacts, dtype=np.float64)
    if impacts.ndim != 2 or impacts.shape[1] != IMPACT_DIM:
        raise ValueError(f"impact series must have shape (T, {IMPACT_DIM}), got {impacts.shape}")
    parts = impacts.reshape(len(impacts), len(SOURCES), DETERMINANT_COUNT)
    totals = parts.sum(axis=2)
    # NaN fails every comparison, so this also rejects non-finite values.
    outside = ~((parts >= 0.0) & (parts <= 1.0)).all(axis=2)
    bad_sum = (totals != 0.0) & (np.abs(totals - 1.0) > 1e-6)
    bad = np.argwhere(outside | bad_sum)  # row-major: the first bad row, then its first bad half
    if len(bad):
        i, half = bad[0]
        label = f"row {i}" if labels is None else labels[i]
        problem = ("has components outside [0, 1]" if outside[i, half]
                   else f"sums to {totals[i, half]}, expected 0 or 1")
        raise ValueError(f"{label}: {SOURCES[half]} part {problem}")


@dataclass(frozen=True, eq=False)
class Windows:
    """Stacked lookback windows and the prediction windows that follow them.

    Row ``i`` is one window: its lookback begins at timestep ``starts[i]``
    and its output at ``starts[i] + lookback``.  Shapes: ``starts`` (n,),
    ``severity_in`` (n, lookback), ``severity_out`` (n, horizon),
    ``impact_in`` (n, lookback, IMPACT_DIM) and ``impact_out`` (n, horizon,
    IMPACT_DIM); impact rows are concatenated vectors, one part per source
    in ``SOURCES`` order.  A slice is again a ``Windows``.
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
    impacts: np.ndarray,
    lookback: int,
    horizon: int,
) -> Windows:
    """Slide a (lookback, horizon) window over the aligned series, stride 1.

    Args:
        severity: weekly DSCI series of length T.
        impacts: (T, IMPACT_DIM) impact series aligned with
            ``severity``; see :func:`check_impacts`.
        lookback: input window length (>= 1).
        horizon: prediction window length (>= 1).

    Returns:
        Exactly ``T - lookback - horizon + 1`` windows in chronological order.

    Raises:
        AlignmentError: series and impacts differ in length.
        ValueError: the impact series fails :func:`check_impacts`.
        InsufficientDataError: T < lookback + horizon.
    """
    if lookback < 1 or horizon < 1:
        raise ValueError(f"window sizes must be >= 1, got ({lookback}, {horizon})")
    total = len(severity)
    impacts = np.asarray(impacts, dtype=np.float64)
    if len(impacts) != total:
        raise AlignmentError(
            f"severity has {total} timesteps but impacts has {len(impacts)}"
        )
    check_impacts(impacts)
    if total < lookback + horizon:
        raise InsufficientDataError(
            f"need at least {lookback + horizon} timesteps, have {total}"
        )

    starts = np.arange(total - lookback - horizon + 1)
    into = starts[:, None] + np.arange(lookback)
    out = starts[:, None] + np.arange(lookback, lookback + horizon)
    return Windows(
        starts=starts,
        severity_in=severity.values[into],
        severity_out=severity.values[out],
        impact_in=impacts[into],
        impact_out=impacts[out],
    )


def chronological_split(
    samples: Windows,
) -> tuple[Windows, Windows, Windows]:
    """Partition chronologically ordered windows into train/val/test.

    Sizes are ``floor(n * r / sum(r))`` per part of ``SPLIT`` with the
    remainder assigned to train, so the partition is contiguous,
    exhaustive and leak-free for forecasting.

    Raises:
        ValueError: empty samples.
    """
    if not samples:
        raise ValueError("cannot split an empty sample list")
    n_train, n_val, _ = split_sizes(len(samples))
    train = samples[:n_train]
    val = samples[n_train : n_train + n_val]
    test = samples[n_train + n_val :]
    return train, val, test


def split_sizes(n: int) -> tuple[int, int, int]:
    """(train, val, test) sizes under the floor rule, remainder to train."""
    total_ratio = sum(SPLIT)
    n_train = n * SPLIT[0] // total_ratio
    n_val = n * SPLIT[1] // total_ratio
    n_test = n * SPLIT[2] // total_ratio
    n_train += n - (n_train + n_val + n_test)
    return n_train, n_val, n_test


def training_cutoff(
    total: int, lookback: int, horizon: int
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
    n_train, _, _ = split_sizes(n)
    return min(total, (n_train - 1) + lookback + horizon)


@contextmanager
def atomic_write(path):
    """Open ``path`` for writing text through a temporary file next to it.

    The temporary file replaces ``path`` only when the block finishes, so
    a write that fails part-way leaves any earlier file at ``path`` intact.
    There is no fsync, so a power loss is not covered.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` through :func:`atomic_write`.

    A ``float`` cell (``np.float64`` too) is written as ``repr(float(cell))``,
    which reads back bit-exact, any other cell as ``str(cell)``; nothing is
    quoted, so a caller that wants quotes puts them in the cell.
    """
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([repr(float(c)) if isinstance(c, float) else str(c) for c in row]) + "\n")


def not_utf8(path) -> ParseError:
    """The error for a text file that failed to decode as UTF-8: ``path:line`` of the first bad line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})")
    return ParseError(f"{path}: not UTF-8 text")


def read_csv(path, header) -> list[tuple[int, list[str]]]:
    """``(line number, cells)`` of each non-blank data row of ``path``.

    Cells are split at commas and stripped, so CRLF line ends and spaces
    around cells are accepted; nothing is quoted.

    Raises:
        ParseError: ``path:1`` for a header other than ``header``, or
            ``path:line`` for a row with a different number of cells or
            bytes that are not UTF-8.
    """
    header = list(header)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [[c.strip() for c in line.split(",")] for line in fh]
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    if lines[:1] != [header]:
        got = ",".join(lines[0]) if lines else ""
        raise ParseError(f"{path}:1: expected header {','.join(header)!r}, got {got!r}")
    rows = [(lineno, cells) for lineno, cells in enumerate(lines[1:], start=2) if cells != [""]]
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
    return rows
