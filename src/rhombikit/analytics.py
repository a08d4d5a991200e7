"""Locomotion-trial analytics: tracked center-of-mass trajectories in,
per-design summary tables out.

Distance traveled is the chord-sum of the track, net displacement the
straight line from first to last sample, and the turning direction comes
from the accumulated signed change of the heading (marker heading when
the data carries one, velocity direction otherwise). Summaries report
mean and sample standard deviation (N-1 divisor; with six trials per
design the divisor choice is material, so it is fixed and documented
here rather than left to a library default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ValidationError
from .geometry import ContactType, _frozen
from .lattice import _as_int, _as_real, _echo

if TYPE_CHECKING:
    import numpy as np


class RotationDirection(Enum):
    CW = "CW"
    CCW = "CCW"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Trajectory:
    """One tracked trial: strictly increasing timestamps, positions in cm,
    optional per-sample marker heading in radians; every sample finite."""

    trial_id: str
    t: np.ndarray
    xy: np.ndarray
    heading: np.ndarray | None = None

    def __post_init__(self) -> None:
        import numpy as np

        trial = f"trial {_echo(self.trial_id)}"
        t = _frozen(self.t)
        xy = _frozen(self.xy)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "xy", xy)
        if t.ndim != 1 or xy.shape != (len(t), 2):
            raise ValidationError(f"{trial}: need t (N,) and xy (N, 2) samples")
        if len(t) < 2:
            raise ValidationError(f"{trial}: fewer than 2 samples")
        samples = [t, xy]
        if self.heading is not None:
            h = _frozen(self.heading)
            object.__setattr__(self, "heading", h)
            if h.shape != t.shape:
                raise ValidationError(f"{trial}: heading length mismatch")
            samples.append(h)
        if not all(np.isfinite(a).all() for a in samples):
            raise ValidationError(f"{trial}: samples must be finite numbers")
        if not np.all(np.diff(t) > 0):
            raise ValidationError(f"{trial}: timestamps not strictly increasing")

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])


def path_length(tr: Trajectory) -> float:
    """Total distance traveled: sum of distances between consecutive samples."""
    import numpy as np

    return float(np.linalg.norm(np.diff(tr.xy, axis=0), axis=1).sum())


def net_displacement(tr: Trajectory) -> float:
    """Straight-line distance between the first and last sample."""
    import numpy as np

    return float(np.linalg.norm(tr.xy[-1] - tr.xy[0]))


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    """Wrap angle increments into (-pi, pi]."""
    w = (d + math.pi) % (2.0 * math.pi) - math.pi
    w[w == -math.pi] = math.pi
    return w


_MIN_STEP = 0.05  # cm: shorter velocity steps give no usable heading


def rotation_direction(
    tr: Trajectory, theta_min: float = math.pi
) -> RotationDirection:
    """Net turning sense of the trial.

    Accumulates wrapped heading increments; counterclockwise when the sum
    exceeds +theta_min, clockwise below -theta_min, else indeterminate.
    theta_min defaults to half a turn, which is a judgment call: any
    per-trial turn label depends on a threshold like this one, so it is
    exposed rather than baked in. Marker headings are used verbatim when
    present; otherwise headings come from velocity directions, skipping
    steps shorter than 0.05 cm where the direction estimate would be
    noise. theta_min must be finite and nonnegative.
    """
    import numpy as np

    if _as_real(theta_min, "theta_min") < 0.0:
        raise ValidationError(
            f"theta_min must be finite and >= 0, got {_echo(theta_min)}"
        )
    if tr.heading is not None:
        headings = tr.heading
    else:
        steps = np.diff(tr.xy, axis=0)
        keep = np.linalg.norm(steps, axis=1) >= _MIN_STEP
        steps = steps[keep]
        headings = np.arctan2(steps[:, 1], steps[:, 0])
    if len(headings) < 2:
        return RotationDirection.INDETERMINATE
    total = float(_wrap_angle(np.diff(headings)).sum())
    if total > theta_min:
        return RotationDirection.CCW
    if total < -theta_min:
        return RotationDirection.CW
    return RotationDirection.INDETERMINATE


@dataclass(frozen=True)
class TrialStats:
    distance: float
    net_displacement: float
    rotation: RotationDirection
    duration: float

    def __post_init__(self) -> None:
        if not (self.distance + 1e-9 >= self.net_displacement >= 0.0):
            raise ValidationError(
                "trial stats violate distance >= net displacement >= 0"
            )


def trial_stats(tr: Trajectory, theta_min: float = math.pi) -> TrialStats:
    return TrialStats(
        distance=path_length(tr),
        net_displacement=net_displacement(tr),
        rotation=rotation_direction(tr, theta_min),
        duration=tr.duration,
    )


@dataclass(frozen=True)
class DesignMeta:
    """Morphology metadata for one design (not derivable from trials):
    int cell counts a float can hold, at least one active and no negative
    passive count, finite body measures kept as floats, and a ContactType."""

    name: str
    passive: int
    active: int
    body_length_cm: float
    body_weight_g: float
    contact: ContactType

    def __post_init__(self) -> None:
        for name, rule in (
            ("passive", _as_int), ("active", _as_int),
            ("body_length_cm", _as_real), ("body_weight_g", _as_real),
        ):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        for name in ("passive", "active"):  # ratio_text divides them as floats
            _as_real(getattr(self, name), name)
        if self.passive < 0 or self.active < 1:
            raise ValidationError(
                f"need passive >= 0 and active >= 1, got {_echo(self.passive)} and "
                f"{_echo(self.active)}"
            )
        if not isinstance(self.contact, ContactType):
            raise ValidationError(
                f"contact must be a ContactType, got {_echo(self.contact)}"
            )


@dataclass(frozen=True)
class DesignSummary:
    meta: DesignMeta
    trial_count: int
    mean_distance: float
    sd_distance: float | None
    mean_net_displacement: float
    sd_net_displacement: float | None

    @property
    def ratio_text(self) -> str:
        return f"{_fmt_number(self.meta.passive / self.meta.active)} to 1"


def _mean_sd(values: Sequence[float]) -> tuple[float, float | None]:
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if len(arr) == 1:
        return float(arr[0]), None
    return float(arr.mean()), float(arr.std(ddof=1))


def summarize(trials: Iterable[TrialStats], meta: DesignMeta) -> DesignSummary:
    """Aggregate one design's trials: mean and sample SD of both metrics."""
    stats = list(trials)
    if not stats:
        raise ValidationError(f"design {_echo(meta.name)} has no trials")
    mean_d, sd_d = _mean_sd([s.distance for s in stats])
    mean_n, sd_n = _mean_sd([s.net_displacement for s in stats])
    return DesignSummary(meta, len(stats), mean_d, sd_d, mean_n, sd_n)


# --------------------------------------------------------------------------
# report tables
# --------------------------------------------------------------------------


def _fmt_number(v: float) -> str:
    """Round to 2 decimals and trim trailing zeros: 2 / 2.5 / 2.33."""
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return s if s not in ("-0", "") else "0"


def _fmt_stat(mean: float, sd: float | None) -> str:
    if sd is None:
        return _fmt_number(mean)
    return f"{_fmt_number(mean)} +/- {_fmt_number(sd)} SD"


_ROWS = (
    ("No. of passive cells", lambda s: str(s.meta.passive)),
    ("No. of active cells", lambda s: str(s.meta.active)),
    ("Ratio of passive to active", lambda s: s.ratio_text),
    ("Body length (cm)", lambda s: _fmt_number(s.meta.body_length_cm)),
    ("Body weight (g)", lambda s: _fmt_number(s.meta.body_weight_g)),
    ("Type of surface contacts", lambda s: s.meta.contact.value.capitalize()),
    (
        "Avg. distance traveled (cm)",
        lambda s: _fmt_stat(s.mean_distance, s.sd_distance),
    ),
    (
        "Avg. net displacement (cm)",
        lambda s: _fmt_stat(s.mean_net_displacement, s.sd_net_displacement),
    ),
    ("No. of trials", lambda s: str(s.trial_count)),
)


def report_table(summaries: Sequence[DesignSummary], format: str = "markdown") -> str:
    """Fixed-row-order characterization table, one column per design."""
    if not summaries:
        raise ValidationError("no summaries to report")
    header = [""] + [s.meta.name for s in summaries]
    rows = [[label] + [cell(s) for s in summaries] for label, cell in _ROWS]
    if format == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    if format == "csv":
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["metric"] + header[1:])
        w.writerows(rows)
        return buf.getvalue()
    raise ValidationError(f"unknown table format {_echo(format)}")
