"""The report that every evaluation and CLI subcommand returns; kept
out of ``harness`` so that building one does not load the evaluations."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

REPORT_VERSION = 1


@dataclass
class EvalReport:
    task: str
    metrics: dict = field(default_factory=dict)
    per_seed: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def __post_init__(self):
        for k, v in self.metrics.items():
            if not np.isfinite(v):
                raise ValidationError(f"metric {k!r} is not finite")

    def lines(self):
        """Machine-readable key<TAB>value lines (wall clock excluded)."""
        out = [f"#version {REPORT_VERSION}", f"task\t{self.task}"]
        for k in sorted(self.config):
            out.append(f"config.{k}\t{self.config[k]}")
        for k in sorted(self.metrics):
            out.append(f"{k}\t{_fmt(self.metrics[k])}")
        for k in sorted(self.per_seed):
            vals = ",".join(_fmt(v) for v in self.per_seed[k])
            out.append(f"per_seed.{k}\t{vals}")
        return out

    def summary(self):
        bits = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(
            self.metrics.items()))
        return f"{self.task}: {bits} ({self.wall_clock:.2f}s)"


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)
