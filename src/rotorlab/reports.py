"""Structured pass/fail reports and run configuration.

Reports render to a deterministic key = value text block per check, so an
identical (command, config, seed) triple always produces byte-identical
output.  The run configuration merges, in increasing priority: defaults,
a key=value config file, the ROTORLAB_SEED environment variable, and
explicit command-line flags.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

SEED_ENV_VAR = "ROTORLAB_SEED"


@dataclass(frozen=True)
class Report:
    """One check: pass iff the maximum residual is within tolerance."""

    name: str
    residual: float
    tolerance: float
    seed: int = 0
    inputs: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "pass" if self.residual <= self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def render_reports(reports) -> str:
    """Deterministic text document, one [check] object per report."""
    blocks = []
    for r in reports:
        lines = [
            "[check]",
            f"name = {r.name}",
            f"status = {r.status}",
            f"residual = {_fmt(float(r.residual))}",
            f"tolerance = {_fmt(float(r.tolerance))}",
            f"seed = {r.seed}",
        ]
        for key in sorted(r.inputs):
            lines.append(f"inputs.{key} = {_fmt(r.inputs[key])}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)


@dataclass(frozen=True)
class RunConfig:
    M: float = 1.0
    ell: float = 1.0
    nu: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.M < math.inf and 0.0 < self.ell < math.inf
                and math.isfinite(self.nu)):
            raise ValueError(f"M = {self.M} and ell = {self.ell} must be positive "
                             f"and nu = {self.nu} finite")
        # the mass and spin scales M^2 and M^4 ell^2, with the powers they are
        # computed from: float ** raises on overflow and a zero scale divides
        M2, ell2 = self.M * self.M, self.ell * self.ell
        if not all(0.0 < s < math.inf for s in (M2, M2 * M2, ell2, M2 * M2 * ell2)):
            raise ValueError(f"M = {self.M} and ell = {self.ell} put the scales "
                             f"M^2 and M^4 ell^2 outside the floating-point range")


# config-file keys, with their parsers
_KEYS = {"M": float, "ell": float, "nu": float, "seed": int}


def load_config(path=None, overrides=None) -> RunConfig:
    """Defaults <- config file <- ROTORLAB_SEED <- explicit overrides."""
    data = {}
    if path:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in _KEYS:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                data[key] = _KEYS[key](raw)
    if SEED_ENV_VAR in os.environ:
        data["seed"] = int(os.environ[SEED_ENV_VAR])
    for key, val in (overrides or {}).items():
        if val is not None:
            data[key] = val
    return RunConfig(**data)
