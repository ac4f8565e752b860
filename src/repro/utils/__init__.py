"""Shared utilities: seeded RNG handling, formatting, run logs."""

from repro.utils.rng import RngFactory, as_rng
from repro.utils.formatting import format_bytes, format_count, format_duration
from repro.utils.runlog import RunLogger

__all__ = [
    "RngFactory",
    "as_rng",
    "format_bytes",
    "format_count",
    "format_duration",
    "RunLogger",
]
