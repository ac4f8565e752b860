"""Declarative compression configuration and the kernel factory.

Everything above the kernels — :class:`~repro.experiments.setup.WorkloadConfig`,
the CLI, sweeps, persisted :class:`~repro.experiments.run.RunResult` records —
describes compression as data, not objects: a :class:`CompressionConfig`
naming the kernel, its knob (``ratio`` for the sparsifiers, ``bits`` for
quantization), and whether per-worker error-feedback memory is kept.
:func:`get_compression` normalizes the spellings callers use (a bare kernel
name, a config, ``None``/``"none"``), and :func:`make_compressor` builds the
actual :class:`~repro.compression.kernels.Compressor`.

>>> config = get_compression("topk")
>>> config.describe()
'topk(ratio=0.1)'
>>> get_compression(CompressionConfig("quantization", bits=4, error_feedback=True)).describe()
'quantization(bits=4)+ef'
>>> get_compression("none") is None and get_compression(None) is None
True
>>> make_compressor(config).name
'topk'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.compression.kernels import (
    Compressor,
    LayerwiseTopKCompressor,
    QuantizationCompressor,
    RandomKCompressor,
    SignCompressor,
    TopKCompressor,
)
from repro.exceptions import ConfigurationError

#: Kernel names accepted by :class:`CompressionConfig` / the CLI.
NAMED_COMPRESSORS = ("quantization", "topk", "randomk", "signsgd", "layerwise-topk")

#: Kernels whose knob is ``ratio`` (kept fraction) rather than ``bits``.
_SPARSIFIERS = ("topk", "randomk", "layerwise-topk")


@dataclass(frozen=True)
class CompressionConfig:
    """One compression setting, serializable and hashable.

    ``compressor`` names the kernel (:data:`NAMED_COMPRESSORS`); ``ratio`` is
    the kept fraction for the sparsifiers, ``bits`` the width for
    quantization (each ignored by kernels that do not use it);
    ``error_feedback`` keeps a per-worker residual matrix on the cluster so
    the dropped mass re-enters later payloads; ``seed`` feeds the
    coordinated random-k stream.
    """

    compressor: str = "topk"
    ratio: float = 0.1
    bits: int = 8
    error_feedback: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.compressor not in NAMED_COMPRESSORS:
            raise ConfigurationError(
                f"unknown compressor {self.compressor!r}; known: {sorted(NAMED_COMPRESSORS)}"
            )
        if not 0.0 < float(self.ratio) <= 1.0:
            raise ConfigurationError(f"ratio must lie in (0, 1], got {self.ratio}")
        # bits=1 leaves no representable quantization level (the kernel-level
        # levels= escape hatch is not exposed here), so reject it eagerly —
        # configs must fail where they are defined, not mid-sweep.
        if not 2 <= int(self.bits) <= 32:
            raise ConfigurationError(f"bits must lie in [2, 32], got {self.bits}")

    def describe(self) -> str:
        """Compact label used by reports and persisted results.

        Only the knob the named kernel actually reads is shown — ``ratio``
        for the sparsifiers, ``bits`` for quantization, nothing for sign+norm
        (whose payload is fixed at one bit per element plus a scale).
        """
        if self.compressor in _SPARSIFIERS:
            knob = f"ratio={self.ratio:g}"
        elif self.compressor == "quantization":
            knob = f"bits={self.bits}"
        else:
            knob = ""
        suffix = "+ef" if self.error_feedback else ""
        return f"{self.compressor}({knob}){suffix}" if knob else f"{self.compressor}{suffix}"


#: Anything callers may pass where a compression setting is expected.
CompressionSpec = Union[None, str, CompressionConfig]


def get_compression(spec: CompressionSpec) -> Optional[CompressionConfig]:
    """Resolve a compression spec into a :class:`CompressionConfig` (or ``None``).

    Accepts ``None`` / ``"none"`` (no compression), a kernel name with default
    knobs, or an explicit config (returned as-is).
    """
    if spec is None:
        return None
    if isinstance(spec, CompressionConfig):
        return spec
    name = str(spec)
    if name == "none":
        return None
    return CompressionConfig(compressor=name)


def make_compressor(config: CompressionConfig) -> Compressor:
    """Instantiate the kernel a config describes.

    The layer-wise kernel comes back *unbound*; the cluster binds the model's
    parameter layout before first use (see
    :class:`~repro.compression.state.ClusterCompression`).
    """
    if config.compressor == "quantization":
        return QuantizationCompressor(bits=config.bits)
    if config.compressor == "topk":
        return TopKCompressor(fraction=config.ratio)
    if config.compressor == "randomk":
        return RandomKCompressor(fraction=config.ratio, seed=config.seed)
    if config.compressor == "signsgd":
        return SignCompressor()
    if config.compressor == "layerwise-topk":
        return LayerwiseTopKCompressor(fraction=config.ratio)
    raise ConfigurationError(  # pragma: no cover - __post_init__ screens names
        f"unknown compressor {config.compressor!r}"
    )
