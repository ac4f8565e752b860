"""Dtype hygiene lint: no new hardcoded ``np.float64`` on the plane path.

The dtype-parametric refactor routes every hot-path allocation through the
plane dtype (``params.dtype`` / ``cluster.dtype`` /
``repro.backend.resolve_dtype``).  A hardcoded ``np.float64`` in plane-path
code silently upcasts a float32 run — a full-matrix copy plus doubled
bandwidth that no test of float64 mode would ever notice.  This lint greps
the source tree and fails on any ``np.float64`` outside the explicit
allowlist below, so new code must either thread the active dtype or document
itself here as deliberately float64.

The allowlist is the contract documented in ``repro/backend.py`` and
ARCHITECTURE.md: the seam itself, build-time initializers whose output is
re-cast once at plane construction, reference-path analysis that never runs
per step, and the few accumulators that deliberately stay double precision
(AMS sketch counters, per-worker loss scalars, the linear monitor's
direction ξ, timeline seconds).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules (relative to ``src/repro``) allowed to spell ``np.float64``.
#: Every entry must have a reason — this list is the documentation.
FLOAT64_ALLOWLIST = {
    # The seam itself: owns DEFAULT_DTYPE and the supported-dtype registry.
    "backend.py",
    # Build-time weight initializers: models are built float64 and converted
    # once by the parameter plane (the one sanctioned cast).
    "nn/initializers.py",
    # BatchNorm's pre-plane buffer allocation (rebound by the plane) and the
    # float64 default of Dropout.sample_mask's dtype parameter.
    "nn/layers.py",
    # Per-worker loss *scalars* deliberately accumulate in float64.
    "nn/losses.py",
    # Promote-to-float64 fallbacks for non-float inputs (int gradients, object
    # arrays); float32/float64 pass through untouched.
    "optim/base.py",
    "optim/server.py",
    "compression/kernels.py",
    # AMS sketch counters are float64 by proven-variance-bound design.
    "sketch/ams.py",
    # The linear monitor's analysis direction ξ stays float64, and so does the
    # exact monitor's widened drift (local-state rows are float64 by design).
    "core/monitor.py",
    # Reference-path analysis: offline, never on the per-step path.
    "core/theta.py",
    "core/variance.py",
    "experiments/results.py",
    "experiments/kde.py",
    # Dataset ingestion; batches are cast to the model dtype at forward time.
    "data/datasets.py",
    "data/features.py",
    # Virtual-time accounting (seconds, not streamed tensors).
    "core/timeline.py",
    # Fault-plane bookkeeping: crash clocks are virtual-time seconds, like
    # the timeline's — never part of a streamed tensor.
    "faults/injector.py",
    # Participation weights (population plane): O(K) sample-count vectors
    # normalized in double precision, cast to the plane dtype only at the
    # weighted-mean matmul — never a streamed (K, d) tensor.
    "distributed/participation.py",
    # Serving plane: latency percentiles / P² marker heights are virtual-time
    # seconds (the core/timeline.py rationale), never a streamed (K, d) tensor.
    "serving/harness.py",
    "serving/metrics.py",
}

_PATTERN = re.compile(r"np\.float64")


def _code_lines(path: Path):
    """Source lines with trailing ``#`` comments stripped (strings kept)."""
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        yield number, line.split("#", 1)[0]


def test_no_new_hardcoded_float64_outside_the_allowlist():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT).as_posix()
        if relative in FLOAT64_ALLOWLIST:
            continue
        for number, code in _code_lines(path):
            if _PATTERN.search(code):
                offenders.append(f"src/repro/{relative}:{number}: {code.strip()}")
    assert not offenders, (
        "hardcoded np.float64 on the plane path — thread the active dtype "
        "(params.dtype / cluster.dtype / repro.backend.resolve_dtype) or add "
        "the module to FLOAT64_ALLOWLIST with a reason:\n" + "\n".join(offenders)
    )


def test_allowlist_entries_exist():
    """Stale allowlist entries hide future regressions — prune them."""
    missing = [entry for entry in FLOAT64_ALLOWLIST if not (SRC_ROOT / entry).exists()]
    assert not missing, f"FLOAT64_ALLOWLIST names deleted modules: {missing}"


# ---------------------------------------------------------------------------
# No ``pow`` on the plane path
#
# ``x**3`` (any exponent but 2, which numpy lowers to a multiply) and
# ``np.power`` on an ndarray are libm ``pow``: ~60 ns per element, 170x the
# ``tanh`` beside it in GELU, which once made that one operator half of a
# sweep cell.  Spell small integer powers as products.  The lint flags every
# ``**`` whose exponent is not the literal ``2`` and every ``np.power`` /
# ``np.float_power`` call in the modules that touch (K, d) or (K, B, units)
# tensors; the allowlist names the Python-*scalar* powers that remain.
# ---------------------------------------------------------------------------

#: Directories / modules (relative to ``src/repro``) the pow lint covers.
POW_LINTED = ("nn", "optim", "compression", "sketch", "core", "faults", "backend.py")

#: ``(module, expression)`` pairs allowed to call ``pow``.  All are Python
#: scalars, evaluated once per step or once per object — never per element.
POW_ALLOWLIST = {
    # Adam/AdamW bias corrections: float beta ** int step, per row.
    # Deliberately the scalar libm pow — numpy's SIMD float64 pow differs from
    # it in the last ulp, which would make a row depend on its stack's size.
    ("optim/adam.py", "b**t"),
    # Quantization level count: a Python int, once per compressor.
    ("compression/kernels.py", "2 ** (int(bits) - 1)"),
    # AMS failure probability delta = 2^(-depth/2): a float property.
    ("sketch/ams.py", "2.0 ** (-self.depth / 2.0)"),
    # Retransmission back-off 2^i over a handful of attempts.
    ("faults/injector.py", "2.0 ** i"),
}


def _lowers_to_pow(node: ast.AST) -> bool:
    """``a ** b`` with ``b`` anything but the literal 2, or an ``np.power`` call."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
        exponent = node.right if isinstance(node, ast.BinOp) else node.value
        return not (isinstance(exponent, ast.Constant) and exponent.value == 2)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("power", "float_power")
    )


def _pow_sites():
    """Every ``(module, expression, line)`` on the linted path that lowers to ``pow``."""
    for entry in POW_LINTED:
        root = SRC_ROOT / entry
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            relative = path.relative_to(SRC_ROOT).as_posix()
            for node in ast.walk(ast.parse(source)):
                if _lowers_to_pow(node):
                    yield relative, ast.get_source_segment(source, node), node.lineno


def test_no_pow_on_the_plane_path():
    offenders = [
        f"src/repro/{module}:{line}: {expression}"
        for module, expression, line in _pow_sites()
        if (module, expression) not in POW_ALLOWLIST
    ]
    assert not offenders, (
        "libm pow on the plane path — spell the power as products (x*x*x), or, "
        "for a Python scalar, add it to POW_ALLOWLIST with a reason:\n" + "\n".join(offenders)
    )


def test_pow_allowlist_entries_are_live():
    """Stale allowlist entries hide future regressions — prune them."""
    live = {(module, expression) for module, expression, _ in _pow_sites()}
    assert not POW_ALLOWLIST - live, f"POW_ALLOWLIST names vanished code: {POW_ALLOWLIST - live}"
