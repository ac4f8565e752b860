"""Peak traced allocation of one call.

NumPy reports its array buffers to :mod:`tracemalloc`, so the peak counts
every array a call holds at once, temporaries included.
"""

from __future__ import annotations

import tracemalloc


def peak_bytes(call, *args, **kwargs):
    """``(result, peak)``: what ``call`` returns, and the most bytes it held at once."""
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        result = call(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - baseline
