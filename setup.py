"""Setup shim.

Package metadata lives in ``setup()`` below; this file exists so that
``python setup.py develop`` works in fully offline environments where pip's
PEP 660 editable-install path is unavailable (it requires the ``wheel``
package, which may not be installed).
"""

from setuptools import setup

#: README section: shown as the package's long description on index pages.
LONG_DESCRIPTION = """\
# repro — Federated Dynamic Averaging, reproduced and grown

A pure-NumPy reproduction of *Communication-Efficient Distributed Deep
Learning via Federated Dynamic Averaging* (EDBT 2025), grown into a
simulation substrate: a zero-copy parameter plane with `(K, d)` cluster
matrices, sequential and batched execution engines, a topology-aware
communication fabric with a unified virtual-time engine, and a
collective-level compression subsystem (top-k / random-k / quantization /
sign+norm / layer-wise top-k with error feedback) that every strategy —
FDA, BSP, Local-SGD, FedOpt, FedProx, SCAFFOLD — picks up uniformly.

- **Architecture:** see `ARCHITECTURE.md` (the five planes: parameter plane
  → engines → fabric/timeline → strategies → experiments).
- **Paper map:** see `docs/paper_map.md` for every paper figure/table mapped
  to its benchmark module (`benchmarks/test_bench_fig*.py`), CLI invocation
  (`python -m repro.cli figureN` / `compare` / `fabric` / `compression`),
  and emitted `BENCH_*.json` key.
- **Verify:** `PYTHONPATH=src python -m pytest -x -q`.
"""

setup(
    long_description=LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    install_requires=["numpy", "scipy"],
)
