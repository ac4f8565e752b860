"""Documentation reference checks: docs must not rot.

Six guarantees, run with the rest of ``tests/``
(``python -m pytest tests/test_docs_refs.py`` alone):

* every dotted ``repro.*`` reference in ``ARCHITECTURE.md`` and ``docs/``
  resolves — the module imports and any trailing attribute chain exists;
* every repo-relative file path those documents mention exists;
* no document carries two ``##`` sections under one heading (a stale copy of
  a plane once sat under the current one, describing the design before last);
* the doctests embedded in :mod:`repro.compression` pass;
* every ``examples/*.py`` imports (they are ``__main__``-guarded, so importing
  one resolves every name it uses from the library without running it), and
  ``examples/population_scale.py``, which hands worker shards to a client
  directory, runs;
* ``ARCHITECTURE.md``'s strategy × topology matrix says what
  :func:`repro.composition.allows` says.
"""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import repro.compression

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documents whose references are checked.
DOC_FILES = sorted(
    [REPO_ROOT / "ARCHITECTURE.md", *(REPO_ROOT / "docs").glob("*.md")]
)

#: Dotted ``repro.something[.more]`` references (module paths, classes,
#: functions).  A trailing ``.py`` match is a file path, handled separately.
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+\b")

#: Dotted strings that are serialization format identifiers, not Python
#: references (the ``"format"`` fields of the emitted JSON documents).
FORMAT_IDENTIFIERS = {"repro.bench"}

#: Backtick-quoted repo paths: anything with a slash or a known suffix.
PATH_RE = re.compile(
    r"`([A-Za-z0-9_.\-/]+\.(?:py|md|json|yml|yaml|ini|cfg|toml))`"
)


def _doc_text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _dotted_references() -> list:
    references = set()
    for doc in DOC_FILES:
        for match in DOTTED_RE.finditer(_doc_text(doc)):
            reference = match.group(0)
            if reference.endswith(".py"):
                continue  # a file path caught by the path check
            if reference in FORMAT_IDENTIFIERS:
                continue
            references.add((doc.name, reference))
    return sorted(references)


def _path_references() -> list:
    references = set()
    for doc in DOC_FILES:
        for match in PATH_RE.finditer(_doc_text(doc)):
            path = match.group(1)
            # Emitted artifacts (BENCH_*.json) exist only after a bench run on
            # a given machine; the docs may reference them by name.
            if Path(path).name.startswith("BENCH_"):
                continue
            references.add((doc.name, path))
    return sorted(references)


def _resolve(reference: str) -> None:
    """Import the longest module prefix, then getattr the remainder."""
    parts = reference.split(".")
    module = None
    consumed = 0
    for end in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:end]))
            consumed = end
            break
        except ModuleNotFoundError:
            continue
    assert module is not None, f"no importable module prefix in {reference!r}"
    obj = module
    for attribute in parts[consumed:]:
        assert hasattr(obj, attribute), (
            f"{reference!r}: {'.'.join(parts[:consumed])} has no attribute "
            f"{attribute!r}"
        )
        obj = getattr(obj, attribute)


def test_docs_exist():
    assert DOC_FILES, "expected ARCHITECTURE.md and docs/*.md to exist"
    names = {doc.name for doc in DOC_FILES}
    assert "ARCHITECTURE.md" in names
    assert "paper_map.md" in names


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda doc: doc.name)
def test_section_headings_are_unique(doc):
    headings = re.findall(r"^## .*$", _doc_text(doc), flags=re.MULTILINE)
    repeated = sorted({heading for heading in headings if headings.count(heading) > 1})
    assert not repeated, f"{doc.name} has two sections headed {repeated}"


@pytest.mark.parametrize(
    "doc, reference", _dotted_references(), ids=lambda value: str(value)
)
def test_dotted_reference_resolves(doc, reference):
    _resolve(reference)


@pytest.mark.parametrize(
    "doc, path", _path_references(), ids=lambda value: str(value)
)
def test_referenced_path_exists(doc, path):
    # Source paths may be written repo-relative or src-relative (repro/...).
    candidates = (REPO_ROOT / path, REPO_ROOT / "src" / path)
    assert any(candidate.exists() for candidate in candidates), (
        f"{doc} references missing path {path!r}"
    )


@pytest.mark.parametrize(
    "module_name",
    sorted(
        f"repro.compression.{info.name}"
        for info in pkgutil.iter_modules(repro.compression.__path__)
    )
    + ["repro.compression"],
)
def test_compression_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module_name}: {results.failed} doctest failures"


def test_compression_package_has_doctests():
    """The doctest check must actually exercise examples, not vacuously pass."""
    total = 0
    for info in pkgutil.iter_modules(repro.compression.__path__):
        module = importlib.import_module(f"repro.compression.{info.name}")
        finder = doctest.DocTestFinder()
        total += sum(len(test.examples) for test in finder.find(module))
    assert total >= 5, f"expected >= 5 doctest examples in repro/compression, found {total}"


@pytest.mark.parametrize(
    "example", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda path: path.name
)
def test_example_imports(example):
    module = _import_example(example)
    assert callable(getattr(module, "main", None)), f"{example.name} defines no main()"


def test_the_shard_consuming_example_runs(capsys):
    # Its worker shards (row views of the training set) go into a client
    # directory and train again there; importing checks none of that.
    _import_example(REPO_ROOT / "examples" / "population_scale.py").main()
    assert "still bit-identical" in capsys.readouterr().out


def _import_example(example: Path):
    spec = importlib.util.spec_from_file_location(f"examples_{example.stem}", example)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ARCHITECTURE.md Plane 4's matrix rows → the strategy class whose ``features``
#: the row shows (``None``: the served coordinator, feature ``"served"``).
_MATRIX_ROWS = {
    "Synchronous (BSP)": "SynchronousStrategy",
    "Local-SGD": "LocalSGDStrategy",
    "FDA (linear / sketch / exact)": "FDAStrategy",
    "Asynchronous / served FDA (`ServedFDATrainer`)": None,
    "FedOpt (FedAvgM/FedAdam)": "FedOptStrategy",
    "FedProx": "FedProxStrategy",
    "SCAFFOLD": "ScaffoldStrategy",
}


def test_the_strategy_topology_matrix_is_the_composition_table():
    import repro.strategies as strategies
    from repro.composition import TOPOLOGY_FEATURES, allows

    text = _doc_text(REPO_ROOT / "ARCHITECTURE.md")
    header = "| Strategy | " + " | ".join(TOPOLOGY_FEATURES) + " |"
    assert header in text, f"ARCHITECTURE.md lost the matrix header {header!r}"
    lines = text[text.index(header):].splitlines()[2:]
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0]] = [cell.startswith("✓") for cell in cells[1: 1 + len(TOPOLOGY_FEATURES)]]
    assert set(rows) == set(_MATRIX_ROWS)
    for row, class_name in _MATRIX_ROWS.items():
        added = ("served",) if class_name is None else getattr(strategies, class_name).features
        expected = [allows(*added, topology) for topology in TOPOLOGY_FEATURES]
        assert rows[row] == expected, f"{row}: the doc says {rows[row]}, the table {expected}"
