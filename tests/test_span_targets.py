"""Every span target of the traced benchmark names code that exists.

``bench/spans.py`` times a traced run by wrapping public methods and module
functions it names as ``(module, owner, attribute)`` strings.  A deleted or
renamed target fails only the traced run itself (``patch_targets`` raises
``LookupError``), which the ``slow`` benchmark contract reaches and tier-1
does not.  Here every target is patched with the identity wrapper and
restored, so a deletion under ``src/`` that a span still names fails fast.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("span", sorted(spans.SPAN_TARGETS))
def test_every_span_target_resolves_and_restores(span):
    targets = spans.SPAN_TARGETS[span]
    patched = spans.patch_targets(targets, lambda original: original)
    originals = [(owner, attribute, original) for owner, attribute, original in patched]
    try:
        wrapped = {attribute for _, attribute, _ in patched}
        assert wrapped == {attribute for _, _, attribute in targets}
    finally:
        spans.restore(patched)
    assert not patched
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original, f"{span}: {attribute} was not restored"
