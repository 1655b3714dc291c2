"""The benchmark's tracer wraps public entry points by name; a rename must
fail here, in the test suite, rather than only inside a benchmark run."""
from __future__ import annotations

from pathlib import Path

import pytest

from levyfock import fock

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_every_traced_site_exists(tracer):
    for span, attribute, owners in tracer.SITES:
        for owner in owners:
            assert hasattr(tracer._owner(owner), attribute), f"{span}: {owner}.{attribute}"


def test_shape_reads_exist():
    assert callable(fock.FockSpace.block_keys)
    assert callable(fock.FockSpace.basis)
