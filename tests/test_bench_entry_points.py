"""The benchmark's tracer wraps public entry points by name; a rename must
fail here, in the test suite, rather than only inside a benchmark run."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from levyfock import GridSpace, JumpMeasure, fock, stieltjes

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
    # the tracer reads fock.blocks and fock.dim through these; they must
    # agree with the space's own count
    measure = JumpMeasure((-1.0, 0.5, 2.0), (0.6, 0.9, 0.4))
    grid = GridSpace((0.7, 1.1, 1.3))
    space = fock.FockSpace(grid, measure, stieltjes(measure, 3), 5)
    blocks, dim, _ = fock._count(grid.size, 5, 3)
    assert len(space.block_keys()) == blocks
    assert sum(space.basis(alpha).dim for _, alpha in space.block_keys()) == space.dim == dim


def test_space_lists_blocks_through_partitions(monkeypatch):
    # the tracer's fock.partitions span times the module attribute, so a
    # space must reach its blocks through it, once per level
    calls = []
    original = fock.partitions

    def counted(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return original(*args, **kwargs)

    monkeypatch.setattr(fock, "partitions", counted)
    measure = JumpMeasure((-1.0, 0.5, 2.0), (0.6, 0.9, 0.4))
    space = fock.FockSpace(GridSpace((0.7, 1.1)), measure, stieltjes(measure, 3), 4)
    assert calls == [(n, 3) for n in range(5)]
    assert [space.blocks(n) for n in range(5)] == [original(n, 3) for n in range(5)]


def test_setup_probe_runs_every_workload(monkeypatch, tmp_path):
    # the probe behind setup_s reads the configuration, the table and the
    # space by name; run it as the benchmark does, on this checkout's src
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    src = PERFBENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    for name, workload in workloads.WORKLOADS.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(workload.generate(11).config_text(), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(PERFBENCH / "probe.py"), str(config)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, (name, result.stderr)
        imported = Path(json.loads(result.stdout.splitlines()[-1])["levyfock"]).resolve()
        assert imported == src / "levyfock" / "__init__.py", name
