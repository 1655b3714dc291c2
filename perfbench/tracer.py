"""Traced run: one levyfock CLI command in-process, with its layers timed.

The CLI's own ``main()`` runs the pipeline, so the traced work is the work
the timed runs do.  Before it runs, timing wrappers replace the public
entry points of each layer on every module or class that calls them by
name; they are put back afterwards.  Nothing in the package changes.

Spans nest: each records its parent, and a layer's self time is its
duration minus the time its child spans cover.  Names reached once per
block or per pair (``HOT``) keep only a call count and totals; every other
span is kept whole and written out with the metrics.

Usage: python tracer.py OUT.json CLI-ARGUMENT...

Exits with the CLI's exit code after writing OUT.json.
"""
from __future__ import annotations

import builtins
import functools
import importlib
import json
import resource
import sys
import time

# (span name, attribute, owners on which the attribute is replaced).  Owners
# are named, not imported, so the harness can read the metric names without
# loading levyfock (and numpy) into its own process.
SITES = (
    ("measures.gauss_laguerre_gamma", "gauss_laguerre_gamma", ("measures", "cli")),
    ("orthopoly.stieltjes", "stieltjes", ("orthopoly", "cli")),
    ("fock.partitions", "partitions", ("fock",)),
    ("fock.space_init", "__init__", ("fock.FockSpace",)),
    ("fock.block_basis", "block_basis", ("fock",)),
    ("fock.embed_symmetric", "embed_symmetric", ("fock.FockSpace",)),
    ("fock.level_inner_product", "level_inner_product", ("fock", "cli")),
    ("jacobi.annihilation", "annihilation", ("jacobi", "cli")),
    ("jacobi.neutral", "neutral", ("jacobi", "cli")),
    ("jacobi.creation", "creation", ("jacobi", "cli")),
    ("jacobi.full", "full", ("jacobi", "cli")),
    ("jacobi.apply", "apply", ("jacobi.FieldOperator",)),
    ("jacobi.vacuum_moments", "vacuum_moments", ("jacobi", "cli")),
    ("jacobi.symmetry_defect", "symmetry_defect", ("jacobi", "cli")),
    ("jacobi.adjoint_defect", "adjoint_defect", ("jacobi", "cli")),
    ("jacobi.export_lines", "export_lines", ("jacobi", "cli")),
    ("moments.chaos_inner_product", "chaos_inner_product", ("moments", "cli")),
    ("cli.render", "render", ("cli.Report",)),
)
WRITE_SPAN = "cli.write"
HOT = frozenset(
    {
        "fock.block_basis",
        "fock.embed_symmetric",
        "fock.level_inner_product",
        "jacobi.apply",
        "moments.chaos_inner_product",
    }
)
# Per-layer metrics besides one ``<span>.self_s`` per span name.
COUNTS = (
    "fock.block_basis.calls",
    "fock.block_basis.misses",
    "jacobi.apply.calls",
    "moments.chaos_inner_product.calls",
    "jacobi.full.rss_mb",
    "fock.blocks",
    "fock.dim",
    "jacobi.nnz",
)
# Shape counts read through a wrapped name's hook.
READ_THROUGH = {
    "fock.blocks": "fock.space_init",
    "fock.dim": "fock.space_init",
    "jacobi.nnz": "jacobi.export_lines",
}
SPAN_NAMES = tuple(name for name, _, _ in SITES) + (WRITE_SPAN,)
METRICS = tuple(f"{name}.self_s" for name in SPAN_NAMES) + COUNTS


def unit(name: str) -> str:
    """Unit of a benchmark metric, read off its suffix."""
    return "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else "count"


def _owner(path: str):
    """``"fock"`` is the module levyfock.fock, ``"fock.FockSpace"`` a class in it."""
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"levyfock.{module}")
    return getattr(owner, cls) if cls else owner


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span stack, per-name totals and the wrappers that feed them."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, seconds covered by child spans]
        self.totals: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._ids = 0

    def begin(self) -> float:
        self._ids += 1
        self.stack.append([self._ids, 0.0])
        return time.perf_counter()

    def end(self, name: str, start: float) -> None:
        stop = time.perf_counter()
        span_id, covered = self.stack.pop()
        duration = stop - start
        if self.stack:
            self.stack[-1][1] += duration
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - covered
        if name not in HOT:
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append(
                {"id": span_id, "parent": parent, "name": name, "start": start, "end": stop}
            )

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(name, start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, name: str, attribute: str, owners: list, after=None) -> None:
        original = getattr(owners[0], attribute, None)
        if original is None:
            self.missing.append(name)
            return
        traced = self.wrap(name, original, after)
        for owner in owners:
            if getattr(owner, attribute, None) is original:
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, traced)

    def patch_report_write(self, cli) -> None:
        """Time the CLI's report write, from ``open`` to close.

        The CLI calls the builtin ``open`` by name; a module attribute of
        the same name takes precedence for that module only.  Opens for
        reading (the configuration) go straight to the builtin, untimed.
        """
        tracer = self

        class TimedFile:
            def __init__(self, args, kwargs):
                self.start = tracer.begin()
                try:
                    self.handle = builtins.open(*args, **kwargs)
                except BaseException:
                    tracer.end(WRITE_SPAN, self.start)
                    raise

            def __enter__(self):
                return self.handle.__enter__()

            def __exit__(self, *exc):
                try:
                    return self.handle.__exit__(*exc)
                finally:
                    tracer.end(WRITE_SPAN, self.start)

        def timed_open(*args, **kwargs):
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
            if not set(mode) & set("wax+"):
                return builtins.open(*args, **kwargs)
            return TimedFile(args, kwargs)

        self._patches.append((cli, "open", None))
        cli.open = timed_open

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()


def traced_main(argv: list[str]) -> tuple[int, dict]:
    cli = _owner("cli")
    fock = _owner("fock")
    tracer = Tracer()
    spaces = []
    shape = {"jacobi.full.rss_mb": 0.0, "jacobi.nnz": 0}

    def after_full(_args, _result):
        shape["jacobi.full.rss_mb"] = max(shape["jacobi.full.rss_mb"], _peak_rss_mb())

    def after_export(_args, lines):
        shape["jacobi.nnz"] = sum(1 for line in lines if not line.startswith("#"))

    hooks = {
        "fock.space_init": lambda args, _result: spaces.append(args[0]),
        "jacobi.full": after_full,
        "jacobi.export_lines": after_export,
    }
    block_basis = getattr(fock, "block_basis", None)
    for name, attribute, owners in SITES:
        tracer.patch(name, attribute, [_owner(o) for o in owners], hooks.get(name))
    tracer.patch_report_write(cli)
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()

    metrics = {f"{name}.self_s": tracer.totals.get(name, [0, 0.0, 0.0])[2] for name in SPAN_NAMES}
    metrics.update(shape)
    for name in ("fock.block_basis", "jacobi.apply", "moments.chaos_inner_product"):
        metrics[f"{name}.calls"] = tracer.totals.get(name, [0])[0]
    # Without a cache every call computes its basis, so every call is a miss.
    cache_info = getattr(block_basis, "cache_info", None)
    metrics["fock.block_basis.misses"] = (
        cache_info().misses if cache_info else metrics["fock.block_basis.calls"]
    )
    if spaces:
        space = spaces[-1]
        metrics["fock.blocks"] = len(space.block_keys())
        metrics["fock.dim"] = sum(space.basis(alpha).dim for _, alpha in space.block_keys())
    # A name that could not be wrapped was never timed: its metrics, and the
    # shape counts read through it, are left out rather than read as zero,
    # and the harness fails the run.
    for name in tracer.missing:
        for metric in list(metrics):
            if metric.startswith(f"{name}.") or READ_THROUGH.get(metric) == name:
                del metrics[metric]
    record = {"metrics": metrics, "spans": tracer.spans, "unwrapped": tracer.missing}
    return code, record


def main(out_path: str, argv: list[str]) -> int:
    code, record = traced_main(argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
