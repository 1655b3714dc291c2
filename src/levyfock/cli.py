"""Batch front door: load a configuration, run a pipeline, emit a report.

Configurations are flat sectioned text (``[measure]``, ``[grid]``,
``[phi]``, ``[run]``) with one key per line and arrays as
whitespace-separated numbers; an unknown section, an unknown key or a
repeated key is an error.  ``load_config`` builds the measure, the grid
and the test function once, after every other check, and every command
reads those objects.  Reports are line-oriented ``key value`` text with
every number printed to 17 significant digits, plus an optional JSON
machine block; byte-identical across repeated runs on one configuration.

Exit codes: 0 success, 1 verification failure, 2 configuration,
validation or report-write error (a closed stdout pipe included).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fock import FockSpace, SymmetricTensor, level_inner_product, sorted_tuple_count
from .jacobi import (
    OperatorExport,
    adjoint_defect,
    annihilation,
    check_weights,
    creation,
    export_lines,
    full,
    measure_hash,
    neutral,
    symmetry_defect,
    vacuum_moments,
)
from .measures import GridSpace, JumpMeasure, TestFunction, gauss_laguerre_gamma
from .meixner import detect
from .moments import CumulantModel, chaos_inner_product, moments_from_cumulants
from .orthopoly import RecurrenceTable, stieltjes

__all__ = ["main", "RunConfig", "load_config"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class Report:
    """Accumulates ``key value`` lines and a parallel machine dictionary.

    A ``body`` (the operator export) follows the lines and is streamed
    through in pieces rather than held as text.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.body: OperatorExport | None = None
        self.machine: dict = {}

    def add(self, key: str, *values) -> None:
        self.lines.append(" ".join([key] + [_fmt(v) for v in values]))
        self.machine[key] = values[0] if len(values) == 1 else list(values)

    def raw(self, line: str) -> None:
        self.lines.append(line)

    def render(self, with_json: bool) -> Iterator[str]:
        """The report's text in pieces: the lines, the body, then the json line."""
        if self.lines:
            yield "\n".join(self.lines) + "\n"
        if self.body is not None:
            yield from self.body.chunks()
        if with_json:
            import json  # loaded only when asked for: most runs never print it

            yield "json " + json.dumps(self.machine, sort_keys=True) + "\n"


def parse_config_text(text: str) -> dict[str, dict[str, list[str]]]:
    sections: dict[str, dict[str, list[str]]] = {}
    current: dict[str, list[str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ValueError(f"config line {lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ValueError(f"config line {lineno}: key outside any section")
        key, *values = line.split()
        if key in current:
            raise ValueError(f"config line {lineno}: repeated key '{key}' in [{name}]")
        current[key] = values
    return sections


# The keys each section accepts; [measure]'s depend on its type.
_KEYS = {
    "measure": {"inline": ("type", "locations", "weights"), "gamma": ("type", "order")},
    "grid": ("weights",),
    "phi": ("values",),
    "run": ("depth", "max_moment", "tolerance", "oracle_levels", "fault_b1", "check_symmetry"),
}


@dataclass
class RunConfig:
    """Validated run configuration, holding the built measure and test function.

    ``load_config`` builds each once; ``measure()``, ``grid()`` (the test
    function's grid) and ``phi()`` hand the same objects to every caller.
    ``depth`` is the workhorse truncation: the recurrence-table depth for
    table-level commands, the operator truncation for export, the oracle
    and the defect checks (where the table depth is capped at the atom
    count, with exhausted-measure semantics taking over past it), and the
    cap on ``max_moment``, whose moments need only depth ``max_moment // 2``.
    """

    jump_measure: JumpMeasure
    test_function: TestFunction
    depth: int
    max_moment: int
    tolerance: float
    oracle_levels: int
    fault_b1: float
    check_symmetry: bool

    def measure(self) -> JumpMeasure:
        return self.jump_measure

    def grid(self) -> GridSpace:
        return self.test_function.grid

    def phi(self) -> TestFunction:
        return self.test_function

    def table(self, depth: int) -> RecurrenceTable:
        table = stieltjes(self.jump_measure, depth)
        if self.fault_b1 != 1.0:
            if table.depth < 2:
                raise ValueError("fault injection needs a table of depth at least 2")
            table = table.with_scaled_b(1, self.fault_b1)
        return table


def _number(text: str, kind: type, key: str, where: str):
    """``kind(text)``; a conversion error names the key and the section."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"key '{key}' in [{where}] expects {noun}, not '{text}'") from None


def _require(section: dict, key: str, where: str, kind: type = str) -> list:
    if key not in section:
        raise ValueError(f"missing key '{key}' in [{where}]")
    return [_number(v, kind, key, where) for v in section[key]]


def _scalar(section: dict, key: str, where: str, default=None, kind: type = str):
    if key not in section and default is not None:
        return default
    values = _require(section, key, where)
    if len(values) != 1:
        raise ValueError(f"key '{key}' in [{where}] expects one value")
    return _number(values[0], kind, key, where)


def _tolerance(value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("tolerance must be positive and finite")
    return value


def load_config(path: str) -> RunConfig:
    """Parse and validate a configuration file, then build the measure, the
    grid and the test function, in that order, after every other check."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            sections = parse_config_text(handle.read())
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc

    for name in _KEYS:
        if name not in sections:
            raise ValueError(f"missing section [{name}]")

    measure = sections["measure"]
    mtype = _scalar(measure, "type", "measure")
    if mtype not in _KEYS["measure"]:
        raise ValueError(f"unknown measure type '{mtype}' (want inline or gamma)")
    allowed = dict(_KEYS, measure=_KEYS["measure"][mtype])
    for name, section in sections.items():
        if name not in allowed:
            raise ValueError(f"unknown section [{name}]")
        for key in section:
            if key not in allowed[name]:
                raise ValueError(f"unknown key '{key}' in [{name}]")
    if mtype == "inline":
        locations = _require(measure, "locations", "measure", float)
        weights = _require(measure, "weights", "measure", float)
    else:
        order = _scalar(measure, "order", "measure", kind=int)
        if order < 1:
            raise ValueError("gamma quadrature order must be at least 1")

    grid_weights = _require(sections["grid"], "weights", "grid", float)
    phi_values = _require(sections["phi"], "values", "phi", float)

    run = sections["run"]
    depth = _scalar(run, "depth", "run", kind=int)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    max_moment = _scalar(run, "max_moment", "run", default=depth, kind=int)
    if max_moment < 0:
        raise ValueError("max_moment must be nonnegative")
    if max_moment > depth:
        raise ValueError(
            f"max_moment {max_moment} exceeds depth {depth}: raise depth to "
            "query higher moments"
        )
    tolerance = _tolerance(_scalar(run, "tolerance", "run", default=1e-8, kind=float))
    oracle_levels = _scalar(run, "oracle_levels", "run", default=min(2, depth), kind=int)
    if oracle_levels < 0:
        raise ValueError("oracle_levels must be nonnegative")
    if oracle_levels > depth:
        raise ValueError(f"oracle_levels {oracle_levels} exceeds depth {depth}")
    fault_b1 = _scalar(run, "fault_b1", "run", default=1.0, kind=float)
    if fault_b1 <= 0.0:
        raise ValueError("fault_b1 scale must be positive")
    if not math.isfinite(fault_b1):
        raise ValueError(f"fault_b1 scale must be finite, not {fault_b1}")
    symmetry = _scalar(run, "check_symmetry", "run", default="0")
    if symmetry not in ("0", "1", "false", "true"):
        raise ValueError(f"check_symmetry must be 0, 1, false or true, not '{symmetry}'")
    check_symmetry = symmetry in ("1", "true")

    jump_measure = (
        gauss_laguerre_gamma(order) if mtype == "gamma" else JumpMeasure(locations, weights)
    )
    return RunConfig(
        jump_measure=jump_measure,
        test_function=TestFunction(GridSpace(grid_weights), phi_values),
        depth=depth,
        max_moment=max_moment,
        tolerance=tolerance,
        oracle_levels=oracle_levels,
        fault_b1=fault_b1,
        check_symmetry=check_symmetry,
    )


def cmd_recurrence(cfg: RunConfig, report: Report) -> int:
    """Print the recurrence table at the configured depth, fixed columns."""
    measure = cfg.measure()
    table = cfg.table(cfg.depth)
    report.add("command", "recurrence")
    report.add("atoms", measure.atom_count)
    report.add("depth", table.depth)
    report.add("mass", measure.total_mass())
    report.raw(f"{'n':>3} {'a':>24} {'b':>24} {'norm_sq':>24}")
    for n in range(table.depth):
        b_text = _fmt(table.b[n]) if n > 0 else "-"
        report.raw(f"{n:>3} {_fmt(table.a[n]):>24} {b_text:>24} {_fmt(table.norm_sq[n]):>24}")
    report.machine["table"] = {
        "a": list(table.a),
        "b": list(table.b[1:]),
        "norm_sq": list(table.norm_sq),
    }
    return 0


def _operator_space(cfg: RunConfig, depth: int) -> FockSpace:
    """The configuration's Fock space truncated at the given depth.

    The recurrence table follows ``cfg.depth`` whatever the truncation
    depth, so every space built from one configuration shares it.
    """
    measure = cfg.measure()
    table = cfg.table(min(cfg.depth, measure.atom_count))
    return FockSpace(cfg.grid(), measure, table, depth)


def cmd_verify_moments(cfg: RunConfig, report: Report) -> int:
    """Vacuum moments of the assembled operator against the cumulant recursion.

    The moments need only a truncation of depth ``max_moment // 2`` (see
    :func:`vacuum_moments`); the defect checks run at the configured depth.
    The space and its pairing weights are checked first, then the oracle
    side is computed: a cumulant or moment past the doubles, which no
    comparison could check, is refused before the operator is built.
    """
    measure, grid, phi = cfg.measure(), cfg.grid(), cfg.phi()
    space = _operator_space(cfg, cfg.max_moment // 2)
    check_weights(space)
    model = CumulantModel(measure, grid)
    oracle_side = [1.0]
    if cfg.max_moment >= 1:
        oracle_side += moments_from_cumulants(
            [model.cumulant(phi, p) for p in range(1, cfg.max_moment + 1)]
        )
    operator_side = vacuum_moments(phi, space, cfg.max_moment)
    report.add("command", "verify-moments")
    report.add("measure-hash", measure_hash(measure))
    report.add("depth", cfg.depth)
    report.add("max-moment", cfg.max_moment)
    report.add("tolerance", cfg.tolerance)
    failed: list[int] = []
    for k in range(cfg.max_moment + 1):
        err = abs(operator_side[k] - oracle_side[k]) / max(1.0, abs(oracle_side[k]))
        report.add(f"moment{k}.operator", operator_side[k])
        report.add(f"moment{k}.oracle", oracle_side[k])
        report.add(f"moment{k}.rel-error", err)
        if not (err <= cfg.tolerance):
            failed.append(k)
    symmetry_bad = False
    if cfg.check_symmetry:
        deep = FockSpace(grid, measure, space.table, cfg.depth)
        minus = annihilation(phi, deep)
        pair_defect = adjoint_defect(deep, minus, creation(deep, *minus))
        neutral_defect = symmetry_defect(deep, neutral(phi, deep))
        report.add("adjoint-defect", pair_defect)
        report.add("neutral-symmetry-defect", neutral_defect)
        symmetry_bad = not (pair_defect <= cfg.tolerance and neutral_defect <= cfg.tolerance)
    report.add("status", "pass" if not (failed or symmetry_bad) else "fail")
    if failed:
        report.add("failed-orders", *failed)
    if failed or symmetry_bad:
        return 1
    return 0


def cmd_classify(cfg: RunConfig, report: Report) -> int:
    """Fit the Meixner-class patterns to the configured measure's table."""
    measure = cfg.measure()
    if cfg.depth < 3:
        raise ValueError("classification needs depth at least 3")
    table = cfg.table(cfg.depth)
    params = detect(table, cfg.tolerance)
    report.add("command", "classify")
    report.add("measure-hash", measure_hash(measure))
    report.add("depth", table.depth)
    report.add("tolerance", cfg.tolerance)
    if params is None:
        report.add("class", "none")
        report.add("note", "not-in-meixner-class")
    else:
        report.add("lambda", params.lam)
        report.add("kappa", params.kappa)
        report.add("ratio", params.ratio)
        report.add("class", params.classification)
        report.add("residual.a", params.residual_a)
        report.add("residual.b", params.residual_b)
    return 0


def cmd_export_operator(cfg: RunConfig, report: Report) -> int:
    """Write the full operator in the sparse text format."""
    report.body = export_lines(full(cfg.phi(), _operator_space(cfg, cfg.depth)))
    return 0


def cmd_oracle_check(cfg: RunConfig, report: Report) -> int:
    """Block-formula inner products against the chaos oracle.

    The oracle is exact at every level, up to one rounding per weight, and
    diagonal on monomials: distinct basis tensors pair to 0.0 under it.
    The two agree on a discrete grid through level two for any measure
    and through level three for symmetric or single-atom measures; beyond
    that they differ, because the block formula is the continuum
    expression, whose higher collision patterns acquire grid-weight
    corrections on atomic grids.  The default level cap is therefore two;
    raise ``oracle_levels`` only within the validity domain of the
    measure at hand.  A top level the exact oracle cannot finish is
    refused before anything is built (:meth:`CumulantModel.check_level`).
    Both sides are diagonal on the basis tensors: the oracle is diagonal on
    monomials, and :meth:`FockSpace.embed_symmetric` is a gather, so two
    distinct one-hot tensors share no nonzero position and pair to an exact
    0.0 under the block formula too.  Each tensor is therefore paired only
    with itself, one at a time; ``pairs`` counts the ``dim * (dim + 1) / 2``
    Gram entries per level the check covers, the off-diagonal ones exact
    zeros on both sides.  A tensor's error is ``|block - oracle|`` over
    ``sqrt(o_ii) * sqrt(o_ii)``, the Cauchy-Schwarz bound of the oracle
    value: a grid point of tiny weight is checked at its own scale.
    """
    measure, grid = cfg.measure(), cfg.grid()
    model = CumulantModel(measure, grid)
    model.check_level(cfg.oracle_levels)
    space = _operator_space(cfg, cfg.oracle_levels)
    report.add("command", "oracle-check")
    report.add("measure-hash", measure_hash(measure))
    report.add("levels", cfg.oracle_levels)
    report.add("tolerance", cfg.tolerance)
    level_worst = []
    pairs = 0
    for n in range(cfg.oracle_levels + 1):
        dim = sorted_tuple_count(grid.size, n)
        errors = []
        for i in range(dim):
            f = SymmetricTensor.basis_element(grid, n, i)
            norm = chaos_inner_product(f, f, model, n)
            e = space.embed_symmetric(f)
            block = level_inner_product(e, e, n)
            root = math.sqrt(norm)
            scale = root * root  # a zero or NaN norm cannot scale: NaN, which fails
            errors.append(abs(block - norm) / scale if scale > 0.0 else math.nan)
            del f, e  # one embedded vector at a time
        pairs += dim * (dim + 1) // 2
        level_worst.append(float(np.max(errors)))  # unlike max(), np.max keeps a NaN
        report.add(f"level{n}.max-rel-error", level_worst[-1])
    worst_overall = float(np.max(level_worst))
    report.add("pairs", pairs)
    report.add("max-rel-error", worst_overall)
    ok = worst_overall <= cfg.tolerance
    report.add("status", "pass" if ok else "fail")
    return 0 if ok else 1


_COMMANDS = {
    "recurrence": cmd_recurrence,
    "verify-moments": cmd_verify_moments,
    "classify": cmd_classify,
    "export-operator": cmd_export_operator,
    "oracle-check": cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyfock",
        description="Field operators of Levy noise on a truncated extended Fock space.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--tol", type=float, default=None, help="override the tolerance")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--json",
        action="store_true",
        help="append a machine-readable JSON block (not with export-operator)",
    )
    args = parser.parse_args(argv)

    report = Report()
    try:
        if args.json and args.command == "export-operator":
            # a json line would break the export's 7-field entry lines
            raise ValueError("--json applies to the report commands, not to export-operator")
        cfg = load_config(args.config)
        if args.tol is not None:
            cfg.tolerance = _tolerance(args.tol)
        code = _COMMANDS[args.command](cfg, report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pieces = report.render(args.json)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # a closed pipe fails here, not at exit
    except OSError as exc:
        if not args.out:  # so that the exit flush cannot fail on the closed pipe again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
