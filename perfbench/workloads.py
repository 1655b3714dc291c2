"""Seeded workloads of the levyfock benchmark.

The seed only picks numbers: grid weights, test-function values and atoms.
Shapes (grid size, depth, atom count) are fixed per workload, and the
numbers are kept where no shape count can depend on them: atoms sit on
distinct slots at least 0.3 apart and 0.4 away from zero, so the Stieltjes
procedure never meets its degeneracy check, and test-function values stay
at least 0.5 away from zero, so no exported entry vanishes.

The program only ever sees the configuration files written from
:class:`Inputs`; the gate checks its reports against the same
:class:`Inputs`.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable

import gate


@dataclass(frozen=True)
class Inputs:
    """One generated configuration: the numbers the program and the gate share."""

    measure: tuple  # ("gamma", order) or ("inline", locations, weights)
    grid_weights: tuple[float, ...]
    phi: tuple[float, ...]
    depth: int
    max_moment: int | None = None
    oracle_levels: int | None = None
    check_symmetry: bool = False
    fault_b1: float = 1.0

    def config_text(self) -> str:
        def numbers(values) -> str:
            return " ".join(repr(float(v)) for v in values)

        if self.measure[0] == "gamma":
            measure = f"type gamma\norder {self.measure[1]}\n"
        else:
            _, locations, weights = self.measure
            measure = f"type inline\nlocations {numbers(locations)}\nweights {numbers(weights)}\n"
        run = [f"depth {self.depth}"]
        if self.max_moment is not None:
            run.append(f"max_moment {self.max_moment}")
        if self.oracle_levels is not None:
            run.append(f"oracle_levels {self.oracle_levels}")
        if self.check_symmetry:
            run.append("check_symmetry 1")
        if self.fault_b1 != 1.0:
            run.append(f"fault_b1 {self.fault_b1!r}")
        return (
            f"[measure]\n{measure}"
            f"[grid]\nweights {numbers(self.grid_weights)}\n"
            f"[phi]\nvalues {numbers(self.phi)}\n"
            f"[run]\n" + "\n".join(run) + "\n"
        )

    def moments(self, k_max: int) -> list[float]:
        return gate.cumulant_moments(self.measure, self.grid_weights, self.phi, k_max)


def _grid(rng: random.Random, size: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    weights = tuple(rng.uniform(0.5, 1.5) for _ in range(size))
    phi = tuple(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(size))
    return weights, phi


def _atoms(rng: random.Random, count: int) -> tuple:
    slots = rng.sample([0.5 * k for k in range(-6, 7) if k], count)
    locations = tuple(sorted(s + rng.uniform(-0.1, 0.1) for s in slots))
    weights = tuple(rng.uniform(0.5, 1.5) for _ in slots)
    return ("inline", locations, weights)


# The negative-control factor for b[1]; any value far from 1 breaks the moments.
FAULT_B1 = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # levyfock CLI command
    inputs: Callable[[random.Random], Inputs]
    check: Callable[[Inputs, int, str], list[str]]

    def generate(self, seed: int) -> Inputs:
        return self.inputs(random.Random(f"{self.name}:{seed}"))

    @property
    def has_twin(self) -> bool:
        """verify-moments workloads get a fault-injected twin that must fail."""
        return self.command == "verify-moments"


def twin(inputs: Inputs) -> Inputs:
    return dataclasses.replace(inputs, fault_b1=FAULT_B1)


def _check_verify(inputs: Inputs, code: int, text: str) -> list[str]:
    report = gate.parse_report(text)
    k_max = inputs.depth if inputs.max_moment is None else inputs.max_moment
    problems = gate.check_verdict(report, code, passed=True)
    problems += gate.check_moments(report, inputs.moments(k_max))
    if inputs.check_symmetry:
        problems += gate.check_defects(report)
    return problems


def check_twin(inputs: Inputs, code: int, text: str) -> list[str]:
    """Problems if the fault-injected twin was not caught by the program or by the gate."""
    report = gate.parse_report(text)
    problems = gate.check_verdict(report, code, passed=False)
    k_max = inputs.depth if inputs.max_moment is None else inputs.max_moment
    if not gate.check_moments(report, inputs.moments(k_max)):
        problems.append("the independent moment check accepted the twin's moments")
    return problems


def _check_export(inputs: Inputs, code: int, text: str) -> list[str]:
    return gate.check_export(text, code, inputs.moments(inputs.depth), inputs.depth)


def _check_oracle(inputs: Inputs, code: int, text: str) -> list[str]:
    report = gate.parse_report(text)
    return gate.check_oracle(report, code, len(inputs.grid_weights), inputs.oracle_levels)


def _moments_deep(rng: random.Random) -> Inputs:
    weights, phi = _grid(rng, 1)
    return Inputs(("gamma", 40), weights, phi, depth=18, max_moment=18)


def _export_wide(rng: random.Random) -> Inputs:
    weights, phi = _grid(rng, 12)
    return Inputs(_atoms(rng, 6), weights, phi, depth=4)


def _oracle_grid(rng: random.Random) -> Inputs:
    weights, phi = _grid(rng, 6)
    return Inputs(_atoms(rng, 5), weights, phi, depth=2, oracle_levels=2)


def _defect_check(rng: random.Random) -> Inputs:
    weights, phi = _grid(rng, 2)
    return Inputs(_atoms(rng, 8), weights, phi, depth=8, check_symmetry=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("moments-deep", "verify-moments", _moments_deep, _check_verify),
        Workload("export-wide", "export-operator", _export_wide, _check_export),
        Workload("oracle-grid", "oracle-check", _oracle_grid, _check_oracle),
        Workload("defect-check", "verify-moments", _defect_check, _check_verify),
    )
}

# Untimed smoke for the two table-level commands, checked against closed forms.
SMOKE = Inputs(("gamma", 40), (1.0,), (1.0,), depth=9)


def check_smoke(command: str, code: int, text: str) -> list[str]:
    if command == "recurrence":
        return gate.check_recurrence(text, code, SMOKE.depth)
    return gate.check_classify(gate.parse_report(text), code)
