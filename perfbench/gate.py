"""Independent correctness gate for levyfock CLI reports.

Nothing here imports levyfock and nothing trusts the program's own
verdict: every reference number is recomputed in plain Python from the
configuration the harness generated.  The module uses the standard
library only, so the harness process stays small (see ``run.py`` on why
that matters for peak RSS).

Each ``check_*`` function returns a list of problems; an empty list means
the invocation passed.
"""
from __future__ import annotations

import math

# Relative tolerance against max(1, |reference|), the CLI's default
# verdict rule; every comparison is written NaN-safe as ``not err <= TOL``.
TOL = 1e-8


def levy_moment(measure: tuple, p: int) -> float:
    """Moment of order ``p >= 2`` of the jump-size measure.

    ``measure`` is ``("gamma", order)``, whose Gauss rule integrates
    ``s**(p-2) * s * exp(-s)`` exactly to the closed form ``(p - 1)!``, or
    ``("inline", locations, weights)``, giving ``sum w * s**(p-2)``.
    """
    if measure[0] == "gamma":
        return float(math.factorial(p - 1))
    _, locations, weights = measure
    return math.fsum(w * s ** (p - 2) for s, w in zip(locations, weights))


def cumulant_moments(measure: tuple, grid_weights, phi, k_max: int) -> list[float]:
    """Raw moments ``0 .. k_max`` of the pairing of the noise with ``phi``.

    Cumulants are ``kappa[1] = 0`` and ``kappa[p] = L(p) * sum sigma * phi**p``;
    moments follow from ``m[p] = sum_j C(p-1, j-1) kappa[j] m[p-j]``.
    """
    kappa = [0.0, 0.0] + [
        levy_moment(measure, p) * math.fsum(s * v**p for s, v in zip(grid_weights, phi))
        for p in range(2, k_max + 1)
    ]
    moments = [1.0]
    for p in range(1, k_max + 1):
        moments.append(
            math.fsum(math.comb(p - 1, j - 1) * kappa[j] * moments[p - j] for j in range(1, p + 1))
        )
    return moments


def parse_report(text: str) -> dict[str, list[str]]:
    """``key value ...`` report lines as a dictionary of value lists."""
    report: dict[str, list[str]] = {}
    for line in text.splitlines():
        parts = line.split()
        if parts:
            report[parts[0]] = parts[1:]
    return report


def _within(value: float, reference: float) -> bool:
    return abs(value - reference) / max(1.0, abs(reference)) <= TOL


def _number(report: dict, key: str) -> float | None:
    values = report.get(key)
    if not values or len(values) != 1:
        return None
    try:
        return float(values[0])
    except ValueError:
        return None


def check_verdict(report: dict, code: int, passed: bool) -> list[str]:
    """Exit code and ``status`` line must both say pass, or both say fail."""
    want_code, want_status = (0, "pass") if passed else (1, "fail")
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, want {want_code}")
    if report.get("status") != [want_status]:
        problems.append(f"status {report.get('status')}, want {want_status}")
    return problems


def check_moments(report: dict, expected: list[float]) -> list[str]:
    """Every ``moment{k}.operator`` line against the cumulant moments."""
    problems = []
    for k, reference in enumerate(expected):
        value = _number(report, f"moment{k}.operator")
        if value is None or not _within(value, reference):
            problems.append(f"moment{k}.operator {value}, want {reference!r}")
    return problems


def check_defects(report: dict) -> list[str]:
    problems = []
    for key in ("adjoint-defect", "neutral-symmetry-defect"):
        value = _number(report, key)
        if value is None or not value <= TOL:
            problems.append(f"{key} {value}, want <= {TOL}")
    return problems


def oracle_pairs(grid_size: int, levels: int) -> int:
    """Pairs the oracle compares: C(dim_n + 1, 2) per level, dim_n = C(G+n-1, n)."""
    return sum(math.comb(math.comb(grid_size + n - 1, n) + 1, 2) for n in range(levels + 1))


def check_oracle(report: dict, code: int, grid_size: int, levels: int) -> list[str]:
    problems = check_verdict(report, code, passed=True)
    want = oracle_pairs(grid_size, levels)
    if report.get("pairs") != [str(want)]:
        problems.append(f"pairs {report.get('pairs')}, want {want}")
    worst = _number(report, "max-rel-error")
    if worst is None or not worst <= TOL:
        problems.append(f"max-rel-error {worst}, want <= {TOL}")
    return problems


def export_moments(text: str, k_max: int) -> tuple[list[float], int]:
    """Vacuum moments ``0 .. k_max`` of an exported operator, and its nonzero count.

    Each data line is ``src_level src_alpha src_tuple dst_level dst_alpha
    dst_tuple value``; the triple of positions names one basis vector.
    The vacuum entry of ``J**k`` applied to the vacuum is moment ``k``,
    because the vacuum has unit norm.
    """
    index: dict[tuple[str, str, str], int] = {}
    triplets = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        f = line.split()
        src = index.setdefault((f[0], f[1], f[2]), len(index))
        dst = index.setdefault((f[3], f[4], f[5]), len(index))
        triplets.append((dst, src, float(f[6])))
    vacuum = index.setdefault(("0", "0", "0"), len(index))
    v = [0.0] * len(index)
    v[vacuum] = 1.0
    moments = [1.0]
    for _ in range(k_max):
        out = [0.0] * len(index)
        for dst, src, value in triplets:
            out[dst] += value * v[src]
        v = out
        moments.append(v[vacuum])
    return moments, len(triplets)


def check_export(text: str, code: int, expected: list[float], depth: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}, want 0"]
    for header in ("# kind full", f"# depth {depth}"):
        if header not in text.splitlines()[:12]:
            problems.append(f"missing header '{header}'")
    moments, nnz = export_moments(text, len(expected) - 1)
    if nnz == 0:
        problems.append("export holds no entries")
    for k, (value, reference) in enumerate(zip(moments, expected)):
        if not _within(value, reference):
            problems.append(f"exported operator moment {k} {value!r}, want {reference!r}")
    return problems


def check_recurrence(text: str, code: int, depth: int) -> list[str]:
    """Gamma-type table: ``a_n = 2(n+1)`` and ``b_n = n(n+1)`` row by row."""
    problems = [] if code == 0 else [f"exit code {code}, want 0"]
    rows = [line.split() for line in text.splitlines()]
    rows = [r for r in rows if len(r) == 4 and r[0].isdigit()]
    if [int(r[0]) for r in rows] != list(range(depth)):
        return problems + [f"table rows {[r[0] for r in rows]}, want 0..{depth - 1}"]
    for n, a, b, _norm in rows:
        n = int(n)
        if not _within(float(a), 2.0 * (n + 1)):
            problems.append(f"a_{n} {a}, want {2 * (n + 1)}")
        if n and not _within(float(b), float(n * (n + 1))):
            problems.append(f"b_{n} {b}, want {n * (n + 1)}")
    return problems


def check_classify(report: dict, code: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}, want 0"]
    if report.get("class") != ["gamma-type"]:
        problems.append(f"class {report.get('class')}, want gamma-type")
    return problems
