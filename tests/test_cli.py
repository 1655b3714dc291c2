from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import levyfock
from levyfock import cli, fock, jacobi
from levyfock.cli import load_config, main, parse_config_text

NU2_CFG = """\
[measure]
type inline
locations -1 1
weights 0.5 0.5

[grid]
weights 2.0

[phi]
values 1.0

[run]
depth 6
max_moment 6
"""

GAMMA_CFG = """\
[measure]
type gamma
order 40

[grid]
weights 2.0

[phi]
values 1.0

[run]
depth 9
"""

CHARLIER_CFG_HEAD = """\
[measure]
type inline
locations 1 2 3 4 5 6 7 8
weights {weights}

[grid]
weights 2.0

[phi]
values 1.0

[run]
depth 4
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_sections_and_arrays(self):
        sections = parse_config_text(NU2_CFG)
        assert sections["measure"]["locations"] == ["-1", "1"]
        assert sections["run"]["depth"] == ["6"]

    def test_comments_and_blanks(self):
        sections = parse_config_text("# top\n[grid]\nweights 1 2  # trailing\n\n")
        assert sections["grid"]["weights"] == ["1", "2"]

    def test_key_outside_section_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_config_text("weights 1\n")

    def test_missing_section_rejected(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "[measure]\ntype gamma\norder 3\n")
        with pytest.raises(ValueError, match="missing section"):
            load_config(path)

    @pytest.mark.parametrize("value,on", [("0", False), ("false", False), ("1", True), ("true", True)])
    def test_check_symmetry_switch(self, tmp_path, value, on):
        path = write(tmp_path, "sym.cfg", NU2_CFG + f"check_symmetry {value}\n")
        assert load_config(path).check_symmetry is on

    @pytest.mark.parametrize("value", ["False", "yes", "2"])
    def test_check_symmetry_other_values_exit_2(self, tmp_path, capsys, value):
        path = write(tmp_path, "sym.cfg", NU2_CFG + f"check_symmetry {value}\n")
        assert main(["verify-moments", "--config", path]) == 2
        captured = capsys.readouterr()
        assert f"check_symmetry must be 0, 1, false or true, not '{value}'" in captured.err
        assert captured.out == ""

    def test_max_moment_capped_by_depth(self, tmp_path):
        bad = NU2_CFG.replace("max_moment 6", "max_moment 7")
        path = write(tmp_path, "bad.cfg", bad)
        with pytest.raises(ValueError, match="max_moment"):
            load_config(path)


class TestRecurrenceCommand:
    def test_gamma_rows(self, tmp_path, capsys):
        path = write(tmp_path, "gamma.cfg", GAMMA_CFG)
        assert main(["recurrence", "--config", path]) == 0
        out = capsys.readouterr().out
        rows = [
            line.split()
            for line in out.splitlines()
            if line.strip() and line.split()[0].isdigit()
        ]
        assert len(rows) == 9
        # the Laguerre closed form: a_n = 2(n + 1), b_n = n(n + 1) and
        # norm_sq[n] = n! (n + 1)!
        for row in rows:
            n = int(row[0])
            closed = [2 * (n + 1), n * (n + 1), math.factorial(n) * math.factorial(n + 1)]
            for text, value in zip(row[1:], closed):
                if text != "-":
                    assert abs(float(text) / value - 1.0) <= 1e-13, (n, text)

    def test_inline_two_atoms(self, tmp_path, capsys):
        cfg = NU2_CFG.replace("depth 6", "depth 2").replace("max_moment 6", "max_moment 2")
        path = write(tmp_path, "nu2.cfg", cfg)
        assert main(["recurrence", "--config", path]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if line.strip() and line.strip()[0].isdigit()]
        assert float(rows[0][1]) == 0.0
        assert float(rows[1][2]) == pytest.approx(1.0)

    def test_insufficient_support_exits_2(self, tmp_path, capsys):
        cfg = NU2_CFG.replace("depth 6", "depth 5").replace("max_moment 6", "max_moment 5")
        path = write(tmp_path, "nu2.cfg", cfg)
        assert main(["recurrence", "--config", path]) == 2
        assert "insufficient support" in capsys.readouterr().err


class TestVerifyMomentsCommand:
    def test_nu2_passes(self, tmp_path, capsys):
        path = write(tmp_path, "nu2.cfg", NU2_CFG)
        assert main(["verify-moments", "--config", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert "status pass" in out
        machine = json.loads(out.splitlines()[-1].split(" ", 1)[1])
        assert machine["moment2.operator"] == 2.0
        assert machine["moment4.operator"] == 14.0
        assert machine["moment1.oracle"] == 0.0

    def test_symmetry_check_reported(self, tmp_path, capsys):
        cfg = NU2_CFG + "check_symmetry 1\n"
        path = write(tmp_path, "sym.cfg", cfg)
        assert main(["verify-moments", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "adjoint-defect" in out
        assert "neutral-symmetry-defect" in out
        assert "status pass" in out

    def test_fault_injection_fails_at_four(self, tmp_path, capsys):
        cfg = NU2_CFG + "fault_b1 1.1\n"
        path = write(tmp_path, "fault.cfg", cfg)
        assert main(["verify-moments", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "status fail" in out
        failed = [line for line in out.splitlines() if line.startswith("failed-orders")]
        assert failed and failed[0].split()[1] == "4"


class TestClassifyCommand:
    def test_gamma(self, tmp_path, capsys):
        path = write(tmp_path, "gamma.cfg", GAMMA_CFG)
        assert main(["classify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "class gamma-type" in out

    def test_charlier_like_not_in_class(self, tmp_path, capsys):
        weights = " ".join(
            f"{math.exp(-1.0) / math.factorial(j):.17g}" for j in range(8)
        )
        path = write(tmp_path, "charlier.cfg", CHARLIER_CFG_HEAD.format(weights=weights))
        assert main(["classify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "class none" in out
        assert "not-in-meixner-class" in out

    def test_shallow_depth_exits_2(self, tmp_path, capsys):
        cfg = NU2_CFG.replace("depth 6", "depth 2").replace("max_moment 6", "max_moment 2")
        path = write(tmp_path, "nu2.cfg", cfg)
        assert main(["classify", "--config", path]) == 2
        assert "depth" in capsys.readouterr().err


class TestOracleCheckCommand:
    def test_nu2_passes_at_default_levels(self, tmp_path, capsys):
        path = write(tmp_path, "nu2.cfg", NU2_CFG)
        assert main(["oracle-check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "status pass" in out
        assert "levels 2" in out

    def test_nu2_passes_at_level_three(self, tmp_path, capsys):
        # symmetric measure: the identity extends through level three
        path = write(tmp_path, "nu2.cfg", NU2_CFG + "oracle_levels 3\n")
        assert main(["oracle-check", "--config", path]) == 0
        assert "status pass" in capsys.readouterr().out

    def test_builds_only_the_checked_levels(self, tmp_path, capsys, monkeypatch):
        depths = []
        init = cli.FockSpace.__init__

        def recorded(self, grid, measure, table, depth):
            depths.append(depth)
            init(self, grid, measure, table, depth)

        monkeypatch.setattr(cli.FockSpace, "__init__", recorded)
        path = write(tmp_path, "nu2.cfg", NU2_CFG)
        assert main(["oracle-check", "--config", path]) == 0
        assert "levels 2" in capsys.readouterr().out
        assert depths == [2]

    def test_levels_past_depth_exit_2(self, tmp_path, capsys):
        cfg = NU2_CFG.replace("depth 6\nmax_moment 6", "depth 2") + "oracle_levels 3\n"
        path = write(tmp_path, "nu2.cfg", cfg)
        assert main(["oracle-check", "--config", path]) == 2
        assert "oracle_levels 3 exceeds depth 2" in capsys.readouterr().err

    def test_levels_past_the_exact_oracle_exit_2_at_once(self, tmp_path):
        # one grid point admits any level under the basis limit; on five
        # atoms the exact norms of level 30 alone took 13 s before this was
        # refused
        cfg = (
            THREE_POINT_CFG.replace("weights 0.7 1.1 1.3", "weights 1.0")
            .replace("values 0.9 -0.4 1.2", "values 0.8")
            .replace("depth 6\ncheck_symmetry 1", "depth 30\noracle_levels 30")
        )
        path = write(tmp_path, "one-point.cfg", cfg)
        result = _fresh_cli("oracle-check", path, timeout=10)
        assert result.returncode == 2
        assert "oracle level 30 exceeds the limit of 20" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "weights, rounded",
        [("1e300 1.0", "inf"), ("1e-300 1.0", "0.0"), ("1e-160 1.0", "1e-320")],
        ids=["overflow", "underflow", "subnormal"],
    )
    def test_weight_outside_the_doubles_exits_2(self, tmp_path, capsys, weights, rounded):
        # one unit atom: point 0's level-2 weight h(2) / 2 is sigma**2 exactly
        # (1e600, 1e-600, 1e-320), which no normal double holds; nothing is
        # reported
        cfg = (
            MULTI_POINT_CFG.replace("locations -1 0.5 2", "locations 1")
            .replace("weights 0.6 0.9 0.4", "weights 1")
            .replace("weights 0.7 1.1 1.3", f"weights {weights}")
            .replace("values 0.9 -0.4 1.2", "values 0.9 -0.4")
        )
        path = write(tmp_path, "range.cfg", cfg)
        assert main(["oracle-check", "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"oracle level 2: a weight rounds to {rounded}, out of range" in err

    def test_one_oracle_call_per_basis_tensor(self, tmp_path, capsys, monkeypatch):
        # both sides are diagonal on the basis tensors: each tensor's own
        # oracle norm and block pairing are asked for once, and every pair
        # is still counted
        calls = _counting(monkeypatch, [cli], "chaos_inner_product")
        blocks = _counting(monkeypatch, [cli], "level_inner_product")
        path = write(tmp_path, "multi.cfg", MULTI_POINT_CFG)
        assert main(["oracle-check", "--config", path]) == 0
        assert "pairs 28" in capsys.readouterr().out  # 1 + 6 + 21
        levels = [(0, True)] + [(1, True)] * 3 + [(2, True)] * 6
        assert [(f.level, f is g) for f, g, _model, _n in calls] == levels
        assert [(n, f is g) for f, g, n in blocks] == levels

    def test_holds_one_embedded_vector_at_a_time(self, tmp_path, capsys):
        # 30 grid points, level 2: 465 basis tensors; keeping every embedded
        # vector and every pairing of a level peaked near 8 MB
        cfg = (
            MULTI_POINT_CFG.replace("weights 0.7 1.1 1.3", "weights " + " ".join(["0.9"] * 30))
            .replace("values 0.9 -0.4 1.2", "values " + " ".join(["0.5"] * 30))
        )
        path = write(tmp_path, "wide.cfg", cfg)
        tracemalloc.start()
        try:
            assert main(["oracle-check", "--config", path]) == 0
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "pairs 108811" in capsys.readouterr().out  # 1 + 465 + 108345
        assert peak < 1_000_000

    def test_tiny_point_checked_at_its_own_scale(self, tmp_path, capsys, monkeypatch):
        # grid weights 1e-300 and 1: every pairing that touches point 0 is
        # near 1e-300, so an error divided by max(1, |oracle|) passed a block
        # side 1.5 times too large there; over the oracle norms it reads 0.5
        block = cli.level_inner_product

        def off_on_point_0(f, g, n):
            value = block(f, g, n)
            return 1.5 * value if abs(value) < 1e-200 else value

        monkeypatch.setattr(cli, "level_inner_product", off_on_point_0)
        cfg = (
            THREE_POINT_CFG.replace("weights 0.7 1.1 1.3", "weights 1e-300 1.0")
            .replace("values 0.9 -0.4 1.2", "values 0.9 -0.4")
            .replace("depth 6\ncheck_symmetry 1", "depth 2\noracle_levels 2")
        )
        path = write(tmp_path, "tiny.cfg", cfg)
        assert main(["oracle-check", "--config", path]) == 1
        out = capsys.readouterr().out
        errors = dict(line.split() for line in out.splitlines() if "max-rel-error" in line)
        for level in (1, 2):
            assert float(errors[f"level{level}.max-rel-error"]) == pytest.approx(0.5, rel=1e-12)
        assert "status fail" in out


@pytest.mark.parametrize(
    "weights",
    ["1e300 1.0", "1e-200 1.0", "1e-160 1.0"],
    ids=["overflow", "underflow", "subnormal"],
)
@pytest.mark.parametrize(
    "command,run",
    [
        ("verify-moments", ""),
        ("verify-moments", "max_moment 2\ncheck_symmetry 1\n"),
        ("export-operator", ""),
    ],
    ids=["moments", "defects", "export"],
)
def test_operator_weight_outside_the_doubles_exits_2(tmp_path, capsys, weights, command, run):
    # depth 4: point 0's level-2 representative weight, 1e600, 1e-400 or
    # 1e-320, is no normal double, and creation divides by it; with
    # max_moment 2 the moments stop at level 1 and the defect space refuses
    cfg = TWO_POINT_CFG.replace("weights 0.8 1.4", f"weights {weights}") + run
    path = write(tmp_path, "range.cfg", cfg)
    assert main([command, "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "weights from" in err and "leave the normal doubles" in err


def test_weight_overflow_refused_with_one_error_line(tmp_path):
    # the representative weight 1e600 overflows while the block bases are
    # built; the refusal is the only line on stderr, with no numpy warning
    cfg = TWO_POINT_CFG.replace("weights 0.8 1.4", "weights 1e300 1.0")
    path = write(tmp_path, "range.cfg", cfg)
    result = _fresh_cli("verify-moments", path, timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: pairing weights from")


SUBNORMAL_MASS_CFG = """\
[measure]
type inline
locations -1 0.5 2
weights 1e-310 2e-310 3e-310

[grid]
weights 1e150 2e150

[phi]
values 0.9 -0.4

[run]
depth {depth}
"""


@pytest.mark.parametrize("command, depth", [("export-operator", 1), ("verify-moments", 2)])
def test_subnormal_level_weight_refused_with_one_error_line(tmp_path, command, depth):
    # the level-1 weight is the measure's mass, 6e-310, a subnormal that
    # creation divides by, while every representative and pairing weight is
    # normal; unchecked, the export wrote infinite entries and exited 0, and
    # verify-moments reported a NaN first moment
    path = write(tmp_path, "subnormal.cfg", SUBNORMAL_MASS_CFG.format(depth=depth))
    result = _fresh_cli(command, path, timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: pairing weights from 6e-310 to 2e+150 leave the normal doubles; "
        "rescale the grid weights or lower the depth"
    ]


@pytest.mark.parametrize(
    "phi, order",
    [("1e40", "cumulant of order 8"), ("3e38", "cumulant of order 8"), ("2e38", "moment of order 8")],
)
def test_oracle_overflow_refused_with_one_error_line(tmp_path, phi, order):
    # three atoms, one grid point, depth 8: phi**8 or the eighth moment
    # leaves the doubles, so no comparison could check moment 8; the
    # refusal names the order and is the only line, with no numpy warning
    cfg = (
        MULTI_POINT_CFG.replace("weights 0.7 1.1 1.3", "weights 1.0")
        .replace("values 0.9 -0.4 1.2", f"values {phi}")
        .replace("depth 2\noracle_levels 2", "depth 8")
    )
    path = write(tmp_path, "huge.cfg", cfg)
    result = _fresh_cli("verify-moments", path, timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {order} leaves the doubles")


def test_recurrence_overflow_exits_2_with_one_line(tmp_path):
    # a fresh interpreter shows any numpy RuntimeWarning on stderr
    path = write(tmp_path, "deep.cfg", GAMMA_CFG.replace("order 40", "order 180").replace(
        "depth 9", "depth 60"
    ))
    result = _fresh_cli("recurrence", path, timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: values or squared norm of the degree-55 orthogonal polynomial overflow the "
        "doubles; lower the depth to at most 55"
    ]


@pytest.mark.parametrize("command", ["oracle-check", "export-operator"])
def test_block_weight_overflow_exits_2(tmp_path, capsys, command):
    # atom weights 1e160: the level-2 block (2,) weighs 2!/2! * (3e160)**2,
    # past the largest double; it is refused, not raised as an OverflowError
    cfg = (
        MULTI_POINT_CFG.replace("weights 0.6 0.9 0.4", "weights 1e160 1e160 1e160")
        .replace("weights 0.7 1.1 1.3", "weights 1e-100 1.0")
        .replace("values 0.9 -0.4 1.2", "values 0.9 -0.4")
    )
    path = write(tmp_path, "heavy.cfg", cfg)
    assert main([command, "--config", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "weight of block (2,) overflows the doubles" in err


class TestExportCommand:
    def test_writes_header_and_entries(self, tmp_path):
        path = write(tmp_path, "nu2.cfg", NU2_CFG)
        out_path = tmp_path / "operator.txt"
        assert main(["export-operator", "--config", path, "--out", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#")
        assert any("measure-hash" in line for line in lines)
        entries = [line for line in lines if not line.startswith("#")]
        assert entries
        assert all(len(line.split()) == 7 for line in entries)


class TestDeterminism:
    @pytest.mark.parametrize("command", ["recurrence", "verify-moments", "classify"])
    def test_reports_byte_identical(self, tmp_path, command):
        cfg_path = write(tmp_path, "gamma.cfg", GAMMA_CFG)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main([command, "--config", cfg_path, "--json", "--out", str(a)]) == 0
        assert main([command, "--config", cfg_path, "--json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# Two grid points: blocks hold several representatives, so the export's
# entry order within a block pair is visible.
TWO_POINT_CFG = (
    NU2_CFG.replace("weights 2.0", "weights 0.8 1.4")
    .replace("values 1.0", "values 0.9 -0.4")
    .replace("depth 6\nmax_moment 6", "depth 4")
)

# Three grid points and an asymmetric three-atom measure: the oracle's lower
# basis holds several monomials per degree, which one grid point never shows.
MULTI_POINT_CFG = """\
[measure]
type inline
locations -1 0.5 2
weights 0.6 0.9 0.4

[grid]
weights 0.7 1.1 1.3

[phi]
values 0.9 -0.4 1.2

[run]
depth 2
oracle_levels 2
"""

# Three grid points, five atoms, depth 6: annihilation promotes into part
# sizes 3 to 5, passes blocks with an empty middle part size such as (2, 0, 1)
# and sums duplicate promotions into one entry, none of which the one- and
# two-point configs reach.
THREE_POINT_CFG = """\
[measure]
type inline
locations -1.3 -0.4 0.6 1.1 2.2
weights 0.7 1.2 0.5 0.9 1.1

[grid]
weights 0.7 1.1 1.3

[phi]
values 0.9 -0.4 1.2

[run]
depth 6
check_symmetry 1
"""

# sha256 of each report under --json, recorded once from the dense-block
# implementation (the one-point gamma moments and the two-point moments from
# the half-depth moment pairing; the three-point export and moments from the
# per-representative assembler; the multi-point and the three-point level-3
# oracle reports, whose error lines carry the oracle's round-off, from the
# diagonal orthogonal-polynomial oracle; the three gamma-rule reports from
# the rule built on its own recurrence); a storage or summation-order change
# must reproduce them.
PINNED_REPORTS = [
    (
        "verify-moments",
        NU2_CFG + "check_symmetry 1\n",
        "1a8fc43070d7f34b38587d5edca34b009b22fb61dabd6dd2fa549da7929a30a3",
    ),
    (
        "verify-moments",
        GAMMA_CFG,
        "18bedce088ba3bc94c86401579c990f803af91cf9b9c0204ef27273da9c7ff25",
    ),
    (
        "export-operator",
        NU2_CFG,
        "2bfb7ee4342e6edb466552056a55065b6c339e88bbccc3e6500d49864a18c631",
    ),
    (
        "export-operator",
        TWO_POINT_CFG,
        "3963368f659c59f4e8004159e63d106f943bcf49c47cbdc28bdb333046c5a52a",
    ),
    (
        "oracle-check",
        NU2_CFG,
        "e9fe548993018cd71b8c6be00cf514a16caf3317467647d19aebef4d8f739a97",
    ),
    (
        "recurrence",
        GAMMA_CFG,
        "60e738d0671f0f397b788af9a69ecb2f0258426f4f3fe349e35abef66233e082",
    ),
    (
        "classify",
        GAMMA_CFG,
        "64dbe6d1e4250e003f0ad50d0a322af3d627831283229b418f8779ca98a60e45",
    ),
    (
        "oracle-check",
        MULTI_POINT_CFG,
        "1ee8b0d3ea72bb4348be09e6c631503ca8658eb4f22f3ce4fbe48ca9fdd6043d",
    ),
    (
        "verify-moments",
        TWO_POINT_CFG + "check_symmetry 1\n",
        "7369ed5498dbd3a4bd11dd4a7e772f8a6b79a022bffda945159c37682696b04f",
    ),
    (
        "export-operator",
        THREE_POINT_CFG,
        "b04106b1069dc80bf5efa486bee06898e4de658a56f468d3747f1fdb2373df80",
    ),
    (
        "verify-moments",
        THREE_POINT_CFG,
        "19e0ce9438657aa9bec4617b7612b768b46b81cac558b308480c91224ec14e75",
    ),
    (
        "oracle-check",
        THREE_POINT_CFG + "oracle_levels 3\ntolerance 1\n",
        "889aa69379f6aa9842d56057a62d3ccfa87cd350de6204a19561e023f3981dbd",
    ),
]


@pytest.mark.parametrize(
    "command,cfg,digest",
    PINNED_REPORTS,
    ids=[f"{command}-{i}" for i, (command, _, _) in enumerate(PINNED_REPORTS)],
)
def test_report_bytes_pinned(tmp_path, command, cfg, digest):
    cfg_path = write(tmp_path, "run.cfg", cfg)
    out = tmp_path / "report.txt"
    # the export digests cover the export and the "json {}" line --json once
    # appended to it; --json is refused on an export now, so that line is
    # appended here and the export bytes are checked against the same digest
    flags, trailer = ([], b"json {}\n") if command == "export-operator" else (["--json"], b"")
    assert main([command, "--config", cfg_path, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes() + trailer).hexdigest() == digest


@pytest.mark.parametrize("index", [0, 8, 10])
def test_defect_check_sorts_nothing(tmp_path, monkeypatch, index):
    # each creation entry is compared with the annihilation entry it
    # transposes, so no key is matched by a sort
    def refused(*args, **kwargs):
        raise AssertionError("sorted")

    for name in ("unique", "sort", "argsort", "lexsort"):
        monkeypatch.setattr(np, name, refused)
    command, cfg, digest = PINNED_REPORTS[index]
    assert command == "verify-moments" and "check_symmetry 1" in cfg
    cfg_path, out = write(tmp_path, "run.cfg", cfg), tmp_path / "report.txt"
    assert main([command, "--config", cfg_path, "--json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


PINNED_EXPORTS = {
    f"{command}-{i}": cfg
    for i, (command, cfg, _) in enumerate(PINNED_REPORTS)
    if command == "export-operator"
}


@pytest.mark.parametrize("cfg", PINNED_EXPORTS.values(), ids=PINNED_EXPORTS.keys())
def test_entry_bound_covers_pinned_exports(tmp_path, cfg):
    config = load_config(write(tmp_path, "run.cfg", cfg))
    space = cli._operator_space(config, config.depth)
    export = jacobi.export_lines(jacobi.full(config.phi(), space))
    assert sum(not line.startswith("#") for line in export) <= space.entry_bound()


def _assembled_bytes(config) -> list[bytes]:
    """Triplets, diagonal, two images of each of two vectors, and the vacuum
    moments of the configuration's operator, as bytes."""
    space = cli._operator_space(config, config.depth)
    op = jacobi.full(config.phi(), space)
    noise = np.random.default_rng(3).normal(size=space.dim)
    images = []
    for v in (space.vacuum(), jacobi.ExtendedFockVector(space, noise)):
        images += [op.apply(v), op.apply(op.apply(v))]
    moments = jacobi.vacuum_moments(config.phi(), space, 2 * space.depth)
    arrays = [op.rows, op.cols, op.vals, op.diag, *(v.values for v in images), np.array(moments)]
    return [array.tobytes() for array in arrays]


PIECE_CFGS = {
    "two-point": TWO_POINT_CFG,
    "three-point-zero-phi": THREE_POINT_CFG.replace("values 0.9 -0.4 1.2", "values 0.9 0.0 1.2"),
    "gamma": GAMMA_CFG,
}


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("cfg", PIECE_CFGS.values(), ids=PIECE_CFGS.keys())
def test_pieces_leave_every_bit(tmp_path, monkeypatch, cfg, chunk):
    # assembly in row chunks and application in entry pieces: every seam
    # between pieces keeps the triplets, their order and every sum
    config = load_config(write(tmp_path, "run.cfg", cfg))
    whole = _assembled_bytes(config)
    monkeypatch.setattr(jacobi, "_ROW_CHUNK", chunk)
    assert _assembled_bytes(config) == whole


@pytest.mark.parametrize("with_json", [False, True])
def test_stdout_matches_out_file(tmp_path, capsys, with_json):
    # --json is refused on an export: both runs exit 2 and write nothing
    path = write(tmp_path, "two.cfg", TWO_POINT_CFG)
    out = tmp_path / "operator.txt"
    flags, code = (["--json"], 2) if with_json else ([], 0)
    assert main(["export-operator", "--config", path, *flags]) == code
    printed = capsys.readouterr().out
    assert main(["export-operator", "--config", path, "--out", str(out), *flags]) == code
    if with_json:
        assert printed == "" and not out.exists()
        return
    assert printed.encode("utf-8") == out.read_bytes()
    lines = printed.splitlines()
    assert lines[0] == "# levyfock operator export"
    assert all(line.startswith("#") or len(line.split()) == 7 for line in lines)


def test_json_refused_on_export(tmp_path, capsys):
    # a json line in an export is neither a header nor a 7-field entry
    path = write(tmp_path, "two.cfg", TWO_POINT_CFG)
    assert main(["export-operator", "--config", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --json applies to the report commands, not to export-operator"
    ]


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = write(tmp_path, "nu2.cfg", NU2_CFG)
    out = tmp_path / "missing" / "report.txt"
    assert main(["verify-moments", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write report: ")
    assert str(out) in captured.err
    assert not out.exists()


def test_closed_stdout_pipe_exits_2_with_one_line(tmp_path):
    # a reader that stops after one line, as `| head -1` does; the export
    # (six grid points, depth 6: about 0.9 MB) outgrows the pipe's buffer,
    # so the writer is still writing when the pipe closes
    cfg = (
        SIX_ATOM_CFG.replace("weights 0.8 1.4", "weights 0.8 1.4 1.1 0.6 0.9 1.2")
        .replace("values 0.9 -0.4", "values 0.9 -0.4 0.3 1.1 -0.7 0.5")
        .replace("depth 4", "depth 6")
    )
    path = write(tmp_path, "export.cfg", cfg)
    with subprocess.Popen(
        [sys.executable, "-m", "levyfock.cli", "export-operator", "--config", path],
        env=_fresh_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as child:
        assert child.stdout.readline() == "# levyfock operator export\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 2
    (line,) = err.splitlines()
    assert line.startswith("error: cannot write report: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_oversize_export_exits_2_before_assembly(tmp_path, capsys, monkeypatch):
    def assembled(self, alpha):
        raise AssertionError("assembly started")

    monkeypatch.setattr(cli.FockSpace, "basis", assembled)
    cfg = (
        THREE_POINT_CFG.replace("-1.3 -0.4 0.6 1.1 2.2", "-1.3 -0.4 0.6 1.1 2.2 3.1")
        .replace("0.7 1.2 0.5 0.9 1.1", "0.7 1.2 0.5 0.9 1.1 0.8")
        .replace("weights 0.7 1.1 1.3", "weights " + " ".join(["1.0"] * 64))
        .replace("values 0.9 -0.4 1.2", "values " + " ".join(["0.5"] * 64))
    )
    path = write(tmp_path, "wide.cfg", cfg)
    out = tmp_path / "operator.txt"
    assert main(["export-operator", "--config", path, "--out", str(out)]) == 2
    assert "up to 2,194,689,425 operator entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(
    importlib.util.find_spec("_sha256") is None and importlib.util.find_spec("_sha2") is None,
    reason="no builtin sha256 module",
)
def test_cli_import_leaves_openssl_unloaded():
    assert _fresh_python("import levyfock.cli, sys; print('_hashlib' in sys.modules)") == "False"


def test_cli_import_leaves_json_unloaded():
    # only a --json report needs the module
    assert _fresh_python("import levyfock.cli, sys; print('json' in sys.modules)") == "False"


# Exit code of an oracle-check, then which of fractions and decimal are loaded.
_ORACLE_MODULES_PROBE = """\
import sys
import levyfock.cli

code = levyfock.cli.main(["oracle-check", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, sorted({"fractions", "decimal"} & set(sys.modules)))
"""


def test_cli_import_leaves_fractions_unloaded(tmp_path):
    # the chaos oracle's exact arithmetic is in integers, so neither the
    # import nor an oracle-check loads fractions (which loads decimal)
    path = write(tmp_path, "multi.cfg", MULTI_POINT_CFG)
    out = str(tmp_path / "report.txt")
    assert _fresh_python(_ORACLE_MODULES_PROBE, path, out) == "0 []"


def _fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this levyfock."""
    src = str(Path(levyfock.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _fresh_cli(command: str, path: str, timeout: float) -> subprocess.CompletedProcess:
    """``levyfock.cli COMMAND --config PATH`` run by a new interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "levyfock.cli", command, "--config", path],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _fresh_python(program: str, *args: str) -> str:
    """Stripped stdout of ``program`` run by a new interpreter that imports this levyfock."""
    result = subprocess.run(
        [sys.executable, "-c", program, *args],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


# VmHWM growth, in kB, from one call once the CLI is imported, with BLAS
# pinned to one thread; reads /proc.
_PEAK_PROBE = """\
import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[var] = "1"
import levyfock.cli

def status(key):
    with open("/proc/self/status") as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith(key))

base = status("VmHWM:")
{call}
print(status("VmHWM:") - base)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_gamma_rule_adds_little_peak():
    # no LAPACK call to page in: the rule is built from its own recurrence
    probe = _PEAK_PROBE.format(call="levyfock.cli.gauss_laguerre_gamma(40)")
    assert int(_fresh_python(probe)) <= 512


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_oracle_check_adds_little_peak(tmp_path):
    # three points, level 2: about 600 kB; with decimal loaded, as the
    # rational weights loaded it, about 900 kB
    call = 'levyfock.cli.main(["oracle-check", "--config", sys.argv[1], "--out", sys.argv[2]])'
    path = write(tmp_path, "multi.cfg", MULTI_POINT_CFG)
    added = _fresh_python(_PEAK_PROBE.format(call=call), path, str(tmp_path / "report.txt"))
    assert int(added) <= 768


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_defect_check_adds_little_peak(tmp_path):
    # two points, depth 4: about 800 kB comparing each entry with its
    # transpose; about 1,260 kB when np.unique matched int64 keys
    call = 'levyfock.cli.main(["verify-moments", "--config", sys.argv[1], "--out", sys.argv[2]])'
    path = write(tmp_path, "sym.cfg", TWO_POINT_CFG + "check_symmetry 1\n")
    added = _fresh_python(_PEAK_PROBE.format(call=call), path, str(tmp_path / "report.txt"))
    assert int(added) <= 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_wide_moments_add_little_beyond_the_operator(tmp_path):
    # G = 32, D = 4, six atoms, moments to order 8: the operator stores
    # 6.3 MB and the bases about 5 MB.  Per-pair lists, their concatenation
    # and whole-array application added about 23,400 kB; one preallocation
    # filled and applied in pieces, about 13,900 kB
    weights = " ".join(f"{0.5 + i / 32}" for i in range(32))
    values = " ".join(f"{(-1) ** i * (0.6 + i / 32)}" for i in range(32))
    cfg = (
        THREE_POINT_CFG.replace("-1.3 -0.4 0.6 1.1 2.2", "-1.3 -0.4 0.6 1.1 2.2 3.1")
        .replace("0.7 1.2 0.5 0.9 1.1", "0.7 1.2 0.5 0.9 1.1 0.8")
        .replace("weights 0.7 1.1 1.3", f"weights {weights}")
        .replace("values 0.9 -0.4 1.2", f"values {values}")
        .replace("depth 6\ncheck_symmetry 1", "depth 8\nmax_moment 8")
    )
    call = 'levyfock.cli.main(["verify-moments", "--config", sys.argv[1], "--out", sys.argv[2]])'
    path = write(tmp_path, "wide.cfg", cfg)
    added = _fresh_python(_PEAK_PROBE.format(call=call), path, str(tmp_path / "report.txt"))
    assert int(added) <= 18_000


# Peak RSS an export adds to the imported program, in bytes; reads /proc.
_EXPORT_PEAK_PROBE = """\
import sys
import levyfock.cli

def status(key):
    with open("/proc/self/status") as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith(key))

base = status("VmRSS:")
code = levyfock.cli.main(["export-operator", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, (status("VmHWM:") - base) * 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_export_peak_per_entry_within_refusal_estimate(tmp_path):
    # G = 24, D = 4, six atoms: the size refusal quotes _BYTES_PER_ENTRY per
    # bound entry, so the measured cost per stored entry must not exceed it
    weights = " ".join(f"{0.5 + i / 24}" for i in range(24))
    values = " ".join(f"{(-1) ** i * (0.6 + i / 24)}" for i in range(24))
    cfg = (
        THREE_POINT_CFG.replace("-1.3 -0.4 0.6 1.1 2.2", "-1.3 -0.4 0.6 1.1 2.2 3.1")
        .replace("0.7 1.2 0.5 0.9 1.1", "0.7 1.2 0.5 0.9 1.1 0.8")
        .replace("weights 0.7 1.1 1.3", f"weights {weights}")
        .replace("values 0.9 -0.4 1.2", f"values {values}")
        .replace("depth 6\ncheck_symmetry 1", "depth 4")
    )
    path = write(tmp_path, "wide.cfg", cfg)
    out = tmp_path / "operator.txt"
    code, added = _fresh_python(_EXPORT_PEAK_PROBE, path, str(out)).split()
    assert code == "0"
    with open(out, encoding="utf-8") as handle:
        entries = sum(not line.startswith("#") for line in handle)
    assert entries > 200_000
    assert int(added) / entries <= fock._BYTES_PER_ENTRY


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_export_peak_per_block_within_refusal_estimate(tmp_path):
    # one grid point, gamma-40, depth 24: 7,338 blocks of one representative
    # each, so the peak is the per-block cost, which the size refusal quotes
    # as _BYTES_PER_BLOCK; measured, it is 746 bytes a block here (0.98 kB
    # while the space kept a weight and an (n, alpha) key per block, 2.0 kB
    # while every block kept its basis) and grows slowly with the depth, to
    # 831 bytes at depth 36 and 871 at depth 44, the deepest the cap admits
    path = write(tmp_path, "deep.cfg", GAMMA_CFG.replace("depth 9", "depth 24"))
    out = tmp_path / "operator.txt"
    code, added = _fresh_python(_EXPORT_PEAK_PROBE, path, str(out)).split()
    assert code == "0"
    config = load_config(path)
    blocks = len(cli._operator_space(config, config.depth).block_keys())
    assert blocks == 7_338
    assert int(added) / blocks <= fock._BYTES_PER_BLOCK


class _Listed(Exception):
    """Raised where a space would start listing its blocks."""


def _refuse_listing(monkeypatch):
    def listed(*args):
        raise _Listed(args)

    monkeypatch.setattr(fock, "partitions", listed)
    monkeypatch.setattr(fock, "block_weight", listed)


SIX_ATOM_CFG = TWO_POINT_CFG.replace(
    "locations -1 1", "locations -1.3 -0.4 0.6 1.1 2.2 3.1"
).replace("weights 0.5 0.5", "weights 0.7 1.2 0.5 0.9 1.1 0.8")


@pytest.mark.parametrize(
    "cfg,message",
    [
        (
            SIX_ATOM_CFG.replace("depth 4", "depth 60"),
            "up to 13,527,286,651 operator entries in 241,502 blocks (about 604.9 GB) exceed the "
            "limit of 0.9 GB",
        ),
        (
            SIX_ATOM_CFG.replace("depth 4", "depth 400"),
            "operator entries in 9,291,593,969 blocks (about 1695387212185.0 GB) exceed the limit "
            "of 0.9 GB",
        ),
        (
            GAMMA_CFG.replace("depth 9", "depth 45"),
            "up to 11,972,413 operator entries in 540,609 blocks (about 1.0 GB) exceed the "
            "limit of 0.9 GB",
        ),
    ],
    ids=["G2-depth60", "G2-depth400", "G1-gamma40-depth45"],
)
def test_oversize_export_exits_2_before_listing_blocks(tmp_path, monkeypatch, capsys, cfg, message):
    _refuse_listing(monkeypatch)
    path, out = write(tmp_path, "big.cfg", cfg), tmp_path / "operator.txt"
    assert main(["export-operator", "--config", path, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: operator too large: up to ")
    assert message in line and line.endswith("; lower the depth or the grid size")
    assert not out.exists()


def test_deep_refusal_costs_little(tmp_path):
    # three atoms, two grid points, depth 16,000: the count took 64 s while
    # it summed every multiplicity of every part size at every level
    cfg = MULTI_POINT_CFG.replace("weights 0.7 1.1 1.3", "weights 0.7 1.1").replace(
        "values 0.9 -0.4 1.2", "values 0.9 -0.4"
    ).replace("depth 2\noracle_levels 2", "depth 16000")
    path = write(tmp_path, "deep.cfg", cfg)
    start = time.perf_counter()
    result = _fresh_cli("export-operator", path, timeout=60)
    assert time.perf_counter() - start < 10.0
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: operator too large: up to 10,874,947,038,995,419,020,791,723 operator entries "
        "in 113,852,459,112 blocks (about 486148016407976448.0 GB) exceed the limit of 0.9 GB; "
        "lower the depth or the grid size"
    ]


def _counting(monkeypatch, owners, name):
    """Replace ``name`` on every owner module by one wrapper that counts calls."""
    original = getattr(owners[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_defect_check_assembles_deep_annihilation_once(tmp_path, monkeypatch, capsys):
    # one annihilation for the half-depth moment space, one at the configured
    # depth, shared by the creation adjoint and the defect
    calls = _counting(monkeypatch, [cli, jacobi], "annihilation")
    path = write(tmp_path, "sym.cfg", TWO_POINT_CFG + "check_symmetry 1\n")
    assert main(["verify-moments", "--config", path]) == 0
    capsys.readouterr()
    assert [space.depth for _phi, space in calls] == [2, 4]


def test_defect_check_builds_each_table_once_per_space(tmp_path, monkeypatch, capsys):
    # the moment space (depth 2) and the defect space (depth 4) each hand out
    # one table of sorted tuples per part count; only the defect space has
    # blocks of three or four parts
    handed = []  # (space, part count, table) at every read
    tuples = fock.FockSpace.tuples

    def recorded(space, m):
        handed.append((space, m, tuples(space, m)))
        return handed[-1][2]

    monkeypatch.setattr(fock.FockSpace, "tuples", recorded)
    path = write(tmp_path, "sym.cfg", TWO_POINT_CFG + "check_symmetry 1\n")
    assert main(["verify-moments", "--config", path]) == 0
    capsys.readouterr()
    tables = {(id(space), m): set() for space, m, _ in handed}
    for space, m, table in handed:
        tables[(id(space), m)].add(id(table))
    assert all(len(ids) == 1 for ids in tables.values())
    built = Counter(m for _space, m in tables)
    assert (built[1], built[2], built[3], built[4]) == (2, 2, 1, 1)


def test_config_holds_each_input_once(tmp_path):
    cfg = load_config(write(tmp_path, "nu2.cfg", NU2_CFG))
    assert cfg.measure() is cfg.measure()
    assert cfg.grid() is cfg.grid()
    assert cfg.phi().grid is cfg.grid()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_measure_built_once_per_command(tmp_path, monkeypatch, capsys, command):
    calls = _counting(monkeypatch, [cli], "gauss_laguerre_gamma")
    path = write(tmp_path, "gamma.cfg", GAMMA_CFG)
    assert main([command, "--config", path]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_tolerance_override(tmp_path, capsys):
    path = write(tmp_path, "nu2.cfg", NU2_CFG)
    # an absurdly tight tolerance cannot fail an exact comparison of zeros
    # and exact integers, so loosen judgement with a fault instead
    cfg = NU2_CFG + "fault_b1 1.0000001\n"
    path = write(tmp_path, "fault.cfg", cfg)
    assert main(["verify-moments", "--config", path]) == 1
    capsys.readouterr()
    assert main(["verify-moments", "--config", path, "--tol", "0.5"]) == 0
    capsys.readouterr()


class TestNonFiniteRejected:
    """Non-finite numbers exit 2 instead of reaching a verdict."""

    FAULTED = NU2_CFG + "fault_b1 1.5\n"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_tol_flag(self, tmp_path, capsys, tol):
        path = write(tmp_path, "fault.cfg", self.FAULTED)
        assert main(["verify-moments", "--config", path, "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_tolerance_key(self, tmp_path, capsys):
        path = write(tmp_path, "fault.cfg", self.FAULTED + "tolerance nan\n")
        assert main(["verify-moments", "--config", path]) == 2
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new",
        [
            ("values 1.0", "values nan"),
            ("weights 0.5 0.5", "weights 0.5 nan"),
            ("locations -1 1", "locations -1 inf"),
            ("weights 2.0", "weights inf"),
        ],
    )
    def test_inputs(self, tmp_path, capsys, old, new):
        path = write(tmp_path, "bad.cfg", NU2_CFG.replace(old, new))
        assert main(["verify-moments", "--config", path]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits,error",
        [
            # the run keys are checked first, then the measure, the grid
            # and the test function are built in that order
            (
                [("locations -1 1", "locations -1 inf"), ("weights 2.0", "weights inf")],
                "atom locations and weights must be finite",
            ),
            (
                [("weights 2.0", "weights inf"), ("values 1.0", "values nan")],
                "grid weights must be finite",
            ),
            (
                [("locations -1 1", "locations -1 inf"), ("depth 6", "depth 0")],
                "depth must be at least 1",
            ),
        ],
        ids=["atom-before-grid", "grid-before-phi", "depth-before-atom"],
    )
    def test_first_error_reported(self, tmp_path, capsys, edits, error):
        text = NU2_CFG
        for old, new in edits:
            text = text.replace(old, new)
        path = write(tmp_path, "bad.cfg", text)
        assert main(["verify-moments", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize(
    "text,error",
    [
        (NU2_CFG + "check_symetry 1\n", "unknown key 'check_symetry' in [run]"),
        (NU2_CFG + "tolerence 1e-30\n", "unknown key 'tolerence' in [run]"),
        (NU2_CFG + "[extra]\nnote 1\n", "unknown section [extra]"),
        (NU2_CFG.replace("type inline", "type inline\norder 40"), "unknown key 'order' in [measure]"),
        (GAMMA_CFG.replace("order 40", "order 40\nweights 1"), "unknown key 'weights' in [measure]"),
        (NU2_CFG.replace("values 1.0", "value 1.0\nvalues 1.0"), "unknown key 'value' in [phi]"),
        (NU2_CFG + "depth 2\n", "config line 15: repeated key 'depth' in [run]"),
        (NU2_CFG + "[grid]\nweights 1.0\n", "config line 16: repeated key 'weights' in [grid]"),
    ],
    ids=["typo", "tolerence", "section", "inline-order", "gamma-weights", "phi", "depth", "grid"],
)
def test_ignored_config_text_rejected(tmp_path, capsys, text, error):
    path = write(tmp_path, "run.cfg", text)
    assert main(["verify-moments", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "old,new,error",
    [
        ("depth 6", "depth 3.5", "key 'depth' in [run] expects an integer, not '3.5'"),
        ("max_moment 6", "max_moment 6.0", "key 'max_moment' in [run] expects an integer"),
        ("weights 2.0", "weights two", "key 'weights' in [grid] expects a number, not 'two'"),
        ("-1 1", "-1 x", "key 'locations' in [measure] expects a number, not 'x'"),
        ("values 1.0", "values 1,0", "key 'values' in [phi] expects a number, not '1,0'"),
        ("max_moment 6", "fault_b1 nan", "fault_b1 scale must be finite, not nan"),
        ("max_moment 6", "fault_b1 inf", "fault_b1 scale must be finite, not inf"),
        ("max_moment 6", "fault_b1 1e400", "fault_b1 scale must be finite, not inf"),
        ("order 40", "order 4e1", "key 'order' in [measure] expects an integer, not '4e1'"),
        ("order 40", "order 200", "gamma rule of order 200: "),
    ],
    ids=["depth", "max_moment", "grid", "locations", "phi", "nan", "inf", "1e400", "order", "200"],
)
def test_bad_number_named(tmp_path, capsys, old, new, error):
    text = (GAMMA_CFG if old == "order 40" else NU2_CFG).replace(old, new)
    path = write(tmp_path, "run.cfg", text)
    assert main(["recurrence", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}")


class TestNanVerdicts:
    """A number that cannot be compared with the tolerance fails the check."""

    def test_nan_moment_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "vacuum_moments", lambda phi, space, k: [math.nan] * (k + 1))
        path = write(tmp_path, "nu2.cfg", NU2_CFG)
        assert main(["verify-moments", "--config", path]) == 1
        assert "status fail" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["adjoint_defect", "symmetry_defect"])
    def test_nan_defect_fails(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setattr(cli, name, lambda *ops: math.nan)
        path = write(tmp_path, "sym.cfg", NU2_CFG + "check_symmetry 1\n")
        assert main(["verify-moments", "--config", path]) == 1
        assert "status fail" in capsys.readouterr().out

    @pytest.mark.parametrize("part,where", [("annihilation", "vals"), ("neutral", "diag")])
    def test_infinite_entry_fails(self, tmp_path, capsys, monkeypatch, part, where):
        build = getattr(cli, part)

        def with_inf(*args):
            built = build(*args)  # the triplets, or the diagonal
            if where == "vals":
                built[2][0] = math.inf  # level 0 to 1
            else:
                built[1] = math.inf  # flat position 1
            return built

        monkeypatch.setattr(cli, part, with_inf)
        path = write(tmp_path, "sym.cfg", TWO_POINT_CFG + "check_symmetry 1\n")
        assert main(["verify-moments", "--config", path]) == 1
        out = capsys.readouterr().out
        key = "adjoint-defect" if part == "annihilation" else "neutral-symmetry-defect"
        (line,) = [line for line in out.splitlines() if line.startswith(key + " ")]
        assert not math.isfinite(float(line.split()[1]))
        assert "status fail" in out

    def test_nan_oracle_error_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "chaos_inner_product", lambda f, g, model, n: math.nan)
        path = write(tmp_path, "nu2.cfg", NU2_CFG)
        assert main(["oracle-check", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "max-rel-error nan" in out
        assert "status fail" in out
