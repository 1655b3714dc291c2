"""The README's library examples run as written and give the values it states;
its configuration blocks load and run."""
from __future__ import annotations

import re
from pathlib import Path

from levyfock.cli import load_config, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(tag: str) -> list[str]:
    """Bodies of the README's fenced blocks opened by ```tag."""
    return re.findall(rf"^```{tag}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["operator_side"] == namespace["oracle_side"] == [1, 0, 2, 0, 14, 0, 182]


def test_config_blocks_load(tmp_path, capsys):
    gamma, inline = _blocks("ini")
    gamma_path = tmp_path / "gamma.cfg"
    gamma_path.write_text(gamma, encoding="utf-8")
    assert load_config(str(gamma_path)).measure().atom_count == 40
    inline_path = tmp_path / "inline.cfg"
    inline_path.write_text(inline + gamma[gamma.index("[grid]") :], encoding="utf-8")
    assert load_config(str(inline_path)).measure().atom_count == 2
    assert main(["verify-moments", "--config", str(gamma_path)]) == 0
    assert "status pass" in capsys.readouterr().out
