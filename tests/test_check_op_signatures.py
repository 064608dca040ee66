"""The CI guard that keeps loose scalar triples out of signatures."""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_op_signatures import find_violations  # noqa: E402


def test_src_tree_is_clean():
    assert find_violations(REPO_ROOT / "src") == []


def test_flags_a_legacy_triple(tmp_path):
    offender = tmp_path / "repro" / "bad.py"
    offender.parent.mkdir(parents=True)
    offender.write_text(
        textwrap.dedent(
            """
            class Model:
                def price(self, temperature_k: float, vdd_v=None, vth_v=None):
                    return temperature_k
            """
        )
    )
    violations = find_violations(tmp_path)
    assert len(violations) == 1
    assert "Model.price" in violations[0]
    assert "repro/bad.py" in violations[0]


def test_operating_point_module_is_exempt(tmp_path):
    module = tmp_path / "repro" / "tech" / "operating_point.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        textwrap.dedent(
            """
            class OperatingPoint:
                @classmethod
                def at(cls, temperature_k, vdd_v=None, vth_v=None, name=None):
                    return cls(name, temperature_k, vdd_v, vth_v)
            """
        )
    )
    assert find_violations(tmp_path) == []


def test_partial_triples_are_allowed(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text("def f(op=None, vdd_v=None, vth_v=None):\n    return op\n")
    assert find_violations(tmp_path) == []
