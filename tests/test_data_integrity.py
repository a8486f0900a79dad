"""The shipped data files must match what the generators produce today.

These tests regenerate fixtures and benchmarks into temporary directories
and compare bytes, so any drift between agent code, prompts, and checked-in
fixtures fails loudly instead of silently replaying stale behavior.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from planwright.data_paths import benchmarks_root, data_root
from scenarios import write_scenario_files

REPO = Path(__file__).resolve().parents[1]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_scenario_fixtures_match_generators(tmp_path):
    write_scenario_files(tmp_path)
    shipped = tree_bytes(data_root() / "scenarios")
    regenerated = tree_bytes(tmp_path)
    assert regenerated.keys() == shipped.keys()
    for name in shipped:
        assert regenerated[name] == shipped[name], f"fixture drift in {name}; rerun scripts/make_fixtures.py"


def test_benchmarks_match_generator(tmp_path):
    """The problems are what the generator makes today, and each shipped
    domain is a parse/emit fixpoint: the generator reads it and writes it back."""
    env = {"PYTHONPATH": str(REPO / "src")}
    script = REPO / "scripts" / "gen_benchmarks.py"
    patched = tmp_path / "gen.py"
    text = script.read_text()
    redirected = text.replace(
        'OUT = Path(__file__).resolve().parents[1] / "src" / "planwright" / "data" / "benchmarks"',
        f'OUT = Path({str(tmp_path / "benchmarks")!r})',
    )
    # Without the redirect the generator would write into the shipped tree.
    assert redirected != text, "the generator's OUT line changed; update this test's redirect"
    patched.write_text(redirected)
    subprocess.run([sys.executable, "-B", str(patched)], check=True, env=env, capture_output=True)
    shipped = tree_bytes(benchmarks_root())
    regenerated = tree_bytes(tmp_path / "benchmarks")
    assert regenerated == shipped, "benchmark drift; rerun scripts/gen_benchmarks.py"

