import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MARKER = "=== EXAMPLE OUTPUT ==="


def example_output_pattern(demo: Path) -> re.Pattern:
    """The block under MARKER in the demo's docstring as a regex; a line "..." matches any run of lines."""
    docstring = ast.get_docstring(ast.parse(demo.read_text()), clean=False)
    block = docstring.split(MARKER, 1)[1].strip("\n")
    pieces = [r"(?:.*\n)*?" if line.strip() == "..." else re.escape(line) + r"\n" for line in block.split("\n")]
    return re.compile("".join(pieces))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


def test_a_dotted_line_matches_any_run_of_lines():
    pattern = re.compile(r"a\n(?:.*\n)*?b\n")
    assert pattern.fullmatch("a\nb\n") and pattern.fullmatch("a\nx\ny\nb\n")
    assert not pattern.fullmatch("a\nb\nc\n")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_prints(demo):
    # the printed digits are pinned by the example output in the demo's docstring
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert example_output_pattern(demo).fullmatch(result.stdout), result.stdout
