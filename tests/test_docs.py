import argparse
import contextlib
import io
import re
from pathlib import Path

from swan_aircomp.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_private_names_are_defined():
    """Every backticked private name in README.md is defined in the package.

    README cites helpers such as `_joint_scan` by name; a rename or removal
    that leaves the README behind fails here.
    """
    names = set(re.findall(r"`(_\w+)`", (ROOT / "README.md").read_text()))
    assert names
    source = "\n".join(p.read_text() for p in sorted((ROOT / "src" / "swan_aircomp").glob("*.py")))
    missing = [
        name for name in sorted(names)
        if not re.search(rf"^\s*(?:(?:def|class)\s+{name}\b|{name}\s*[:=])", source, re.MULTILINE)
    ]
    assert not missing, f"README.md cites undefined names: {missing}"


def test_readme_command_line_flags_are_cli_options():
    """README's "Command line" section names exactly the options of the subcommands.

    A flag renamed or removed in `cli.py` that the README still names fails
    here, and so does an option of some subcommand that the README never names.
    """
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert flags
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt for p in sub.choices.values() for a in p._actions for opt in a.option_strings
        if opt.startswith("--")
    }
    assert sorted(flags - options) == [], "README.md names unknown flags"
    assert sorted(options - flags) == [], "README.md leaves CLI options out"


def test_readme_library_example_runs():
    """README's one python block runs, and the MSE it recomputes is the optimizer's, to the digit."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0].split()[0] == lines[-1]
