import re
from pathlib import Path

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
