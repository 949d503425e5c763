"""Every `-k` selector in the CI workflow still names a test.

A lane whose `-k` expression names a renamed or deleted test runs fewer
tests, or none, and still passes. So each bare word of each selector must
occur in the text of the test files that lane runs. The check reads the
files; it starts no pytest run.
"""

import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
KEYWORDS = {"and", "or", "not"}


def selectors():
    """(selector, paths) of each pytest command with -k in the workflow."""
    found = []
    for line in WORKFLOW.read_text().splitlines():
        command = line.strip().removeprefix("run:").strip()
        if "pytest" not in command or " -k " not in command:
            continue
        words = shlex.split(command)
        selector, paths = None, []
        rest = iter(words[words.index("pytest") + 1:])
        for word in rest:
            if word == "-k":
                selector = next(rest)
            elif word in ("-W", "-p"):
                next(rest)
            elif not word.startswith("-"):
                paths.append(ROOT / word)
        found.append((selector, paths))
    return found


def test_selectors_were_found():
    assert len(selectors()) >= 5


# numbered ids: an id holding the selector would be selected by it
@pytest.mark.parametrize("selector, paths", selectors(),
                         ids=[f"command{i}" for i in range(len(selectors()))])
def test_each_word_names_a_test(selector, paths):
    files = [f for p in paths
             for f in ([p] if p.is_file() else sorted(p.rglob("test_*.py")))]
    assert files, f"no test file in {paths}"
    text = "\n".join(f.read_text() for f in files)
    for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", selector):
        if word not in KEYWORDS:
            assert word in text, f"-k {selector!r}: {word!r} names no test in {paths}"
