"""README's library example runs against the package as it is."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first ```python block under README's "## Library" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    match = re.search(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_readme_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})
