"""README's library example and command-line examples run against the package as it is."""

import pathlib
import re
import shlex

from cluster_presents.cli import main

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


# The subcommands whose second word names the operation.
_GROUPS = {"matrix", "diagram", "present", "roots", "companion"}


def _shell_steps():
    """Per `$ ` line of README's sh blocks: (argv, the text shown under it)."""
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL):
        steps = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((shlex.split(line[2:], comments=True), []))
            elif steps:
                steps[-1][1].append(line)
        for argv, shown in steps:
            text = "\n".join(shown).rstrip("\n")
            yield argv, text + "\n" if text else ""


def test_readme_command_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    # Runs every example whose input files README writes (`cat`, `printf`, or
    # an earlier command's `>`) and whose output it shows in full, and compares
    # the output with README's text; `cat` of a file already written compares too.
    monkeypatch.chdir(tmp_path)
    checked = []
    for argv, shown in _shell_steps():
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        if argv[0] == "cat":
            path = tmp_path / argv[1]
            if path.exists():
                assert path.read_text() == shown, argv
            else:
                path.write_text(shown)
            continue
        if argv[0] == "printf":
            (tmp_path / target).write_text(argv[1].replace("\\n", "\n"))
            continue
        assert argv[0] == "cluster-presents", argv
        args = argv[1:]
        if target is None and (not shown or "..." in shown):
            continue  # README shows no output, or only part of it
        if not all((tmp_path / arg).exists() for arg in args if "." in arg):
            continue  # an input file README does not write
        assert main(args) == 0, args
        out, err = capsys.readouterr()
        assert err == "", args
        if target is None:
            assert out == shown, args
            checked.append(" ".join(args[:2] if args[0] in _GROUPS else args[:1]))
        else:
            (tmp_path / target).write_text(out)
    assert checked == [
        "matrix mutate", "diagram of", "diagram type", "diagram cycles", "present reduced", "order",
        "roots build", "companion check", "companion mutate", "switch",
    ]
