"""Every command of the README's `## CLI` block runs and exits 0.

Each command runs through `cli.run` twice, with its optional `[...]` parts
left out and with them included, from a temporary working directory, so
the report paths it names are written there.  A `# -> text` comment is
text that the command's output must contain.
"""
import re
import shlex
from pathlib import Path

import pytest

from virmod.cli import build_parser, run

README = Path(__file__).parent.parent / "README.md"


def cli_block() -> list[str]:
    """The lines of the first sh block after the `## CLI` heading."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    return [line for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines() if line.strip()]


def cases():
    for line in cli_block():
        command, _, comment = line.partition("#")
        expected = comment.strip().removeprefix("->").strip()
        without = re.sub(r"\s*\[[^\]]*\]", "", command)
        with_ = re.sub(r"\[([^\]]*)\]", r"\1", command)
        for variant in dict.fromkeys((without, with_)):
            words = shlex.split(variant)
            assert words[0] == "virmod", line
            yield words[1:], expected


CASES = list(cases())


def test_cli_block_covers_every_subcommand():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv, _ in CASES} == set(subcommands)


@pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_readme_command_exits_0(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert expected in capsys.readouterr().out
    for flag, path in zip(argv, argv[1:]):
        if flag in ("--json", "--csv", "--timings"):
            assert (tmp_path / path).is_file(), flag
