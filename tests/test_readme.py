"""The README names only real command lines and real flags.

Every `trunc-centroid` example in a ```sh block must parse with the
CLI's own parser, and every --option the README mentions must be an
option of some subcommand.  Lines of other programs in those blocks
(pip, pytest) carry their own flags and are left out; --flag is the
README's placeholder for "any flag".
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from trunc_centroid.cli import build_parser

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
PLACEHOLDER = "--flag"
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.M | re.S)


def _sh_lines() -> list[str]:
    """Lines of the sh blocks, continuation lines joined."""
    lines = []
    for block in SH_BLOCK.findall(README):
        lines += block.replace("\\\n", " ").splitlines()
    return lines


def _examples() -> list[list[str]]:
    words = (shlex.split(line, comments=True) for line in _sh_lines())
    return [w[1:] for w in words if w[:1] == ["trunc-centroid"]]


def _subcommand_options() -> set[str]:
    parser = build_parser()
    options = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= set(sub._option_string_actions)
    return options


def _mentioned_options() -> set[str]:
    """Options in the prose, and in the sh blocks' comments and examples."""
    ours = [line for line in _sh_lines() if line.lstrip().startswith(("#", "trunc-centroid"))]
    text = "\n".join([SH_BLOCK.sub("", README), *ours])
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)) - {PLACEHOLDER}


def test_readme_has_examples():
    assert {argv[0] for argv in _examples()} == {
        "centroid", "compare", "verify", "sample", "figure",
    }


@pytest.mark.parametrize("argv", _examples(), ids=" ".join)
def test_readme_example_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README example does not parse: {capsys.readouterr().err}")


def test_readme_names_only_real_options():
    mentioned = _mentioned_options()
    assert {"--format", "--output", "--sigma", "--method"} <= mentioned
    assert sorted(mentioned - _subcommand_options()) == []
