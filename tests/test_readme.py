"""The README's examples run as written: each fenced `python` block, and
the commands of "A pipeline, end to end" through `cli.main`, checked
against the output each `# ...` comment line promises."""

import argparse
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from covgame.cli import _parser, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


@pytest.mark.parametrize("code", fenced("python"))
def test_python_block_runs(code):
    exec(compile(code, "README.md", "exec"), {})


def pipeline() -> str:
    return re.search(r"A pipeline, end to end:\n\n```sh\n(.*?)^```", README, re.M | re.S)[1]


def test_pipeline_runs(tmp_path, monkeypatch):
    """Each command line is `covgame ...` stages joined by `|`, with an
    optional `> file` at its end; a `# text` line after it must appear
    in its output. Files the commands write go to a scratch directory."""
    monkeypatch.chdir(ROOT)
    written: dict[str, str] = {}
    out = ""
    checked = []
    for line in pipeline().splitlines():
        if line.startswith("#"):
            want = re.split(r"\s{2,}", line[1:].strip())[0]
            assert want in out, (want, out)
            checked.append(want)
            continue
        if not line.strip():
            continue
        target = None
        if ">" in line:
            line, target = (part.strip() for part in line.split(">"))
        out = ""
        for stage in line.split("|"):
            argv = [written.get(a, a) for a in shlex.split(stage)]
            assert argv[0] == "covgame"
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(argv[1:])
            out = buf.getvalue()
        if target is not None:
            written[target] = str(tmp_path / target)
            Path(written[target]).write_text(out)
    assert checked == ["value: 3", "witness valid"]


def command_line_flags() -> set[str]:
    section = re.search(r"^## Command line\n(.*?)^## ", README, re.M | re.S)[1]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))


def parser_options() -> tuple[set[str], set[str]]:
    """The long options some subcommand defines, and those every one does
    (the shared parent parser's), apart from --help."""
    subs = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    per_command = [
        {s for a in p._actions if a.dest != "help" for s in a.option_strings if s.startswith("--")}
        for p in subs.choices.values()
    ]
    return set.union(*per_command), set.intersection(*per_command)


def test_command_line_flags_match_the_parser():
    named = command_line_flags()
    defined, shared = parser_options()
    assert named - defined == set(), "README names flags no subcommand defines"
    assert shared - named == set(), "README omits flags every subcommand takes"
