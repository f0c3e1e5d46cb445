"""Recorded CLI outputs on the demo models: stdout and exit code of
`solve`, `bounded` and `recurrent` under --json must not change, and
each witness and certificate recorded there must pass `certify`.

`cli_golden.json` maps each command line (model file name first, then
the arguments) to the exit code and stdout recorded for it. To record
it afresh, run this file as a script."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from covgame import formats
from covgame.cli import main

HERE = Path(__file__).resolve().parent
MODELS = HERE.parent / "demos" / "models"
GOLDEN = HERE / "cli_golden.json"
FILES = ("triangle.cov", "handshake.game.cov", "flaky.system.cov")


def commands() -> list[list[str]]:
    out = []
    for name in FILES:
        nap = len(formats.loads((MODELS / name).read_text()).ap)
        out.append([name, "solve", "--json", "--value"])
        for m in range(nap + 1):
            out.append([name, "solve", "--json", "--m", str(m)])
            for k in (0, 2, 5):
                out.append([name, "bounded", "--json", "--m", str(m), "--k", str(k)])
        out.append([name, "recurrent", "--json"])
    return out


def run(cmd: list[str]) -> dict:
    name, sub, *rest = cmd
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([sub, str(MODELS / name), *rest])
    return {"code": code, "stdout": buf.getvalue()}


def record() -> dict:
    return {" ".join(cmd): run(cmd) for cmd in commands()}


@pytest.mark.parametrize("cmd", commands(), ids=" ".join)
def test_output_matches_recording(cmd):
    assert run(cmd) == json.loads(GOLDEN.read_text())[" ".join(cmd)]


def test_recording_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(c) for c in commands())


def recorded_witnesses() -> list:
    """Each non-null witness and certificate in the recording, with the
    model it was solved on."""
    found = []
    for cmd, rec in sorted(json.loads(GOLDEN.read_text()).items()):
        out = json.loads(rec["stdout"])
        for field in ("witness", "certificate"):
            if out.get(field) is not None:
                found.append(pytest.param(cmd.split()[0], out[field], id=f"{cmd} {field}"))
    return found


@pytest.mark.parametrize("name, witness", recorded_witnesses())
def test_recorded_witnesses_certify(tmp_path, name, witness):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["certify", str(MODELS / name), "--witness", str(path)])
    assert code == 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
