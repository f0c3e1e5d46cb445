"""Property tests: whatever bytes a model, witness or gadget file holds,
the CLI answers with an exit code and raises nothing.

The inputs are random bytes and mutated copies of a demo model and of a
`solve --json` output on it. Every reader must turn what it cannot use
into an `error:` line and exit 2 (or answer normally)."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from covgame.cli import main

MODEL = Path(__file__).resolve().parent.parent / "demos" / "models" / "handshake.game.cov"


def _solve_output() -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["solve", str(MODEL), "--m", "2", "--json"]) == 0
    return buf.getvalue().encode()


SEEDS = (MODEL.read_bytes(), _solve_output())
TOKENS = (b'"', b"[", b"]", b"{", b"}", b",", b":", b"0", b"-1", b"null", b"true",
          b"1e999", b'"home"', b'"kind"', b"\xff", b"\xc3")


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    """`seed` with a few spans deleted, replaced, or doubled."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 16)))
        data[i:j] = draw(st.one_of(
            st.binary(max_size=8),
            st.sampled_from(TOKENS),
            st.just(bytes(data[i:j]) * 2),
        ))
    return bytes(data)


inputs = st.one_of(st.binary(max_size=64), *(mutated(seed) for seed in SEEDS))
examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)

READERS = {
    "solve": ["solve", "{file}", "--m", "1"],
    "certify": ["certify", str(MODEL), "--witness", "{file}"],
    "gadget-sat": ["gadget", "sat", "{file}"],
    "gadget-qbf": ["gadget", "qbf", "{file}"],
    "gadget-vc": ["gadget", "vc", "{file}"],
    "gadget-hampath": ["gadget", "hampath", "{file}"],
}


@pytest.mark.parametrize("reader", sorted(READERS))
@examples
@given(data=inputs)
def test_reader_never_raises(reader, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        argv = [a.format(file=path) for a in READERS[reader]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2
                return
    assert isinstance(code, int) and code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error:")
