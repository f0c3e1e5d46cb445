"""Property tests: whatever bytes a model, witness or gadget file holds,
the CLI answers with an exit code and raises nothing.

The inputs are random bytes and mutated copies of the files each reader
takes: a demo model, its `solve --json` and `bounded --json` outputs,
and the demo DIMACS, QDIMACS and edge-list files. Every reader must turn
what it cannot use into an `error:` line and exit 2, or a budget it
cannot meet into exit 3 (or answer normally)."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from covgame.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "models"
MODEL = DEMOS / "handshake.game.cov"


def _output(*argv: str) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().encode()


WITNESSES = (
    _output("solve", str(MODEL), "--m", "2", "--json"),
    _output("bounded", str(MODEL), "--m", "2", "--k", "4", "--json"),
)
DIMACS = tuple((DEMOS / name).read_bytes() for name in ("pigeon.cnf", "alternating.qdimacs"))
EDGES = tuple((DEMOS / name).read_bytes() for name in ("k3.edges", "tour.edges"))
TOKENS = (b'"', b"[", b"]", b"{", b"}", b",", b":", b"0", b"-1", b"null", b"true",
          b"1e999", b'"home"', b'"kind"', b"\xff", b"\xc3",
          b"p cnf", b"e", b"a", b"999999999", b" ", b"\n", b"#")
NUMBERS = (b"0", b"2", b"-1", b"999999999", b"1e999")


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    """`seed` with a few spans deleted, replaced, or doubled, or a few
    of its numbers swapped for edge values."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        numbers = [match.span() for match in re.finditer(rb"\d+", data)]
        if numbers and draw(st.booleans()):
            i, j = draw(st.sampled_from(numbers))
            data[i:j] = draw(st.sampled_from(NUMBERS))
            continue
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 16)))
        data[i:j] = draw(st.one_of(
            st.binary(max_size=8),
            st.sampled_from(TOKENS),
            st.just(bytes(data[i:j]) * 2),
        ))
    return bytes(data)


def inputs(*seeds: bytes):
    return st.one_of(st.binary(max_size=64), *(mutated(seed) for seed in seeds))


examples = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# argv per reader, and the files whose mutations it reads
READERS = {
    "solve": (["solve", "{file}", "--m", "1"], (MODEL.read_bytes(), *WITNESSES)),
    "certify": (["certify", str(MODEL), "--witness", "{file}"], (MODEL.read_bytes(), *WITNESSES)),
    "gadget-sat": (["gadget", "sat", "{file}"], DIMACS),
    "gadget-qbf": (["gadget", "qbf", "{file}"], DIMACS),
    "gadget-vc": (["gadget", "vc", "{file}"], EDGES),
    "gadget-hampath": (["gadget", "hampath", "{file}"], EDGES),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@examples
@given(draw=st.data())
def test_reader_never_raises(reader, draw):
    template, seeds = READERS[reader]
    data = draw.draw(inputs(*seeds), label="input")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        argv = [a.format(file=path) for a in template]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2
                return
    assert isinstance(code, int) and code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().startswith("error:")
