import io
import re

import pytest

from repro.circuits import CircuitBuilder, PinKind, load_circuit, save_circuit
from repro.circuits.textio import dumps, loads
from repro.circuits.validate import validate_circuit


def test_roundtrip_builder(tiny_circuit):
    text = dumps(tiny_circuit)
    back = loads(text)
    assert back.name == tiny_circuit.name
    assert len(back.pins) == len(tiny_circuit.pins)
    assert len(back.cells) == len(tiny_circuit.cells)
    assert dumps(back) == text


def test_roundtrip_generated(small_circuit):
    back = loads(dumps(small_circuit))
    validate_circuit(back)
    assert [(p.x, p.row, p.net, p.side, p.has_equiv) for p in back.pins] == [
        (p.x, p.row, p.net, p.side, p.has_equiv) for p in small_circuit.pins
    ]


def test_roundtrip_with_feeds_and_fakes(tiny_circuit):
    c = tiny_circuit.clone()
    c.insert_feedthroughs(1, [4])
    c.add_pin(0, -1, kind=PinKind.FAKE, x=3, row=0)
    back = loads(dumps(c))
    kinds = [p.kind for p in back.pins]
    assert PinKind.FEED in kinds and PinKind.FAKE in kinds
    # fake pin registry survives: insertion shifts the reloaded fake pin
    fake = [p for p in back.pins if p.kind is PinKind.FAKE][0]
    back.insert_feedthroughs(0, [0])
    assert back.pins[fake.id].x == 3 + 1


def test_file_roundtrip(tmp_path, tiny_circuit):
    path = tmp_path / "c.txt"
    save_circuit(tiny_circuit, path)
    back = load_circuit(path)
    assert dumps(back) == dumps(tiny_circuit)


def test_stream_roundtrip(tiny_circuit):
    buf = io.StringIO()
    save_circuit(tiny_circuit, buf)
    back = load_circuit(io.StringIO(buf.getvalue()))
    assert dumps(back) == dumps(tiny_circuit)


def test_comments_and_blank_lines_skipped(tiny_circuit):
    text = "# a comment\n\n" + dumps(tiny_circuit)
    back = loads(text)
    assert len(back.pins) == len(tiny_circuit.pins)


def test_bad_record_raises():
    with pytest.raises(ValueError, match="line"):
        loads("circuit x\nrows 1\nbogus 1 2 3\n")


def test_non_dense_ids_raise():
    with pytest.raises(ValueError, match="dense"):
        loads("circuit x\nrows 1\ncell 5 0 0 4\n")


def _named_circuit(circuit_name, net_name):
    b = CircuitBuilder(rows=2, name=circuit_name)
    a, c = b.cell(row=0, width=4), b.cell(row=1, width=4)
    b.net(net_name, [(a, 1), (c, 2)])
    return b.build()


@pytest.mark.parametrize(
    "circuit_name,net_name,culprit",
    [
        ("my chip", "clk", "circuit name 'my chip'"),
        ("chip", "clk main", "net 0 name 'clk main'"),
        ("chip", "clk\tmain", "net 0 name 'clk\\tmain'"),
        ("", "clk", "circuit name ''"),
    ],
)
def test_whitespace_names_are_rejected_not_truncated(
    tmp_path, circuit_name, net_name, culprit
):
    # the format splits fields on whitespace: "my chip" used to load back
    # as "my" and "clk main" as "clk", silently
    c = _named_circuit(circuit_name, net_name)
    with pytest.raises(ValueError, match=re.escape(culprit)):
        dumps(c)
    path = tmp_path / "c.txt"
    with pytest.raises(ValueError, match=re.escape(culprit)):
        save_circuit(c, path)
    assert not path.exists()


def test_single_token_names_round_trip():
    back = loads(dumps(_named_circuit("my_chip", "clk.main[0]")))
    assert back.name == "my_chip"
    assert back.nets[0].name == "clk.main[0]"
