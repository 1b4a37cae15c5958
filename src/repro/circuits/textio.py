"""Plain-text circuit serialization.

A tiny line-oriented format (loosely inspired by YAL's role for MCNC)
so circuits can be saved, inspected, diffed and reloaded::

    circuit <name>
    rows <R>
    cell <id> <row> <x> <width> [feed]
    net <id> <name>
    pin <id> <net> <cell> <x> <row> <side> <equiv> <kind>

Cells must appear before the pins that reference them; ``pin`` lines carry
absolute coordinates so files round-trip even after feedthrough insertion.
Fields are whitespace-separated, so a circuit or net name must be one
non-empty token: :func:`save_circuit` rejects any other name rather than
write a file that would load back with the name cut short.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO, Union

from repro.circuits.model import Cell, Circuit, Net, Pin, PinKind
from repro.circuits.validate import validate_circuit


def save_circuit(circuit: Circuit, target: Union[str, Path, TextIO]) -> None:
    """Write a circuit to a path or text file object.

    Raises ``ValueError`` (before writing anything) when the circuit's
    name or a net's name is empty or contains whitespace.
    """
    _check_names(circuit)
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(circuit, fh)
    else:
        _write(circuit, target)


def _check_names(circuit: Circuit) -> None:
    if circuit.name.split() != [circuit.name]:
        raise ValueError(
            f"circuit name {circuit.name!r} must be one token without whitespace"
        )
    for net in circuit.nets:
        if net.name.split() != [net.name]:
            raise ValueError(
                f"net {net.id} name {net.name!r} must be one token without whitespace"
            )


def _write(circuit: Circuit, fh: TextIO) -> None:
    fh.write(f"circuit {circuit.name}\n")
    fh.write(f"rows {len(circuit.rows)}\n")
    for cell in circuit.cells:
        feed = " feed" if cell.is_feed else ""
        fh.write(f"cell {cell.id} {cell.row} {cell.x} {cell.width}{feed}\n")
    for net in circuit.nets:
        fh.write(f"net {net.id} {net.name}\n")
    for pin in circuit.pins:
        fh.write(
            f"pin {pin.id} {pin.net} {pin.cell} {pin.x} {pin.row} "
            f"{pin.side} {int(pin.has_equiv)} {pin.kind.name}\n"
        )


def load_circuit(source: Union[str, Path, TextIO], validate: bool = True) -> Circuit:
    """Read a circuit written by :func:`save_circuit`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read(fh, validate)
    return _read(source, validate)


def _read(fh: TextIO, validate: bool) -> Circuit:
    circuit = Circuit()
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "circuit":
                circuit.name = parts[1] if len(parts) > 1 else "circuit"
            elif tag == "rows":
                for _ in range(int(parts[1])):
                    circuit.add_row()
            elif tag == "cell":
                cid, row, x, width = (int(v) for v in parts[1:5])
                is_feed = len(parts) > 5 and parts[5] == "feed"
                if cid != len(circuit.cells):
                    raise ValueError(f"cell ids must be dense, got {cid}")
                cell = Cell(id=cid, row=row, x=x, width=width, is_feed=is_feed)
                circuit.cells.append(cell)
                circuit.rows[row].cells.append(cid)
            elif tag == "net":
                nid = int(parts[1])
                if nid != len(circuit.nets):
                    raise ValueError(f"net ids must be dense, got {nid}")
                circuit.nets.append(Net(id=nid, name=parts[2]))
            elif tag == "pin":
                pid, net, cell, x, row, side, equiv = (int(v) for v in parts[1:8])
                kind = PinKind[parts[8]]
                if pid != len(circuit.pins):
                    raise ValueError(f"pin ids must be dense, got {pid}")
                pin = Pin(
                    id=pid, net=net, cell=cell, x=x, row=row, side=side,
                    has_equiv=bool(equiv), kind=kind,
                )
                circuit.pins.append(pin)
                if net >= 0:
                    circuit.nets[net].pins.append(pid)
                if cell >= 0:
                    circuit.cells[cell].pins.append(pid)
                if kind is PinKind.FAKE:
                    circuit._fake_pins_by_row.setdefault(row, []).append(pid)
            else:
                raise ValueError(f"unknown record {tag!r}")
        except (IndexError, ValueError, KeyError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {line!r}: {exc}") from exc
    circuit.sort_rows()
    if validate:
        validate_circuit(circuit, allow_unbound_feeds=True)
    return circuit


def dumps(circuit: Circuit) -> str:
    """Serialize to a string (same name rules as :func:`save_circuit`)."""
    buf = io.StringIO()
    save_circuit(circuit, buf)
    return buf.getvalue()


def loads(text: str, validate: bool = True) -> Circuit:
    """Parse a string produced by :func:`dumps`."""
    return _read(io.StringIO(text), validate)
