"""Every text-mode ``open(...)``, ``read_text(...)`` and ``write_text(...)``
in the package names its encoding, so no result depends on the host
locale. Read from the syntax tree: a call is text mode unless its mode is a
string literal holding ``b``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chronicle"


def _passes_encoding(call: ast.Call, positional_at: int | None) -> bool:
    """Whether ``call`` passes ``encoding=``, or an argument at the
    position where the callee takes the encoding."""
    if any(k.arg == "encoding" for k in call.keywords):
        return True
    return positional_at is not None and len(call.args) > positional_at


def _mode(call: ast.Call, position: int) -> ast.expr | None:
    for k in call.keywords:
        if k.arg == "mode":
            return k.value
    return call.args[position] if len(call.args) > position else None


def unencoded_calls(source: str):
    """(line, callee) for every text-mode open, read or write of a file
    that leaves the encoding to the locale."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            name, mode_at, encoding_at = "open", 1, 3
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            name, mode_at, encoding_at = "open", 0, 2   # Path.open
        elif isinstance(func, ast.Attribute) and func.attr == "read_text":
            name, mode_at, encoding_at = "read_text", None, 0
        elif isinstance(func, ast.Attribute) and func.attr == "write_text":
            name, mode_at, encoding_at = "write_text", None, 1
        else:
            continue
        mode = _mode(node, mode_at) if mode_at is not None else None
        if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value):
            continue
        if not _passes_encoding(node, encoding_at):
            yield node.lineno, name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_text_io_names_its_encoding(path):
    assert list(unencoded_calls(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source,flagged", [
    ("open(p)", ["open"]),
    ("open(p, 'w')", ["open"]),
    ("open(p, mode='a')", ["open"]),
    ("open(p, m)", ["open"]),
    ("Path(p).open()", ["open"]),
    ("p.read_text()", ["read_text"]),
    ("p.write_text(s)", ["write_text"]),
    ("resources.files('x').joinpath('y').read_text()", ["read_text"]),
    ("open(p, encoding='utf-8')", []),
    ("open(p, 'w', -1, 'utf-8')", []),
    ("open(p, 'rb')", []),
    ("open(p, mode='wb')", []),
    ("p.open('rb')", []),
    ("p.open('w', encoding='utf-8')", []),
    ("p.read_text(encoding='utf-8')", []),
    ("p.read_text('utf-8')", []),
    ("p.write_text(s, encoding='utf-8')", []),
    ("p.write_bytes(b)", []),
])
def test_unencoded_calls_are_found(source, flagged):
    assert [name for _, name in unencoded_calls(source)] == flagged
