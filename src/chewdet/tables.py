"""The two codecs behind every chewdet file: CSV tables and flat
``key = value`` files.

A table format is a header plus one kind letter per column: ``f`` float,
written with ``repr`` so it reads back bit-exact; ``i`` integer; ``m``
seconds, stored as integer milliseconds ``int(round(t * 1000.0))`` and read
back as ``ms / 1000.0``; ``s`` string, quoted as the csv module quotes (a
line break cannot be stored).  Lines end with ``\\r\\n``; the writer formats
each block of rows from column slices.  Reading compares the header after
stripping whitespace from each name, skips whitespace-only lines, strips
every field and parses the body in bulk with :func:`numpy.loadtxt`, whose
float parser is correctly rounded.  Numeric fields must be finite both
ways, and ``i`` and ``m`` fields integral.  Cost: O(rows x columns) time
both ways; beyond the columns themselves, a write holds one block of
formatted cells and a read one block of lines.

A flat file (run config, scenario, model header) holds ``key = value``
lines; ``#`` starts a comment and blank lines are skipped.  Each key may
appear once, typed by its dataclass field's annotation; values are written
as ``repr(value)``, None as ``auto``.  Errors of both codecs are
``ValueError``s naming the file and its real line, blank lines counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

# Cells formatted or parsed at a time: 4,096 rows of the 10-column sensor log.
BLOCK_CELLS = 40_960

_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


def _quote(text: str) -> str:
    if "\n" in text or "\r" in text:
        raise ValueError(f"a CSV field cannot hold a line break: {text!r}")
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def _format(name: str, kind: str, values) -> list[str]:
    if kind == "s":
        return list(map(_quote, values))
    values = np.asarray(values, dtype=float if kind in "fm" else None)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0].item()
        raise ValueError(f"column {name} is not finite: {bad!r}")
    if kind == "f":
        return list(map(repr, values.tolist()))
    if kind == "m":
        values = np.rint(values * 1000.0)
        if not np.all(np.abs(values) < 2.0**63):
            raise ValueError("time is not representable in integer milliseconds")
    return list(map(str, values.astype(np.int64).tolist()))


def transpose(rows: Iterable[Sequence], width: int) -> list:
    """The ``width`` columns of ``rows``, each row of ``width`` values."""
    return list(zip(*rows, strict=True)) or [()] * width


def write_table(path: str | Path, header: Sequence[str], kinds: str, columns: Sequence) -> None:
    """Write ``columns``: one array or list per ``header`` name and kind, of one length."""
    if not len(header) == len(kinds) == len(columns):
        raise ValueError(f"{len(header)} column names, {len(kinds)} kinds, {len(columns)} columns")
    rows = len(columns[0]) if columns else 0
    if any(len(col) != rows for col in columns):
        raise ValueError(f"columns of unequal length: {[len(col) for col in columns]}")
    step = max(1, BLOCK_CELLS // len(kinds))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for lo in range(0, rows, step):
            cells = list(map(_format, header, kinds, (col[lo : lo + step] for col in columns)))
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


@dataclass(frozen=True)
class Table:
    """A table as read: ``columns`` holds float arrays for ``f`` and ``m``,
    int64 arrays for ``i`` and lists of str for ``s``; ``lines`` holds the
    file line of each row."""

    path: Path
    header: tuple[str, ...]
    columns: list
    lines: list[int]

    def rows(self, make: Callable = lambda *row: row) -> list:
        """``make(*row)`` per row of Python floats, ints and strs (default: the
        tuple); a ``ValueError`` from ``make`` is re-raised naming the line."""
        out: list = []
        try:
            for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns)):
                out.append(make(*row))
        except ValueError as exc:
            raise self.error(len(out), str(exc)) from exc
        return out

    def error(self, row: int, message: str) -> ValueError:
        return ValueError(f"{self.path}: line {self.lines[row]}: {message}")


def _parse(lines: list[str], kinds: str) -> tuple[np.ndarray, np.ndarray]:
    """The numeric fields as floats and the string fields as str objects."""
    # Strings come back as objects: loadtxt's dtype=str costs ~100 MB per call.
    text = "s" in kinds
    cells = np.loadtxt(lines, dtype=object if text else float, **_LOADTXT)
    if cells.shape[1] != len(kinds):
        raise ValueError(f"{cells.shape[1]} fields")
    if not text:
        return cells, np.empty((len(cells), 0), dtype=object)
    numeric = [k for k, c in enumerate(kinds) if c != "s"]
    strings = [k for k, c in enumerate(kinds) if c == "s"]
    return cells[:, numeric].astype(float), cells[:, strings]


def _bad_line(path: Path, block: list[tuple[int, str]], kinds: str) -> ValueError:
    """The error for the first line of a failed block that fails alone."""
    for lineno, line in block:
        try:
            fields = np.loadtxt([line], dtype=object, **_LOADTXT).shape[1]
            if fields != len(kinds):
                return ValueError(
                    f"{path}: line {lineno}: expected {len(kinds)} fields, got {fields}"
                )
            _parse([line], kinds)
        except ValueError:
            return ValueError(f"{path}: line {lineno}: malformed row {line.strip()!r}")
    raise AssertionError("a block that fails to parse has a line that fails alone")


def _read_block(path: Path, block: list[tuple[int, str]], names, kinds: str):
    try:
        num, text = _parse([line for _, line in block], kinds)
    except ValueError:
        raise _bad_line(path, block, kinds) from None
    numeric = [k for k, c in enumerate(kinds) if c != "s"]
    bad = ~np.isfinite(num)
    if bad.any():
        row, col = divmod(int(np.flatnonzero(bad)[0]), num.shape[1])
        raise ValueError(
            f"{path}: line {block[row][0]}: column {names[numeric[col]]} "
            f"is not finite: {float(num[row, col])!r}"
        )
    whole = num[:, [j for j, k in enumerate(numeric) if kinds[k] in "im"]]
    off = ((whole != np.trunc(whole)) | (np.abs(whole) >= 2.0**63)).any(axis=1)
    if off.any():
        lineno, line = block[int(np.flatnonzero(off)[0])]
        raise ValueError(f"{path}: line {lineno}: malformed row {line.strip()!r}")
    return num, text


def read_table(path: str | Path, header: Sequence[str], kinds: str, lead: str = "") -> Table:
    """Read a table written with ``header`` and ``kinds``.

    With ``lead`` set, one or more freely named columns of kind ``lead``
    come first (the feature matrix before its bookkeeping columns).
    """
    path, header = Path(path), tuple(header)
    with open(path, encoding="utf-8") as fh:
        numbered = ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
        first = next(numbered, None)
        raw = first and np.loadtxt([first[1]], dtype=object, **_LOADTXT)[0].tolist()
        names = tuple(name.strip() for name in raw or ())
        extra = len(names) - len(header) if lead else 0
        if names[max(extra, 0) :] != header or (lead and extra < 1):
            expected = ",".join(header)
            if lead:
                expected = f"{lead!r} columns, then {expected}"
            raise ValueError(f"{path}: bad header {raw!r}, expected {expected}")
        kinds = lead * extra + kinds
        nums = [np.empty((0, len(kinds) - kinds.count("s")))]
        texts = [np.empty((0, kinds.count("s")), dtype=object)]
        lines: list[int] = []
        while block := list(islice(numbered, max(1, BLOCK_CELLS // len(kinds)))):
            num, text = _read_block(path, block, names, kinds)
            nums.append(num)
            texts.append(text)
            lines.extend(n for n, _ in block)
    numeric = iter(np.concatenate(nums).T)
    strings = ([s.strip() for s in col] for col in np.concatenate(texts).T.tolist())
    convert = {"f": np.copy, "i": lambda v: v.astype(np.int64), "m": lambda v: v / 1000.0}
    columns = [next(strings) if k == "s" else convert[k](next(numeric)) for k in kinds]
    return Table(path, names, columns, lines)


# ---------------------------------------------------------------------------
# Flat ``key = value`` files.
# ---------------------------------------------------------------------------

def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {raw}")
    return value


_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}
_PARSERS = {
    "bool": lambda raw: _BOOLS[raw.lower()],
    "int": int,
    "float": float,
    "finite float": _finite_float,
    "float | None": lambda raw: None if raw.lower() in ("auto", "none") else float(raw),
    "str": str,
}


def key_values(lines: Iterable[str], source) -> Iterator[tuple[int, str, str]]:
    """``(line, key, value)`` of each ``key = value`` line; ``source`` names the file."""
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{source}: line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = text.partition("=")
        yield lineno, key.strip(), value.strip()


def field_types(cls) -> dict[str, str]:
    """The annotation of each field of dataclass ``cls``, as a string."""
    return {f.name: f.type for f in fields(cls)}


def parse_fields(types: Mapping[str, str], entries, source, what: str) -> dict:
    """The value of each ``(line, key, value)`` entry, parsed as ``types[key]``
    says; ``what`` names the kind of file in errors."""
    values: dict = {}
    first: dict[str, int] = {}
    for lineno, key, raw in entries:
        parse = _PARSERS.get(types.get(key))
        if parse is None:
            raise ValueError(f"{source}: line {lineno}: unknown {what} key {key!r}")
        if key in first:
            raise ValueError(
                f"{source}: line {lineno}: repeated {what} key {key!r}, "
                f"first set on line {first[key]}"
            )
        first[key] = lineno
        try:
            values[key] = parse(raw)
        except (KeyError, ValueError):
            raise ValueError(
                f"{source}: line {lineno}: {what} key {key}: expected {types[key]}, got {raw!r}"
            ) from None
    return values


def render_fields(obj) -> list[tuple[str, str]]:
    """``(name, repr(value))`` for each field of dataclass ``obj``, None as ``auto``."""
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return [(name, "auto" if value is None else repr(value)) for name, value in values]
