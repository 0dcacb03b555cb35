"""Line-based box file formats and the one-line protocol serialization.

Box files are UTF-8 text; ``#`` starts a comment anywhere on a line and
blank lines are ignored.  The first content line picks the format:

* ``kind=correlators`` followed by the eight lines ``alpha= beta= gamma=
  omega= d1= d2= d3= eps=`` (decimal literals, any order): the box induced
  by those marginal biases and correlators.
* ``kind=matrix`` followed by ``row00= .. row11=``, each four
  comma-separated output probabilities (columns in output order
  00,01,10,11): the literal conditional distribution.
* ``kind=xor`` followed by ``n=``, ``f=<2^n bits as a 0/1 string>`` and
  ``delta=<comma-separated 2^n reals>``: an n-player XOR-game box.

Protocols serialize to a single line,

* ``proto=nonadaptive;n=..;m=..;tables=<hex>``
* ``proto=adaptive2;tables=<hex>``

where the hex is the canonical packed table encoding, zero-padded to its
full width (one digit per four encoding bits).  Parsers raise FormatError
on anything malformed; parsing never validates box constraints beyond the
field ranges the types themselves enforce.  Writers emit 12 significant
digits, which round-trips every value within 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import (
    CORRELATOR_FIELDS,
    INPUT_ORDER,
    BipartiteBox,
    CorrelatorForm,
    box_from_correlators,
)
from .errors import FormatError
from .wirings import AdaptiveTwoCopyProtocol, NonAdaptiveProtocol
from .xorboxes import MultipartiteXorBox, XorGame

__all__ = [
    "format_box",
    "format_box_correlators",
    "format_box_matrix",
    "format_protocol",
    "format_xor_box",
    "parse_box_text",
    "parse_protocol",
    "read_box_file",
    "write_box_file",
]

_ROW_KEYS = tuple(f"row{xy}" for xy in INPUT_ORDER)
_XOR_KEYS = ("n", "f", "delta")

# Serialized protocols beyond this many table bits are rejected rather than
# decoded; nothing in the package enumerates protocols anywhere near it.
_MAX_PROTOCOL_BITS = 4096


def _content_pairs(text: str) -> list[tuple[str, str]]:
    """key=value pairs in file order, comments and blank lines stripped."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _exact_keys(
    pairs: list[tuple[str, str]], wanted: tuple[str, ...]
) -> dict[str, str]:
    seen: dict[str, str] = {}
    for key, value in pairs:
        if key not in wanted:
            raise FormatError(f"unexpected key {key!r} (wanted: {', '.join(wanted)})")
        if key in seen:
            raise FormatError(f"duplicate key {key!r}")
        seen[key] = value
    missing = [key for key in wanted if key not in seen]
    if missing:
        raise FormatError(f"missing keys: {', '.join(missing)}")
    return seen


def _as_float(key: str, literal: str) -> float:
    try:
        value = float(literal)
    except ValueError:
        raise FormatError(f"{key}: {literal!r} is not a decimal literal") from None
    if not math.isfinite(value):
        raise FormatError(f"{key}: {literal!r} is not finite")
    return value


def _as_int(key: str, literal: str | None) -> int:
    if literal is None:
        raise FormatError(f"missing protocol field {key}=")
    try:
        return int(literal)
    except ValueError:
        raise FormatError(f"{key}: {literal!r} is not an integer") from None


def _parse_correlators(pairs: list[tuple[str, str]]) -> BipartiteBox:
    fields = _exact_keys(pairs, CORRELATOR_FIELDS)
    values = {key: _as_float(key, fields[key]) for key in CORRELATOR_FIELDS}
    try:
        form = CorrelatorForm(**values)
    except ValueError as bad:
        raise FormatError(str(bad)) from None
    return box_from_correlators(form)


def _parse_matrix(pairs: list[tuple[str, str]]) -> BipartiteBox:
    fields = _exact_keys(pairs, _ROW_KEYS)
    p = np.empty((4, 4))
    for row, key in enumerate(_ROW_KEYS):
        parts = [part.strip() for part in fields[key].split(",")]
        if len(parts) != 4:
            raise FormatError(
                f"{key}: expected 4 comma-separated probabilities, got {len(parts)}"
            )
        p[row] = [_as_float(key, part) for part in parts]
    return BipartiteBox(p)


def _parse_xor(pairs: list[tuple[str, str]]) -> MultipartiteXorBox:
    fields = _exact_keys(pairs, _XOR_KEYS)
    n = _as_int("n", fields["n"])
    bits = fields["f"]
    if not bits or set(bits) - {"0", "1"}:
        raise FormatError(f"f: truth table must be a 0/1 string, got {bits!r}")
    deltas = tuple(
        _as_float("delta", part.strip()) for part in fields["delta"].split(",")
    )
    try:
        game = XorGame(n, tuple(int(ch) for ch in bits))
        return MultipartiteXorBox(game, deltas)
    except ValueError as bad:
        raise FormatError(str(bad)) from None


def parse_box_text(text: str) -> BipartiteBox | MultipartiteXorBox:
    """Parse any of the three box file kinds; raises FormatError when malformed.

    Box constraints (validity, no-signalling) are NOT checked here; run
    validate_box on the result when validity matters.
    """
    pairs = _content_pairs(text)
    if not pairs:
        raise FormatError("empty box file")
    key, kind = pairs[0]
    if key != "kind":
        raise FormatError(f"first content line must be kind=..., got {key}=")
    body = pairs[1:]
    if kind == "correlators":
        return _parse_correlators(body)
    if kind == "matrix":
        return _parse_matrix(body)
    if kind == "xor":
        return _parse_xor(body)
    raise FormatError(
        f"unknown box kind {kind!r} (expected correlators, matrix, or xor)"
    )


def _fmt(value: float) -> str:
    value = float(value)
    if value == 0.0:  # normalize -0.0
        value = 0.0
    return f"{value:.12g}"


def format_box_matrix(box: BipartiteBox) -> str:
    lines = ["kind=matrix"]
    lines += [
        f"{key}=" + ",".join(_fmt(v) for v in row)
        for key, row in zip(_ROW_KEYS, box.p)
    ]
    return "\n".join(lines) + "\n"


def format_box_correlators(form: CorrelatorForm) -> str:
    lines = ["kind=correlators"]
    lines += [f"{key}={_fmt(value)}" for key, value in form.as_dict().items()]
    return "\n".join(lines) + "\n"


def format_xor_box(box: MultipartiteXorBox) -> str:
    lines = [
        "kind=xor",
        f"n={box.game.n}",
        "f=" + "".join(str(bit) for bit in box.game.f),
        "delta=" + ",".join(_fmt(d) for d in box.delta),
    ]
    return "\n".join(lines) + "\n"


def read_box_file(path) -> BipartiteBox | MultipartiteXorBox:
    """Read and parse a UTF-8 box file.

    OSError propagates; bytes that are not UTF-8 and parse errors are
    FormatError.
    """
    with open(path, "r", encoding="utf-8") as stream:
        try:
            text = stream.read()
        except UnicodeDecodeError as err:
            raise FormatError(f"not UTF-8 text: {err}") from err
    return parse_box_text(text)


def format_box(box) -> str:
    """Box file text, in the matrix, xor or correlators form by the type of box."""
    if isinstance(box, BipartiteBox):
        return format_box_matrix(box)
    if isinstance(box, MultipartiteXorBox):
        return format_xor_box(box)
    if isinstance(box, CorrelatorForm):
        return format_box_correlators(box)
    raise TypeError(f"cannot serialize {type(box).__name__} as a box file")


def write_box_file(path, box) -> None:
    """Write format_box(box) to path."""
    text = format_box(box)
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)


def _hex_width(bits: int) -> int:
    return (bits + 3) // 4


def _take_tables(fields: dict[str, str], expected_digits: int) -> int:
    value = fields.pop("tables", None)
    if value is None:
        raise FormatError("missing protocol field tables=")
    if len(value) != expected_digits or any(
        ch not in "0123456789abcdefABCDEF" for ch in value
    ):
        raise FormatError(
            f"tables={value!r} must be exactly {expected_digits} hex digits"
        )
    return int(value, 16)


def format_protocol(proto) -> str:
    """One-line canonical serialization of a protocol."""
    if isinstance(proto, NonAdaptiveProtocol):
        width = _hex_width(proto.encoding_bits)
        return (
            f"proto=nonadaptive;n={proto.n};m={proto.m};"
            f"tables={proto.encode():0{width}x}"
        )
    if isinstance(proto, AdaptiveTwoCopyProtocol):
        return f"proto=adaptive2;tables={proto.encode():06x}"
    raise TypeError(f"cannot serialize {type(proto).__name__} as a protocol")


def parse_protocol(text: str) -> NonAdaptiveProtocol | AdaptiveTwoCopyProtocol:
    """Parse a one-line protocol serialization; raises FormatError when malformed."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    if len(lines) != 1:
        raise FormatError(
            f"protocol serialization must be a single line, got {len(lines)}"
        )
    fields: dict[str, str] = {}
    for part in lines[0].split(";"):
        if "=" not in part:
            raise FormatError(f"protocol field {part!r} is not key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in fields:
            raise FormatError(f"duplicate protocol field {key!r}")
        fields[key] = value.strip()

    kind = fields.pop("proto", None)
    if kind == "nonadaptive":
        n = _as_int("n", fields.pop("n", None))
        m = _as_int("m", fields.pop("m", None))
        if n < 2 or m < 1 or m > 10 or n * 2 * (1 << m) > _MAX_PROTOCOL_BITS:
            raise FormatError(f"unsupported protocol shape n={n}, m={m}")
        # the digits cover the encoding exactly, so decoding cannot fail
        proto = NonAdaptiveProtocol.decode(n, m, _take_tables(fields, _hex_width(n * 2 * (1 << m))))
    elif kind == "adaptive2":
        proto = AdaptiveTwoCopyProtocol.decode(_take_tables(fields, 6))
    elif kind is None:
        raise FormatError("protocol serialization must start with proto=")
    else:
        raise FormatError(f"unknown protocol kind {kind!r} (expected nonadaptive or adaptive2)")
    if fields:
        raise FormatError(f"unexpected protocol fields: {', '.join(sorted(fields))}")
    return proto
