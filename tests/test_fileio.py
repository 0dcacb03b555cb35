"""Tests for the box file formats and protocol serialization."""

from __future__ import annotations

import random

import numpy as np
import pytest

from nlbd.boxes import (
    BipartiteBox,
    CorrelatorForm,
    box_from_correlators,
    make_named_box,
    validate_box,
)
from nlbd.errors import FormatError
from nlbd.fileio import (
    format_box_correlators,
    format_box_matrix,
    format_protocol,
    format_xor_box,
    parse_box_text,
    parse_protocol,
    read_box_file,
    write_box_file,
)
from nlbd.wirings import (
    AdaptiveTwoCopyProtocol,
    NonAdaptiveProtocol,
    bs_wiring,
    or_protocol,
    parity_protocol,
)
from nlbd.xorboxes import MultipartiteXorBox, XorGame


def random_valid_box(rng):
    while True:
        form = CorrelatorForm(
            alpha=rng.uniform(-0.3, 0.3),
            beta=rng.uniform(-0.3, 0.3),
            gamma=rng.uniform(-0.3, 0.3),
            omega=rng.uniform(-0.3, 0.3),
            d1=rng.uniform(-0.6, 0.6),
            d2=rng.uniform(-0.6, 0.6),
            d3=rng.uniform(-0.6, 0.6),
            eps=rng.uniform(-0.6, 0.6),
        )
        box = box_from_correlators(form)
        if validate_box(box).valid:
            return box


def test_correlators_roundtrip():
    form = make_named_box("correlated", alpha=0.5, eps=0.01)
    text = format_box_correlators(form)
    parsed = parse_box_text(text)
    assert isinstance(parsed, BipartiteBox)
    assert np.max(np.abs(parsed.p - box_from_correlators(form).p)) <= 1e-12


def test_matrix_roundtrip_random_boxes():
    rng = random.Random(11)
    for _ in range(25):
        box = random_valid_box(rng)
        parsed = parse_box_text(format_box_matrix(box))
        assert np.max(np.abs(parsed.p - box.p)) <= 1e-12


def test_negative_zero_prints_as_zero():
    box = BipartiteBox(np.array([[0.5, -0.0, -0.0, 0.5]] * 4))
    assert format_box_matrix(box).splitlines()[1] == "row00=0.5,0,0,0.5"
    xor_box = MultipartiteXorBox(XorGame.chsh(), (1.0, -0.0, 0.5, -0.5))
    assert format_xor_box(xor_box).endswith("delta=1,0,0.5,-0.5\n")


def test_comments_blanks_and_key_order_are_tolerated():
    text = """
# a correlated box
kind=correlators
eps=0.01        # out-of-order keys are fine
d1=1
d2=1
d3=1
alpha=0.5
beta=0.5

gamma=0.5
omega=0.5
"""
    parsed = parse_box_text(text)
    reference = box_from_correlators(make_named_box("correlated", alpha=0.5, eps=0.01))
    assert np.max(np.abs(parsed.p - reference.p)) <= 1e-12


def test_box_parse_errors():
    head = "kind=correlators\n"
    body = "\n".join(
        f"{key}=0.1"
        for key in ("alpha", "beta", "gamma", "omega", "d1", "d2", "d3", "eps")
    )
    for bad in (
        "",
        "# only a comment\n",
        "alpha=0.5\nkind=correlators\n",
        "kind=unknown\n",
        head + body.replace("eps=0.1", ""),  # missing key
        head + body + "\neps=0.2",  # duplicate key
        head + body + "\nextra=1",  # unknown key
        head + body.replace("d1=0.1", "d1=zero"),  # bad literal
        head + body.replace("d1=0.1", "d1=nan"),  # non-finite
        head + body.replace("alpha=0.1", "alpha=2"),  # out of range
        "kind=matrix\nrow00=1,0,0\nrow01=1,0,0,0\nrow10=1,0,0,0\nrow11=1,0,0,0\n",
        "kind=matrix\nrow00=1,0,0,0\n",  # missing rows
        "kind=correlators\njust a line\n",  # not key=value
    ):
        with pytest.raises(FormatError):
            parse_box_text(bad)


def test_xor_roundtrip_and_errors():
    box = MultipartiteXorBox(XorGame.chsh(), (0.9, 0.9, 0.9, -0.9))
    text = format_xor_box(box)
    assert text == "kind=xor\nn=2\nf=0001\ndelta=0.9,0.9,0.9,-0.9\n"
    parsed = parse_box_text(text)
    assert isinstance(parsed, MultipartiteXorBox)
    assert parsed == box

    three = MultipartiteXorBox(
        XorGame.from_predicate(3, lambda bits: (bits[0] & bits[1]) ^ bits[2]),
        tuple(((-1.0) ** k) * 0.125 * k for k in range(8)),
    )
    assert parse_box_text(format_xor_box(three)) == three

    for bad in (
        "kind=xor\nn=2\nf=001\ndelta=0.9,0.9,0.9,-0.9\n",  # f too short
        "kind=xor\nn=2\nf=0002\ndelta=0.9,0.9,0.9,-0.9\n",  # not bits
        "kind=xor\nn=2\nf=0001\ndelta=0.9,0.9,0.9\n",  # delta count
        "kind=xor\nn=2\nf=0001\ndelta=0.9,0.9,0.9,-1.5\n",  # delta range
        "kind=xor\nn=two\nf=0001\ndelta=0.9,0.9,0.9,-0.9\n",  # n not integer
        "kind=xor\nn=2\nf=0001\n",  # missing delta
    ):
        with pytest.raises(FormatError):
            parse_box_text(bad)


def test_file_read_write(tmp_path):
    rng = random.Random(12)
    box = random_valid_box(rng)
    path = tmp_path / "box.txt"
    write_box_file(path, box)
    again = read_box_file(path)
    assert np.max(np.abs(again.p - box.p)) <= 1e-12

    xpath = tmp_path / "xor.txt"
    xbox = MultipartiteXorBox(XorGame.chsh(), (0.5, 0.5, 0.5, -0.25))
    write_box_file(xpath, xbox)
    assert read_box_file(xpath) == xbox

    cpath = tmp_path / "corr.txt"
    write_box_file(cpath, make_named_box("isotropic", delta=0.8))
    iso = read_box_file(cpath)
    assert np.max(np.abs(iso.p - box_from_correlators(make_named_box("isotropic", delta=0.8)).p)) <= 1e-12

    with pytest.raises(OSError):
        read_box_file(tmp_path / "does-not-exist.txt")
    with pytest.raises(TypeError):
        write_box_file(tmp_path / "bad.txt", "not a box")


def test_box_file_that_is_not_utf8_is_format_error(tmp_path):
    path = tmp_path / "bad.box"
    path.write_bytes(b"kind=correlators\nalpha=0.5\xff\n")
    with pytest.raises(FormatError, match="UTF-8"):
        read_box_file(path)


def test_protocol_serialization_canonical_strings():
    assert format_protocol(parity_protocol(2, 2)) == "proto=nonadaptive;n=2;m=2;tables=6666"
    assert format_protocol(or_protocol()) == "proto=nonadaptive;n=2;m=2;tables=eeee"
    assert format_protocol(parity_protocol(2, 1)) == "proto=nonadaptive;n=2;m=1;tables=aa"
    assert format_protocol(bs_wiring()) == "proto=adaptive2;tables=668668"


def test_protocol_roundtrip():
    rng = random.Random(13)
    for n, m in ((2, 1), (2, 2), (2, 3), (3, 2)):
        for _ in range(5):
            packed = rng.getrandbits(n * 2 * (1 << m))
            proto = NonAdaptiveProtocol.decode(n, m, packed)
            assert parse_protocol(format_protocol(proto)) == proto
    for _ in range(5):
        proto = AdaptiveTwoCopyProtocol.decode(rng.getrandbits(24))
        assert parse_protocol(format_protocol(proto)) == proto
    # upper case hex and surrounding noise are accepted
    assert parse_protocol("  proto=adaptive2;tables=668668  \n") == bs_wiring()
    assert parse_protocol("proto=adaptive2;tables=668A68") == AdaptiveTwoCopyProtocol.decode(0x668A68)


def test_protocol_parse_errors():
    for bad in (
        "",
        "proto=nonadaptive;n=2;m=2",  # missing tables
        "proto=nonadaptive;n=2;m=2;tables=666",  # wrong width
        "proto=nonadaptive;n=2;m=2;tables=66666",  # wrong width
        "proto=nonadaptive;n=2;m=2;tables=66g6",  # not hex
        "proto=nonadaptive;m=2;tables=6666",  # missing n
        "proto=nonadaptive;n=x;m=2;tables=6666",  # n not integer
        "proto=nonadaptive;n=1;m=2;tables=66",  # unsupported shape
        "proto=nonadaptive;n=2;m=0;tables=6",  # unsupported shape
        "proto=nonadaptive;n=2;m=2;tables=6666;extra=1",  # stray field
        "proto=nonadaptive;n=2;m=2;n=2;tables=6666",  # duplicate field
        "proto=adaptive2;tables=6666",  # wrong width for adaptive2
        "proto=mystery;tables=6666",
        "n=2;m=2;tables=6666",  # missing proto=
        "proto=adaptive2;tables=668668\nproto=adaptive2;tables=668668",
        "proto=nonadaptive;n=2;m=200;tables=66",  # absurd shape
    ):
        with pytest.raises(FormatError):
            parse_protocol(bad)


def test_twelve_digit_precision_survives_roundtrip():
    # Entries with no short decimal representation still round-trip to 1e-12.
    p = np.full((4, 4), 1.0 / 16.0)
    p[0] = (1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0)
    p[3] = (0.1234567890123, 0.2, 0.3, 1.0 - 0.1234567890123 - 0.5)
    box = BipartiteBox(p)
    parsed = parse_box_text(format_box_matrix(box))
    assert np.max(np.abs(parsed.p - box.p)) <= 1e-12
