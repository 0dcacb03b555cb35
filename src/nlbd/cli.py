"""Command-line front end for box files, distillation, search, and scans.

Verbs: validate, value, distill, search, scan, tables, equiv. All numeric
output is printed to 12 significant digits and is deterministic for a given
argument vector. Every computation runs on one thread; search and scan still
accept --threads N (at least 1), which has no effect, so existing command
lines keep working. Exit codes: 0 success (validate: box
valid), 1 invalid box or a computation that reports failure, 2 usage errors,
3 file errors, 4 exceeded enumeration budgets. Error messages go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Sequence

from .boxes import INPUT_ORDER, box_from_correlators, chsh_value_of_box, require_valid, validate_box
from .equivalence import build_equivalent_boxes
from .errors import BudgetExceeded, FormatError, InvalidConstructedBox, NlbdError
from .fileio import (
    _fmt,
    format_box,
    format_protocol,
    parse_protocol,
    read_box_file,
    write_box_file,
)
from .search import (
    adaptive_search_max,
    enumerate_nonadaptive_max,
    format_table_report,
    region_scan,
    reproduce_tables,
)
from .wirings import (
    AdaptiveTwoCopyProtocol,
    NonAdaptiveProtocol,
    apply_adaptive,
    apply_nonadaptive,
    bs_wiring,
    or_protocol,
    parity_protocol,
)
from .xorboxes import MultipartiteXorBox, xor_value

_THREADS_HELP = "accepted for compatibility, no effect; must be >= 1"
_AXIS_OPTIONS = ("--alpha", "--beta", "--delta", "--eps")
_NUMBER_STARTS = frozenset("0123456789.")


# Exit code of every error main reports, first matching class wins. Usage errors are
# ValueErrors; a file that cannot be opened, read, parsed or written is an OSError.
_EXIT_CODES = ((BudgetExceeded, 4), (OSError, 3), (ValueError, 2), (NlbdError, 1))


def _load_box(path: str):
    try:
        return read_box_file(path)
    except (OSError, FormatError) as err:
        raise OSError(f"{path}: {getattr(err, 'strerror', None) or err}") from err


def _check_threads(option: int | None) -> None:
    """Reject a --threads value below 1; the count has no effect (README says why)."""
    if option is not None and option < 1:
        raise ValueError(f"--threads must be >= 1, got {option}")


def _parse_axis(option: str, text: str):
    """Parse VALUE or START:STOP:STEP into a scalar or a 3-tuple."""
    parts = text.split(":")
    values: list[float] | None = None
    if len(parts) in (1, 3):
        try:
            values = [float(p) for p in parts]
        except ValueError:
            values = None
    if values is None or not all(math.isfinite(v) for v in values):
        raise ValueError(f"{option} expects VALUE or START:STOP:STEP, got {text!r}")
    return values[0] if len(values) == 1 else tuple(values)


def _is_axis_option(token) -> bool:
    """True for --alpha, --beta, --delta, --eps and the abbreviations argparse accepts."""
    return (
        isinstance(token, str)
        and len(token) > 2
        and any(option.startswith(token) for option in _AXIS_OPTIONS)
    )


def _fuse_negative_values(argv: Sequence) -> list:
    """Rewrite `--eps -1:1:0.5` as `--eps=-1:1:0.5`, for every axis option.

    argparse reads a token that starts with "-" as an option unless it is a
    plain negative number, so a negative range given as its own token would
    be rejected.
    """
    out: list = []
    for token in argv:
        if (
            out
            and _is_axis_option(out[-1])
            and isinstance(token, str)
            and token[:1] == "-"
            and token[1:2] in _NUMBER_STARTS
        ):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _emit_box(box, out: str | None, head: str) -> None:
    """Print head, then the box text or, once out is written, where it went.

    out is written before anything is printed, so a failed write prints
    nothing.
    """
    if out is not None:
        try:
            write_box_file(out, box)
        except OSError as err:
            raise OSError(f"{out}: {err.strerror or err}") from err
    print(head)
    if out is None:
        sys.stdout.write(format_box(box))
    else:
        print(f"wrote {out}")


def _cmd_validate(args: argparse.Namespace) -> int:
    box = _load_box(args.boxfile)
    if isinstance(box, MultipartiteXorBox):
        # The parser only constructs these with biases in [-1, 1], which is
        # the whole constraint set for this representation.
        print(f"valid xor box: n={box.game.n}, value {_fmt(xor_value(box))}")
        return 0
    report = validate_box(box)
    if report.valid:
        print(f"valid box: CHSH value {_fmt(chsh_value_of_box(box))}")
        return 0
    print("invalid box:")
    for name, magnitude in report.violations:
        if name == "negativity":
            print(f"  negativity: worst entry {_fmt(float(box.p.min()))}")
        else:
            print(f"  {name}: worst deviation {_fmt(magnitude)}")
    return 1


def _cmd_value(args: argparse.Namespace) -> int:
    box = _load_box(args.boxfile)
    if isinstance(box, MultipartiteXorBox):
        print(_fmt(xor_value(box)))
    else:
        print(_fmt(chsh_value_of_box(box)))
    return 0


def _apply_bipartite_protocol(spec: str, boxes: list, m: int):
    if spec == "parity":
        return apply_nonadaptive(boxes, parity_protocol(2, m))
    if spec == "or":
        if m != 2:
            raise ValueError(f"the OR protocol takes --copies 2, got {m}")
        return apply_nonadaptive(boxes, or_protocol())
    if spec.startswith("adaptive:"):
        if m != 2:
            raise ValueError(f"adaptive protocols take --copies 2, got {m}")
        digits = spec[len("adaptive:") :]
        try:
            proto = parse_protocol(f"proto=adaptive2;tables={digits}")
        except FormatError as err:
            raise ValueError(f"bad adaptive protocol {digits!r}: {err}") from err
        return apply_adaptive(boxes[0], boxes[1], proto)
    raise ValueError(f"unknown protocol {spec!r}: expected parity, or, adaptive:<hex>")


def _cmd_distill(args: argparse.Namespace) -> int:
    if args.copies < 1:
        raise ValueError(f"--copies must be >= 1, got {args.copies}")
    boxes = [_load_box(p) for p in args.boxfile]
    xor_like = [isinstance(b, MultipartiteXorBox) for b in boxes]
    if any(xor_like):
        if not all(xor_like) or len(boxes) != 1:
            raise ValueError("xor distillation takes exactly one xor box file")
        if args.protocol != "parity":
            raise ValueError("only the parity protocol applies to xor box files")
        box = boxes[0]
        distilled = MultipartiteXorBox(box.game, tuple(d**args.copies for d in box.delta))
        value = xor_value(distilled)
    else:
        if args.copies > 10:
            raise BudgetExceeded(
                f"--copies {args.copies} exceeds the exact enumeration budget (max 10)"
            )
        if len(boxes) == 1:
            boxes = boxes * args.copies
        elif len(boxes) != args.copies:
            raise ValueError(
                f"--copies {args.copies} needs 1 or {args.copies} box files, got {len(boxes)}"
            )
        distilled = _apply_bipartite_protocol(args.protocol, boxes, args.copies)
        value = chsh_value_of_box(distilled)
    _emit_box(distilled, args.out, _fmt(value))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    box = _load_box(args.boxfile)
    _check_threads(args.threads)
    if args.search_class == "adaptive":
        if args.m not in (None, 2):
            raise ValueError("adaptive search is over two copies; omit --m or pass --m 2")
        if args.input_dependent:
            raise ValueError("adaptive search takes no --input-dependent")
        if isinstance(box, MultipartiteXorBox):
            raise ValueError("adaptive search takes a bipartite box file")
        result = adaptive_search_max(box)
        proto_line = format_protocol(AdaptiveTwoCopyProtocol.decode(result.best_protocol))
    else:
        if args.m is None:
            raise ValueError("nonadaptive search needs --m")
        result = enumerate_nonadaptive_max(box, args.m, input_dependent=args.input_dependent)
        proto_line = format_protocol(
            NonAdaptiveProtocol.decode(result.n, result.m, result.best_protocol)
        )
    print(f"class={result.class_name}")
    print(f"n={result.n}")
    print(f"m={result.m}")
    print(f"protocols_examined={result.protocols_examined}")
    print(f"best_value={_fmt(result.best_value)}")
    print(f"best_protocol={proto_line}")
    if args.exact:
        print(f"best_exact={result.best_exact}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    grid = {
        "alpha": _parse_axis("--alpha", args.alpha),
        "eps": _parse_axis("--eps", args.eps),
        "beta": _parse_axis("--beta", args.beta) if args.beta is not None else None,
        "delta": _parse_axis("--delta", args.delta) if args.delta is not None else 1.0,
    }
    protocols = tuple(label for label in args.protocols.split(",") if label)
    _check_threads(args.threads)
    result = region_scan(grid, protocols=protocols)
    if args.out == "-":
        result.write_csv(sys.stdout)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as stream:
                result.write_csv(stream)
        except OSError as err:
            raise OSError(f"{args.out}: {err.strerror or err}") from err
        print(f"wrote {len(result)} rows to {args.out}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    report = reproduce_tables(args.which, audit_adaptive=args.audit)
    print(format_table_report(report))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    if not math.isfinite(args.delta):
        raise ValueError(f"--delta must be a finite number, got {args.delta}")
    if args.proto is None:
        proto = bs_wiring()
    else:
        proto = parse_protocol(f"proto=adaptive2;tables={args.proto}")
    result = build_equivalent_boxes(proto)
    # every line is built before any is printed, so a failure prints nothing
    lines = [format_protocol(proto)]
    # input xy's target is its correlator polynomial (field d1, d2, d3 or eps),
    # and its factors are the two boxes' correlator entries on xy
    box1, box2 = result.boxes
    rows = zip(INPUT_ORDER, result.targets[4:], box1.correlator, box2.correlator)
    for label, target, *pair in rows:
        coeffs = ",".join(_fmt(c) for c in target.coeffs)
        factors = ";".join(f"{_fmt(f.c1)},{_fmt(f.c0)}" for f in pair)
        lines += [f"target{label}={coeffs}", f"factors{label}={factors}"]
    for label, built in zip(("box1", "box2"), result.boxes):
        form = built.correlator_form(args.delta)
        # the construction checks its boxes only at delta = 0, 0.1, ..., 1
        message = f"constructed box invalid at delta={args.delta:g}"
        require_valid(box_from_correlators(form), message, InvalidConstructedBox)
        fields = " ".join(f"{name}={_fmt(value)}" for name, value in form.as_dict().items())
        lines.append(f"{label}: {fields}")
    lines.append(f"certificate_max_deviation={_fmt(result.certificate.max_deviation)}")
    lines.append(f"certificate_p00_deviation={_fmt(result.certificate.p00_deviation)}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlbd",
        description="Validate, evaluate, distill, and search nonlocal boxes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("validate", help="check a box file against the box constraints")
    p.add_argument("boxfile")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("value", help="print the CHSH or XOR-game value of a box file")
    p.add_argument("boxfile")
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("distill", help="apply a distillation protocol, print the value")
    p.add_argument("--protocol", required=True, help="parity, or, or adaptive:<hex>")
    p.add_argument("--copies", type=int, required=True, metavar="M")
    p.add_argument("--out", help="write the distilled box here (default: stdout)")
    p.add_argument("boxfile", nargs="+", help="one file (copied M times) or M files")
    p.set_defaults(handler=_cmd_distill)

    p = sub.add_parser("search", help="exact maximum of a protocol class on a box")
    p.add_argument(
        "--class",
        dest="search_class",
        required=True,
        choices=("nonadaptive", "adaptive"),
    )
    p.add_argument("--m", type=int, help="number of copies (nonadaptive classes)")
    p.add_argument(
        "--input-dependent",
        action="store_true",
        help="let each player's table depend on their input",
    )
    p.add_argument("--exact", action="store_true", help="also print the exact maximum")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("boxfile")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("scan", help="sweep the symmetric box family, write a CSV")
    p.add_argument("--alpha", required=True, metavar="A[:B:STEP]")
    p.add_argument("--eps", required=True, metavar="A[:B:STEP]")
    p.add_argument("--beta", metavar="A[:B:STEP]", help="default: track alpha")
    p.add_argument("--delta", metavar="A[:B:STEP]", help="default: 1")
    p.add_argument(
        "--protocols",
        default="PARITY,OR",
        metavar="LABELS",
        help="comma-separated: PARITY (6666), OR (eeee), A (adaptive 668669); default PARITY,OR",
    )
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("--out", required=True, help="CSV path, or - for stdout")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("tables", help="reference tables: printed vs recomputed values")
    p.add_argument("--which", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--audit", action="store_true", help="also run the adaptive search per row")
    p.set_defaults(handler=_cmd_tables)

    p = sub.add_parser("equiv", help="rewrite an adaptive wiring as parity over two boxes")
    p.add_argument("--delta", type=float, required=True, help="print the boxes at this bias")
    p.add_argument(
        "--proto",
        metavar="HEX",
        help="six-digit wiring encoding (default: the isotropic-distilling wiring)",
    )
    p.set_defaults(handler=_cmd_equiv)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: building it costs milliseconds, parsing microseconds."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_fuse_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as err:
        print(f"nlbd: {err}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())
