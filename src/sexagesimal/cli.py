"""Command-line front end.

Exit codes: 0 success, 1 domain error (irregular number, no finite
solution, failed verification), 2 usage or notation error, 3 I/O error.
Commands that report a single value print it bare on the first line and
repeat it on a stable ``#RESULT`` line for scripting; table commands
print the raw TSV and nothing else.  ``verify`` takes its modes, its
summary lines and its ``#RESULT`` fields from ``tables.MODES`` and
``tables.RELATIONS``; range checks on table sizes and on zero are left
to the library, whose errors ``main`` maps to exit codes.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from typing import Iterable, Sequence

from . import tables, translit
from .core import SexNumber, _remove_factor, multiply
from .regular import IrregularError, NoFiniteSolutionError, invert, solve_linear

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _factored(n: int) -> str:
    """Trial-division factorization for diagnostics, e.g. 817 -> '19*43'.

    Falls back to the bare number when it is too large to factor fast.
    """
    if n >= 10**12:
        return str(n)
    parts: list[int] = []
    m = n
    p = 2
    while p * p <= m:
        m, k = _remove_factor(m, p)
        parts += [p] * k
        p += 1 if p == 2 else 2
    if m > 1:
        parts.append(m)
    return "*".join(str(q) for q in parts)


def _residue_detail(residue: int) -> str:
    factored = _factored(residue)
    if factored == str(residue):
        return f"residue {residue}"
    return f"residue {residue} = {factored}"


def _read_absolute(text: str) -> SexNumber:
    return translit.to_number(translit.parse(text), "absolute")


def _cmd_parse(args: argparse.Namespace) -> int:
    numeral = translit.parse(args.text)
    if args.floating:
        mode = "floating"
    elif args.absolute or numeral.semicolon_index is not None:
        mode = "absolute"
    else:
        return _fail(
            EXIT_USAGE,
            f"{args.text!r} has no semicolon and is ambiguous:"
            " pass --absolute or --floating",
        )
    value = translit.to_number(numeral, mode)
    text, mantissa = translit.format(value), str(value.mantissa)  # each converted once
    print(f"canonical: {text}")
    print(f"mantissa: {mantissa}")
    if mode == "absolute":
        print(f"exponent: {value.exponent}")
        print(f"#RESULT canonical={text} mantissa={mantissa} exponent={value.exponent}")
    else:
        print(f"#RESULT canonical={text} mantissa={mantissa}")
    return EXIT_OK


def _cmd_recip(args: argparse.Namespace) -> int:
    value = _read_absolute(args.text)
    try:
        anchored = invert(value)
    except IrregularError as exc:
        return _fail(
            EXIT_DOMAIN,
            f"{translit.format(value)} is irregular, its reciprocal does not"
            f" exist as a finite digit string ({_residue_detail(exc.residue)})",
        )
    floating = anchored.to_floating()
    floating_text = translit.format(floating)
    anchored_text = translit.format(anchored)
    print(f"floating: {floating_text}")
    print(f"anchored: {anchored_text}")
    print(f"#RESULT floating={floating_text} anchored={anchored_text}")
    return EXIT_OK


def _cmd_mul(args: argparse.Namespace) -> int:
    product = multiply(_read_absolute(args.multiplicand), _read_absolute(args.multiplier))
    text = translit.format(product)
    print(text)
    print(f"#RESULT product={text} mantissa={product.mantissa} exponent={product.exponent}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    a = _read_absolute(args.a)
    b = _read_absolute(args.b)
    try:
        x = solve_linear(a, b)
    except NoFiniteSolutionError as exc:
        return _fail(
            EXIT_DOMAIN,
            f"no finite solution: x would need the irregular denominator"
            f" {exc.denominator} ({_residue_detail(exc.residue)})",
        )
    text = translit.format(x)
    print(text)
    print(f"#RESULT x={text} mantissa={x.mantissa} exponent={x.exponent}")
    return EXIT_OK


def _emit(path: str | None, lines: Iterable[str]) -> int:
    if path is None or path == "-":
        _write(sys.stdout, lines)
    elif os.path.exists(path) and not os.path.isfile(path):
        # A directory, device or pipe: there is no file to swap, so open it as named.
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            _write(handle, lines)
    else:
        _replace(path, lines)
    return EXIT_OK


def _write(handle, lines: Iterable[str]) -> None:
    """Write line by line, so memory holds one line, however long the table."""
    for line in lines:
        handle.write(line)


def _replace(path: str, lines: Iterable[str]) -> None:
    """Write the lines to a temporary file beside path, then rename it over path.

    An interrupted write leaves the old file or none, never half a
    table.  A symlink is followed, an existing file keeps its mode and
    a new one gets the mode open() would give it.  Errors name path,
    not the temporary file.
    """
    import tempfile  # only -o needs it; at the top every command would pay its import

    target = os.path.realpath(path)
    temporary = None
    try:
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # reading the umask means setting it: put it straight back
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, temporary = tempfile.mkstemp(
            prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target)
        )
        # 64 KiB a write, as parse_tsv reads: a 7.9 MB table goes out in about 120 writes.
        with open(fd, "w", encoding="utf-8", newline="\n", buffering=1 << 16) as handle:
            _write(handle, lines)
        os.chmod(temporary, mode)
        os.replace(temporary, target)
    except BaseException as exc:
        if temporary is not None:
            os.unlink(temporary)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _cmd_table_double(args: argparse.Namespace) -> int:
    seed = translit.to_number(translit.parse(args.seed), "floating")
    return _emit(args.output, tables.doubling_tsv(seed, args.rows, args.anchor))


def _cmd_table_standard(args: argparse.Namespace) -> int:
    return _emit(args.output, tables.table_tsv(tables._standard_rows(args.limit)))


def _cmd_verify(args: argparse.Namespace) -> int:
    # parse_tsv reads 64 KiB at a time and names a fault's line; a bad byte's column too.
    with open(args.file, "rb") as handle:
        report = tables.verify_table(tables.parse_tsv(handle), args.mode)
    # Printed only now: a structural fault anywhere exits 2 before any output.
    for finding in report.findings:
        print(f"row {finding.row_index}: {finding.kind}: {finding.message}")
    counts = report.counts
    for name, ok_kind, bad_kind in tables.MODES[args.mode]:
        print(f"{name}: {counts[ok_kind]} ok, {counts[bad_kind]} bad")
    parse_errors = counts[tables.PARSE_ERROR]
    if parse_errors:
        print(f"parse errors: {parse_errors}")
    # Every relation's counts, whatever the mode, each field named after its kind.
    fields = "".join(
        f" {kind.lower()}={counts[kind]}" for _, *kinds in tables.RELATIONS for kind in kinds
    )
    print(f"#RESULT ok={'true' if report.ok else 'false'}{fields} parse_errors={parse_errors}")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sexagesimal",
        description="Exact Babylonian base-60 arithmetic and reciprocal tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("parse", help="report a numeral's canonical form")
    p.add_argument("text", help="numeral such as 10,12;45")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--absolute", action="store_true", help="read digits with their place value")
    mode.add_argument("--floating", action="store_true", help="read digits with no place value")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("recip", help="finite reciprocal of a regular number")
    p.add_argument("text", help="the number to invert, read as absolute")
    p.set_defaults(handler=_cmd_recip)

    p = sub.add_parser("mul", help="multiply two numbers (multiplicand first)")
    p.add_argument("multiplicand")
    p.add_argument("multiplier")
    p.set_defaults(handler=_cmd_mul)

    p = sub.add_parser("solve", help="find x with x * A = B")
    p.add_argument("a", metavar="A", help="the divisor")
    p.add_argument("b", metavar="B", help="the product to reach")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("table", help="generate reciprocal tables as TSV")
    kind = p.add_subparsers(dest="kind", required=True, metavar="kind")
    d = kind.add_parser("double", help="successive doubling/halving table")
    d.add_argument("--seed", required=True, help="starting value, floating digits")
    d.add_argument("--rows", required=True, type=int, help="number of rows")
    d.add_argument(
        "--anchor", type=int, default=0,
        help="power of 60 giving the seed its place value (default 0)",
    )
    d.add_argument("-o", "--output", help="write to this file instead of stdout")
    d.set_defaults(handler=_cmd_table_double)
    s = kind.add_parser("standard", help="reciprocals of all regular numbers up to a limit")
    s.add_argument("--limit", required=True, type=int)
    s.add_argument("-o", "--output", help="write to this file instead of stdout")
    s.set_defaults(handler=_cmd_table_standard)

    p = sub.add_parser("verify", help="check a table file; exit 0 only if clean")
    p.add_argument("file")
    p.add_argument(
        "--mode", choices=tables.MODES, default="pairs",
        help="relation families to check (default pairs)",
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on --help (0) and usage errors (2).
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # Numerals, mantissas and table indices may pass the interpreter's int/str
    # limit of 4,300 digits: lift it while the command runs, where there is one.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except translit.ParseError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except (IrregularError, NoFiniteSolutionError, ZeroDivisionError) as exc:
        return _fail(EXIT_DOMAIN, str(exc))
    except (ValueError, OverflowError) as exc:  # OverflowError: e.g. an --anchor past an index
        return _fail(EXIT_USAGE, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
