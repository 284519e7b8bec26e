"""Black-box checks of the command-line surface and its exit codes."""

import builtins
import errno
import os
import re
import signal
import subprocess
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path

import pytest

from sexagesimal import cli as cli_module

SRC = str(Path(__file__).parent.parent / "src")


def str_golden_path() -> str:
    return str(Path(__file__).parent / "data" / "doubling_seed10_rows30.tsv")


class TestParseCommand:
    def test_absolute_by_semicolon(self, cli):
        code, out, _ = cli("parse", "10,12;45")
        assert code == 0
        assert "canonical: 10,12;45" in out
        assert "#RESULT canonical=10,12;45 mantissa=36765 exponent=-1" in out

    def test_floating_flag(self, cli):
        code, out, _ = cli("parse", "21,20", "--floating")
        assert code == 0
        assert "#RESULT canonical=21,20 mantissa=1280" in out

    def test_absolute_flag(self, cli):
        code, out, _ = cli("parse", "40,51", "--absolute")
        assert code == 0
        assert "#RESULT canonical=40,51 mantissa=2451 exponent=0" in out

    def test_ambiguous_without_flag(self, cli):
        code, _, err = cli("parse", "40,51")
        assert code == 2
        assert "ambiguous" in err

    def test_flags_are_mutually_exclusive(self, cli):
        code, _, _ = cli("parse", "40,51", "--absolute", "--floating")
        assert code == 2

    def test_bad_notation(self, cli):
        code, _, err = cli("parse", "40,,51", "--absolute")
        assert code == 2
        assert "error:" in err

    def test_digit_out_of_range(self, cli):
        code, _, err = cli("parse", "1,99", "--absolute")
        assert code == 2
        assert "99" in err

    def test_long_digit_named_by_its_figures(self, cli):
        # The message gives the token's length, not its 5,000 figures.
        assert cli("parse", "7" * 5000) == (
            2, "", "error: digit of 5000 figures is out of range 0..59 (column 1)\n"
        )

    def test_long_zero_padded_digit_named_by_its_figures(self, cli):
        assert cli("parse", "0" + "7" * 5000) == (
            2, "", "error: zero-padded digit of 5001 figures (column 1)\n"
        )
        assert cli("parse", "07") == (2, "", "error: zero-padded digit '07' (column 1)\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (" ; 4 , 75", "digit 75 is out of range 0..59 (column 8)"),
            (" ", "empty numeral (column 2)"),
            ("  ", "empty numeral (column 3)"),
            (" ;", "expected a digit (column 3)"),
            (" , ".join(["1"] * 1000) + " ; 7 ; 8", "more than one semicolon (column 4003)"),
        ],
        ids=["headless-75", "one-blank", "two-blanks", "headless-empty", "second-semicolon"],
    )
    def test_blank_and_headless_faults_are_named(self, cli, text, message):
        assert cli("parse", text) == (2, "", f"error: {message}\n")

    def test_floating_zero(self, cli):
        code, _, err = cli("parse", "0", "--floating")
        assert code == 2
        assert "floating" in err


class TestRecipCommand:
    def test_regular(self, cli):
        code, out, _ = cli("recip", "10")
        assert code == 0
        assert "floating: 6" in out
        assert "anchored: 0;6" in out
        assert "#RESULT floating=6 anchored=0;6" in out

    def test_fractional_input(self, cli):
        code, out, _ = cli("recip", "0;15")
        assert code == 0
        assert "anchored: 4" in out

    def test_irregular_reports_factored_residue(self, cli):
        code, out, err = cli("recip", "40,51")
        assert code == 1
        assert "#RESULT" not in out
        assert "residue 817 = 19*43" in err

    def test_zero(self, cli):
        code, _, err = cli("recip", "0")
        assert code == 1
        assert "zero" in err

    def test_zero_is_the_library_error(self, cli):
        assert cli("recip", "0") == (1, "", "error: zero has no reciprocal\n")


class TestMulCommand:
    def test_multiplicand_first(self, cli):
        code, out, _ = cli("mul", "0;15", "40,51")
        assert code == 0
        assert out.splitlines()[0] == "10,12;45"
        assert "#RESULT product=10,12;45 mantissa=36765 exponent=-1" in out

    def test_notation_error(self, cli):
        code, _, err = cli("mul", "0;15", "40;51;2")
        assert code == 2
        assert "error:" in err


class TestSolveCommand:
    def test_known_division(self, cli):
        code, out, _ = cli("solve", "40,51", "10,12;45")
        assert code == 0
        assert out.splitlines()[0] == "0;15"

    def test_no_finite_solution(self, cli):
        code, _, err = cli("solve", "40,51", "1")
        assert code == 1
        assert "817" in err

    def test_zero_divisor(self, cli):
        code, _, err = cli("solve", "0", "5")
        assert code == 1


class TestTableCommands:
    def test_doubling_matches_golden(self, cli, golden_text):
        code, out, _ = cli("table", "double", "--seed", "10", "--rows", "30")
        assert code == 0
        assert out == golden_text

    def test_output_file(self, cli, tmp_path, golden_text):
        target = tmp_path / "table.tsv"
        code, out, _ = cli(
            "table", "double", "--seed", "10", "--rows", "30", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_bytes() == golden_text.encode()
        # 144 KB, so the 64 KiB file buffer fills and is written more than twice.
        command = ("table", "double", "--seed", "10", "--rows", "400")
        code, out, _ = cli(*command)
        assert code == 0 and len(out) > 2 << 16
        assert cli(*command, "-o", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_output_to_a_named_pipe(self, cli, tmp_path, golden_text):
        # A pipe is no file to swap: it is opened as named and written in place.
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            result = cli("table", "double", "--seed", "10", "--rows", "30", "-o", str(fifo))
        finally:
            reader.join(timeout=30)
            if reader.is_alive():  # the table never opened the pipe: let the reader's open return
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(timeout=30)
        assert result == (0, "", "")
        assert received == [golden_text.encode()]
        assert [p.name for p in tmp_path.iterdir()] == ["table.fifo"]  # no temporary file

    def test_deterministic(self, cli):
        first = cli("table", "standard", "--limit", "300")
        second = cli("table", "standard", "--limit", "300")
        assert first == second

    def test_standard_small(self, cli):
        code, out, _ = cli("table", "standard", "--limit", "8")
        assert code == 0
        assert out == "1\t2\t30\n2\t3\t20\n3\t4\t15\n4\t5\t12\n5\t6\t10\n6\t8\t7,30\n"

    def test_anchor_flag(self, cli):
        code, out, _ = cli("table", "double", "--seed", "10", "--rows", "1", "--anchor", "1")
        assert code == 0
        assert out == "1\t10\t0;0,6\n"

    @pytest.mark.parametrize("anchor", ["99999999999999999999", "-99999999999999999999"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_anchor_past_an_index_is_a_usage_error(self, cli, tmp_path, anchor, to_file):
        # Too many places to repeat a ',0' or a '0,' for: one error line, no table.
        output = ["-o", str(tmp_path / "table.tsv")] if to_file else []
        code, out, err = cli(
            "table", "double", "--seed", "10", "--rows", "2", f"--anchor={anchor}", *output
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_irregular_seed(self, cli):
        code, _, err = cli("table", "double", "--seed", "7", "--rows", "3")
        assert code == 1
        assert "irregular" in err

    def test_rows_must_be_positive(self, cli):
        code, _, _ = cli("table", "double", "--seed", "10", "--rows", "0")
        assert code == 2

    def test_limit_must_be_at_least_two(self, cli):
        code, _, _ = cli("table", "standard", "--limit", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("double", "--seed", "10", "--rows", "0"), "count must be at least 1, got 0"),
            (("standard", "--limit", "1"), "limit must be at least 2, got 1"),
        ],
        ids=["rows", "limit"],
    )
    @pytest.mark.parametrize("to_file", [False, True])
    def test_size_out_of_range_is_the_library_error(self, cli, tmp_path, argv, message, to_file):
        # One error line from the library, not a usage message; the limit is checked
        # only when the first row is asked for, inside the -o write, which must clean up.
        target = tmp_path / "table.tsv"
        target.write_bytes(b"old\n")
        output = ["-o", str(target)] if to_file else []
        assert cli("table", *argv, *output) == (2, "", f"error: {message}\n")
        assert target.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [target]  # no temporary file left

    def test_unwritable_output(self, cli):
        code, _, err = cli(
            "table", "standard", "--limit", "8", "-o", "/nonexistent-dir/out.tsv"
        )
        assert code == 3
        assert err == "error: [Errno 2] No such file or directory: '/nonexistent-dir/out.tsv'\n"

    def test_irregular_seed_is_reported_before_the_output_is_opened(self, cli):
        code, out, err = cli(
            "table", "double", "--seed", "7", "--rows", "5", "-o", "/nonexistent-dir/x.tsv"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: 7 is irregular: no finite reciprocal exists (residue 7 is coprime to 60)\n"
        )

    @staticmethod
    def break_writes_after_half(monkeypatch, error):
        """Make every write through cli's open put down half its text, then raise error."""

        class HalfWriter:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise error

        def half_open(*args, **kwargs):
            return HalfWriter(builtins.open(*args, **kwargs))

        monkeypatch.setattr(cli_module, "open", half_open, raising=False)

    def test_failed_write_leaves_no_file(self, cli, tmp_path, monkeypatch):
        self.break_writes_after_half(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
        target = tmp_path / "table.tsv"
        code, out, err = cli("table", "double", "--seed", "10", "--rows", "30", "-o", str(target))
        assert (code, out) == (3, "")
        assert err == "error: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []  # neither the table nor a temporary file

    def test_interrupted_write_keeps_the_old_table(self, cli, tmp_path, monkeypatch):
        target = tmp_path / "table.tsv"
        target.write_text("old\n")
        self.break_writes_after_half(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            cli("table", "double", "--seed", "10", "--rows", "30", "-o", str(target))
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"

    def test_output_replaces_a_file_and_keeps_its_mode(self, cli, tmp_path, golden_text):
        target = tmp_path / "table.tsv"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.tsv"
        link.symlink_to(target.name)
        code, _, _ = cli("table", "double", "--seed", "10", "--rows", "30", "-o", str(link))
        assert code == 0
        assert link.is_symlink()
        assert target.read_text() == golden_text
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "table.tsv"]


class TestVerifyCommand:
    def test_clean_doubling(self, cli):
        code, out, _ = cli("verify", str_golden_path(), "--mode", "doubling")
        assert code == 0
        assert "#RESULT ok=true" in out
        assert "pair_bad=0" in out

    def test_default_mode_is_pairs(self, cli):
        code, out, _ = cli("verify", str_golden_path())
        assert code == 0
        assert "doubling:" not in out

    def test_bad_row_fails(self, cli, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\t10\t0;7\n", encoding="utf-8")
        code, out, _ = cli("verify", str(bad))
        assert code == 1
        assert "row 1: PAIR_BAD" in out
        assert "#RESULT ok=false" in out

    def test_row_findings_come_before_chain_findings(self, cli, tmp_path):
        lines = Path(str_golden_path()).read_text(encoding="utf-8").splitlines(keepends=True)
        for row in (5, 12):
            index, value, reciprocal = lines[row - 1].split("\t")
            value = value[:-1] + str((int(value[-1]) + 1) % 10)
            lines[row - 1] = "\t".join((index, value, reciprocal))
        corrupt = tmp_path / "corrupt.tsv"
        corrupt.write_text("".join(lines), encoding="utf-8")
        code, out, _ = cli("verify", "--mode", "doubling", str(corrupt))
        assert code == 1
        found = [line.split(": ")[:2] for line in out.splitlines() if line.startswith("row ")]
        assert [": ".join(f) for f in found] == [
            "row 5: PAIR_BAD",
            "row 12: PAIR_BAD",
            "row 5: DOUBLING_BAD",
            "row 6: DOUBLING_BAD",
            "row 12: DOUBLING_BAD",
            "row 13: DOUBLING_BAD",
        ]

    # The whole report, byte for byte: findings, one line per relation the mode
    # checks, parse errors when there are any, and #RESULT with every relation.
    CORRUPT_FINDINGS = (
        "row 7: PAIR_BAD: 10,41 and 0;0,5,37,30 are not a reciprocal pair\n"
        "row 12: PARSE_ERROR: reciprocal '0;0;0,10,32,48,45': more than one semicolon"
        " (column 4)\n"
        "row 20: PARSE_ERROR: value '24,16,21,20x': unexpected character 'x' (column 12)\n"
    )
    REPORTS = {
        ("golden", "pairs"): (
            0,
            "pairs: 30 ok, 0 bad\n"
            "#RESULT ok=true pair_ok=30 pair_bad=0 doubling_ok=0 doubling_bad=0"
            " halving_ok=0 halving_bad=0 parse_errors=0\n",
        ),
        ("golden", "doubling"): (
            0,
            "pairs: 30 ok, 0 bad\n"
            "doubling: 29 ok, 0 bad\n"
            "halving: 29 ok, 0 bad\n"
            "#RESULT ok=true pair_ok=30 pair_bad=0 doubling_ok=29 doubling_bad=0"
            " halving_ok=29 halving_bad=0 parse_errors=0\n",
        ),
        ("corrupt", "pairs"): (
            1,
            CORRUPT_FINDINGS
            + "pairs: 27 ok, 1 bad\n"
            "parse errors: 2\n"
            "#RESULT ok=false pair_ok=27 pair_bad=1 doubling_ok=0 doubling_bad=0"
            " halving_ok=0 halving_bad=0 parse_errors=2\n",
        ),
        ("corrupt", "doubling"): (
            1,
            CORRUPT_FINDINGS
            + "row 7: DOUBLING_BAD: value is not the double of row 6's\n"
            "row 8: DOUBLING_BAD: value is not the double of row 7's\n"
            "pairs: 27 ok, 1 bad\n"
            "doubling: 25 ok, 2 bad\n"
            "halving: 27 ok, 0 bad\n"
            "parse errors: 2\n"
            "#RESULT ok=false pair_ok=27 pair_bad=1 doubling_ok=25 doubling_bad=2"
            " halving_ok=27 halving_bad=0 parse_errors=2\n",
        ),
    }

    @staticmethod
    def corrupt_golden(path):
        """The golden table with a flipped value digit, a ',' made ';' in a
        reciprocal, an unparseable cell and a cell spelled with blanks."""
        rows = [line.split("\t") for line in Path(str_golden_path()).read_text().splitlines()]
        rows[6][1] = rows[6][1][:-1] + "1"  # 10,40 -> 10,41
        rows[11][2] = rows[11][2].replace(",", ";", 1)
        rows[19][1] += "x"
        rows[24][1] = " " + rows[24][1].replace(",", " , ") + " "
        path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")

    @pytest.mark.parametrize("table, mode", list(REPORTS))
    def test_whole_report(self, cli, tmp_path, table, mode):
        path = Path(str_golden_path())
        if table == "corrupt":
            path = tmp_path / "corrupt.tsv"
            self.corrupt_golden(path)
        code, out = self.REPORTS[table, mode]
        assert cli("verify", "--mode", mode, str(path)) == (code, out, "")

    def test_missing_file(self, cli):
        code, _, err = cli("verify", "/no/such/file.tsv")
        assert code == 3

    def test_structurally_broken_file(self, cli, tmp_path):
        broken = tmp_path / "broken.tsv"
        broken.write_text("1\t10\n", encoding="utf-8")
        code, _, err = cli("verify", str(broken))
        assert code == 2
        assert "line 1" in err

    def test_crlf_line_endings_rejected(self, cli, tmp_path):
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(b"1\t10\t0;6\r\n2\t20\t0;3\r\n")
        code, _, err = cli("verify", str(crlf))
        assert code == 2
        assert "line 1" in err


    def test_missing_final_lf_is_a_structural_fault(self, cli, tmp_path):
        cut = tmp_path / "cut.tsv"
        cut.write_bytes(Path(str_golden_path()).read_bytes()[:-1])
        assert cli("verify", str(cut)) == (
            2, "", "error: line 30: the file does not end in LF\n"
        )

    def test_bytes_that_are_not_utf8_are_named_by_line(self, cli, tmp_path):
        text = "".join(f"{i}\t10\t0;6\n" for i in range(1, 10001)).encode()
        offset = 100_000  # beyond the first 64 KiB read
        line = text.count(b"\n", 0, offset) + 1
        column = offset - text.rfind(b"\n", 0, offset)
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(text[:offset] + b"\xff" + text[offset + 1 :])
        assert cli("verify", str(bad)) == (
            2,
            "",
            f"error: line {line}: 'utf-8' codec can't decode byte 0xff in column {column}:"
            " invalid start byte\n",
        )

    def test_bad_rows_before_a_structural_fault_print_nothing(self, cli, tmp_path):
        lines = Path(str_golden_path()).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[3].replace("0;", "0;1", 1)
        lines[20] = "21\t1\n"
        broken = tmp_path / "broken.tsv"
        broken.write_text("".join(lines), encoding="utf-8")
        code, out, err = cli("verify", "--mode", "doubling", str(broken))
        assert (code, out) == (2, "")
        assert err == "error: line 21: expected 3 tab-separated fields, found 2\n"


class TestLongNumbers:
    """Numbers past the interpreter's default limit of 4,300 decimal digits for int/str."""

    NINES = ",".join(["59"] * 2500)  # 60**2500 - 1: 4,446 decimal digits
    SEVENS = ",".join(["7"] * 2500)  # irregular: 7 * (60**2500 - 1) / 59

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("parse", NINES, "--floating"), 0),
            (("mul", NINES, "1"), 0),
            (("recip", SEVENS), 1),
            (("solve", SEVENS, "1"), 1),
        ],
        ids=["parse", "mul", "recip", "solve"],
    )
    def test_exit_codes(self, cli, argv, code):
        assert cli(*argv)[0] == code

    # Decimal spells an int exactly and is not bound by the int/str limit.
    def test_parse_prints_the_whole_mantissa(self, cli):
        _, out, err = cli("parse", self.NINES, "--floating")
        assert f"mantissa: {Decimal(60**2500 - 1)}\n" in out
        assert err == ""

    def test_irregular_residue_is_printed(self, cli):
        _, _, err = cli("recip", self.SEVENS)
        assert f"(residue {Decimal(7 * (60**2500 - 1) // 59)})" in err

    def test_verify_reads_a_long_index(self, cli, tmp_path):
        table = tmp_path / "long_index.tsv"
        table.write_text("1" * 5000 + "\t10\t6\n", encoding="utf-8")
        code, out, _ = cli("verify", str(table))
        assert code == 0
        assert "#RESULT ok=true" in out

    @pytest.mark.parametrize("argv", [("recip", SEVENS), ("parse", "6", "--floating"), ()])
    def test_process_limit_is_restored(self, cli, argv):
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        if get_limit is None:
            pytest.skip("this interpreter has no int/str digit limit")
        before = get_limit()
        sys.set_int_max_str_digits(4321)  # not the default, so a leak from another test shows
        try:
            cli(*argv)
            assert get_limit() == 4321
        finally:
            sys.set_int_max_str_digits(before)


class TestUsage:
    def test_no_arguments(self, cli):
        assert cli()[0] == 2

    def test_help(self, cli):
        assert cli("--help")[0] == 0

    def test_unknown_command(self, cli):
        assert cli("divide", "1", "2")[0] == 2


class TestSubprocess:
    """One true end-to-end pass through the installed entry point."""

    def _run(self, *args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "sexagesimal", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_golden_table(self, golden_text):
        result = self._run("table", "double", "--seed", "10", "--rows", "30")
        assert result.returncode == 0
        assert result.stdout == golden_text

    def test_exit_code_propagates(self):
        result = self._run("recip", "40,51")
        assert result.returncode == 1
        assert "817" in result.stderr


class TestStreaming:
    """Table commands hold one row at a time; checked on real child processes."""

    # Runs the CLI, then writes the process's own peak resident set (kB) to stderr.
    # ru_maxrss would not do: a child can inherit its parent's high-water mark.
    MEASURED = (
        "import sys\n"
        "from sexagesimal.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    sys.stderr.write(next(l.split()[1] for l in status if l.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )

    @staticmethod
    def env():
        return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        peaks = {}
        for size, (rows, limit) in enumerate([(500, 10**6), (4000, 10**24)]):
            table, standard = tmp_path / f"{rows}.tsv", tmp_path / f"{limit}.tsv"
            for name, argv in [
                ("double", ["table", "double", "--seed", "10", "--rows", str(rows), "-o", table]),
                ("verify", ["verify", "--mode", "doubling", table]),
                ("standard", ["table", "standard", "--limit", str(limit), "-o", standard]),
            ]:
                result = subprocess.run(
                    [sys.executable, "-c", self.MEASURED, *map(str, argv)],
                    capture_output=True, text=True, env=self.env(),
                )
                assert result.returncode == 0, result.stderr
                peaks[name, size] = int(result.stderr)
        # 14 MB of doubling table and 25,520 standard rows at the larger size
        assert (tmp_path / "4000.tsv").stat().st_size > 14_000_000
        for name in ("double", "verify", "standard"):
            assert peaks[name, 1] <= 1.5 * peaks[name, 0], peaks

    def test_killed_write_keeps_the_old_table(self, tmp_path):
        target = tmp_path / "table.tsv"
        target.write_bytes(b"old\n")
        child = subprocess.Popen(
            [sys.executable, "-m", "sexagesimal", "table", "double", "--seed", "10",
             "--rows", "10000", "-o", str(target)],
            env=self.env(),
        )
        try:
            deadline = time.monotonic() + 60
            grown = False
            while not grown and child.poll() is None and time.monotonic() < deadline:
                sizes = [p.stat().st_size for p in tmp_path.glob(".table.tsv.*.tmp")]
                grown = any(size > 1 << 20 for size in sizes)
                time.sleep(0.005)
            assert grown, "the temporary file never grew past 1 MiB while the child ran"
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == -signal.SIGKILL
        assert target.read_bytes() == b"old\n"
        left = [p.name for p in tmp_path.iterdir() if p != target]
        assert all(re.fullmatch(r"\.table\.tsv\..+\.tmp", name) for name in left), left
