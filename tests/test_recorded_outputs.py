"""Whole outputs of the CLI, recorded from earlier code: SHA-256 digests of
tables and reports, ``#RESULT`` lines, error lines and exit codes.

A change that alters one byte of them fails here.  Stdout tables, pipes and
``/dev/stdin`` are real, in child processes; everything else runs in process.
"""

import subprocess
from functools import cache
from hashlib import sha256

import pytest
from conftest import run_child, start_child

from sexagesimal import translit
from sexagesimal.core import FloatingSex
from sexagesimal.tables import generate_doubling, generate_standard, table_tsv

# `table *argv`: its line count and the SHA-256 of its bytes.  The doubling tables
# were recorded before the writer spelled rows from packed digits; "double-10" is
# DOUBLING_SHA[3000] and 19, 24 and 30 are STANDARD_SHA in bench/workloads.py, from
# the original code; 10**45 (158,838 rows from 3,115 chains) was recorded at 7a9c7fa.
TABLES = {
    "double-10": (
        ("double", "--seed", "10", "--rows", "3000"),
        3000,
        "390a0a3eaf87bdc96d19e70f8b167837a9c33cf6d9ecbe17c389f4d1aa6e4a2b",
    ),
    "double-1,21-anchor-3": (
        ("double", "--seed", "1,21", "--rows", "3000", "--anchor=-3"),
        3000,
        "9e99bdceee01195e5209022dc51db1f62c8d26a2ec3afa48da0fd3a19c3307be",
    ),
    "double-1,21-anchor3": (
        ("double", "--seed", "1,21", "--rows", "3000", "--anchor=3"),
        3000,
        "9150c476b83c2b5a0479655ef61046ef24a1f9ad361448e0ea14eecd21895ca1",
    ),
    "standard-19": (
        ("standard", "--limit", str(10**19)),
        12_760,
        "e7f56b4113cbf3fd31b5903c5d72e8c69c04cd43ab31d8b4bda2a3087b21bbaa",
    ),
    "standard-24": (
        ("standard", "--limit", str(10**24)),
        25_126,
        "d9a8857b2cf9288841d38a0a81bc9dfd5e921abccb6a074d6d03fae443f5d762",
    ),
    "standard-30": (
        ("standard", "--limit", str(10**30)),
        48_206,
        "445b970cf370c8ddbcdc1b38fbdce9c021951d4d7a657daec6a1fb848b32e589",
    ),
    "standard-45": (
        ("standard", "--limit", str(10**45)),
        158_838,
        "92937ad74ba61be9de3c9dc164faf6c569a8e5e413e2d574103e1f775a195c1a",
    ),
}


def lines_and_digest(table: bytes) -> tuple[int, str]:
    return table.count(b"\n"), sha256(table).hexdigest()


@pytest.fixture(scope="session")
def table_stdout():
    """The bytes a child's ``table`` writes on its stdout, each of TABLES made once."""

    @cache
    def stdout(name: str) -> bytes:
        code, out, err = run_child("table", *TABLES[name][0])
        assert (code, err) == (0, b"")
        return out

    return stdout


@pytest.mark.parametrize("name", TABLES)
def test_table_on_stdout(table_stdout, name):
    _, lines, digest = TABLES[name]
    assert lines_and_digest(table_stdout(name)) == (lines, digest)


@pytest.mark.parametrize("name", ["double-10", "standard-19", "standard-45"])
def test_table_written_with_output_file(cli, tmp_path, name):
    # -o writes through a temporary file with its own 64 KiB buffer: the same bytes as stdout.
    argv, lines, digest = TABLES[name]
    target = tmp_path / "table.tsv"
    assert cli("table", *argv, "-o", str(target)) == (0, "", "")
    assert lines_and_digest(target.read_bytes()) == (lines, digest)


@pytest.mark.parametrize(
    "name, mode, result",
    [
        # Every pair, doubling and halving of 3,000 rows of long numerals.
        (
            "double-10",
            ("--mode", "doubling"),
            "#RESULT ok=true pair_ok=3000 pair_bad=0 doubling_ok=2999 doubling_bad=0"
            " halving_ok=2999 halving_bad=0 parse_errors=0",
        ),
        # Pairs mode converts every cell and computes every product, without the
        # packed chain steps the writer and the doubling mode share.
        (
            "double-1,21-anchor-3",
            ("--mode", "pairs"),
            "#RESULT ok=true pair_ok=3000 pair_bad=0 doubling_ok=0 doubling_bad=0"
            " halving_ok=0 halving_bad=0 parse_errors=0",
        ),
        # The default mode, pairs, on floating reciprocals.
        (
            "standard-19",
            (),
            "#RESULT ok=true pair_ok=12760 pair_bad=0 doubling_ok=0 doubling_bad=0"
            " halving_ok=0 halving_bad=0 parse_errors=0",
        ),
    ],
    ids=["double-10", "double-1,21-anchor-3", "standard-19"],
)
def test_table_verified_on_stdin(table_stdout, name, mode, result):
    code, out, err = run_child("verify", *mode, "/dev/stdin", input=table_stdout(name))
    assert (code, err, out.splitlines()[-1]) == (0, b"", result.encode())


@pytest.mark.parametrize(
    "line, old, new, message",
    [
        (2500, b"\n", b"\r\n", "line 2500: carriage return found; lines must end in LF only"),
        (
            1200,
            b"\t",
            b"\t\xff",
            "line 1200: 'utf-8' codec can't decode byte 0xff in column 6: invalid start byte",
        ),
    ],
    ids=["carriage-return", "not-utf-8"],
)
def test_structural_fault_named_on_stdin(table_stdout, line, old, new, message):
    # A pipe, unlike a file, gives parse_tsv short reads.
    lines = table_stdout("double-10").splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    assert run_child("verify", "--mode", "doubling", "/dev/stdin", input=b"".join(lines)) == (
        2,
        b"",
        f"error: {message}\n".encode(),
    )


def test_closed_pipe_exits_3():
    # The reader of table's stdout stops after one line.
    pipe = subprocess.PIPE
    with start_child("table", *TABLES["double-10"][0], stdout=pipe, stderr=pipe) as child:
        child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (3, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # parse reads the tokens it split once more without blanks; only the faulty
        # token is read further, and the column counts from the start of the text.
        (
            (",".join(["1"] * 1000 + ["75"] + ["1"] * 1000),),
            "digit 75 is out of range 0..59 (column 2001)",
        ),
        # Recorded from the split-and-lookup parser.
        (
            ("--floating", ",".join(["59"] * 1499 + ["07"] + ["59"] * 1500)),
            "zero-padded digit '07' (column 4498)",
        ),
    ],
    ids=["out-of-range", "zero-padded"],
)
def test_fault_in_a_long_numeral_is_named(cli, argv, message):
    assert cli("parse", *argv) == (2, "", f"error: {message}\n")


def test_blanks_around_every_token(cli):
    code, out, err = cli("parse", " 1 , 2 ; 3 ")
    assert (code, err, out.splitlines()[-1]) == (
        0,
        "",
        "#RESULT canonical=1,2;3 mantissa=3723 exponent=-1",
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        # 3,000 digits 59, read as one run; recorded from the split-and-lookup parser.
        (
            ("--floating", ",".join(["59"] * 3000)),
            "d8d2000e756a151666ad375408dee553025f6ca4e1a561c04765c2ecfdc1c091",
        ),
        # A headless fraction of 1,000 digits 59 spelled with blanks; recorded from
        # the code that split such a numeral twice.
        (
            (" ; " + " , ".join(["59"] * 1000),),
            "23713ff4226e5f1c3d27eb1f711d7cf7f9fcf51b1cede029e1e3978f062f5b44",
        ),
    ],
    ids=["long-run", "blank-spelled"],
)
def test_result_line_of_a_long_numeral(cli, argv, digest):
    code, out, err = cli("parse", *argv)
    result = out.splitlines(keepends=True)[-1]
    assert (code, err, sha256(result.encode()).hexdigest()) == (0, "", digest)


@pytest.mark.parametrize("anchor", [-3, 3])
def test_doubling_chain_from_a_long_seed(cli, tmp_path, anchor):
    # table double walks the chain on packed digits; table_tsv of generate_doubling
    # walks it on value objects.
    seed = FloatingSex(3**200 * 2**7)
    text = translit.format(seed)
    assert len(text) == 157
    code, out, err = cli("table", "double", "--seed", text, "--rows", "400", f"--anchor={anchor}")
    assert (code, err) == (0, "")
    expected = "".join(table_tsv(generate_doubling(seed, 400, anchor)))
    assert out.splitlines() == expected.splitlines()  # a short diff where they part
    table = tmp_path / "chain.tsv"
    table.write_text(out, encoding="utf-8")
    code, out, _ = cli("verify", "--mode", "doubling", str(table))
    assert (code, out.splitlines()[-1]) == (
        0,
        "#RESULT ok=true pair_ok=400 pair_bad=0 doubling_ok=399 doubling_bad=0"
        " halving_ok=399 halving_bad=0 parse_errors=0",
    )


def test_standard_table_from_packed_chains(cli, tmp_path):
    # table standard walks the merged chains on packed digits; table_tsv of
    # generate_standard walks them on FloatingSex.
    code, out, err = cli("table", "standard", "--limit", str(10**12))
    assert (code, err) == (0, "")
    expected = "".join(table_tsv(generate_standard(10**12)))
    assert out.splitlines() == expected.splitlines()
    table = tmp_path / "standard.tsv"
    table.write_text(out, encoding="utf-8")
    code, out, _ = cli("verify", str(table))
    assert (code, out.splitlines()[-1]) == (
        0,
        "#RESULT ok=true pair_ok=3428 pair_bad=0 doubling_ok=0 doubling_bad=0"
        " halving_ok=0 halving_bad=0 parse_errors=0",
    )


# Cells of the golden table, (row, column): the value of row 7, 10,40, made 10,41;
# the second table also sets row 12's value to 0 and row 20's reciprocal to 0;0.
CORRUPTIONS = {
    "row-7": {(7, 1): "10,41"},
    "rows-7-12-20": {(7, 1): "10,41", (12, 1): "0", (20, 2): "0;0"},
}
# The #RESULT line of verify's report, and the SHA-256 of the whole report: the
# order, text and summary of every line, recorded at 18d3584.
REPORTS = {
    ("row-7", "pairs"): (
        "#RESULT ok=false pair_ok=29 pair_bad=1 doubling_ok=0 doubling_bad=0"
        " halving_ok=0 halving_bad=0 parse_errors=0",
        "0c8acd06164f7cee2a52f6a2f1342d4673de7a0ffc7992904940c4af459d6a6f",
    ),
    ("row-7", "doubling"): (
        "#RESULT ok=false pair_ok=29 pair_bad=1 doubling_ok=27 doubling_bad=2"
        " halving_ok=29 halving_bad=0 parse_errors=0",
        "c2e5695f3c00d234f8c4fa1807077f775ae8ddf71526787ab1cecd14d3f4ba91",
    ),
    ("rows-7-12-20", "pairs"): (
        "#RESULT ok=false pair_ok=27 pair_bad=2 doubling_ok=0 doubling_bad=0"
        " halving_ok=0 halving_bad=0 parse_errors=1",
        "453263e0767db39754de1a05fa1b16841536ae7f6e74d3ee905f2ce144a71849",
    ),
    ("rows-7-12-20", "doubling"): (
        "#RESULT ok=false pair_ok=27 pair_bad=2 doubling_ok=25 doubling_bad=2"
        " halving_ok=27 halving_bad=2 parse_errors=1",
        "e51fedb3954b770ec6578033ee7b88cef05216f19f9b7a7ccde0f3cb22184063",
    ),
}


@pytest.mark.parametrize("table, mode", REPORTS)
def test_report_on_a_corrupted_table(cli, tmp_path, golden_text, table, mode):
    rows = [line.split("\t") for line in golden_text.splitlines()]
    assert rows[6] == ["7", "10,40", "0;0,5,37,30"]
    for (row, column), cell in CORRUPTIONS[table].items():
        rows[row - 1][column] = cell
    path = tmp_path / "corrupt.tsv"
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    code, out, err = cli("verify", "--mode", mode, str(path))
    assert (code, err, out.splitlines()[-1], sha256(out.encode()).hexdigest()) == (
        1,
        "",
        *REPORTS[table, mode],
    )
