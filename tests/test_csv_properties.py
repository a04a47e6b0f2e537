"""Mutated CSV files: ``load_csv`` against the per-cell reader, and through ``run``.

Each example writes a small timestamp-plus-channels CSV and applies a few
mutations: replaced cells (text, ``nan``/``inf``/``1e999``, ``1_000``,
surrounding spaces and separator characters), extra or missing fields,
quotes, blank lines, CRLF or CR line ends, a missing final newline and
truncation. ``load_csv`` must return the bit-identical values or fail with
the same error and text as ``tests/reference.py::load_csv_per_cell``. Through
``run`` the same kind of file must end in exit 0, 3 or 4 with at most one
stderr line and no traceback; a series too short for its split is a data
error, exit 3.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from spectral_forecaster import cli
from spectral_forecaster.data import load_csv

from reference import load_csv_per_cell

CHANNELS = ("a", "b", "c")

ODD_CELLS = (
    "", " ", "nan", "NaN", "-nan", "inf", "-Infinity", "1e999", "-1e999", "1e308",
    "-1.7e308", "5e-324", "1e-400", "-0", "+7", ".5", "5.", "1_000", "1__0", "_1",
    "0x10", "oops", "1.5.5", "1e5.5", " 3.25 ", "\t4\t", "\x1c1.5", "2\x1f",
    "1.5 ", "١٢", '"1.5"', '"2,5"', '"', "1,5",
)
CELL_TEXT = st.one_of(
    st.sampled_from(ODD_CELLS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet='0123456789.eE+-_ \t",x\x1c\x1f ', max_size=8),
)
FORMATS = (repr, "{:.6g}".format, "{:.3f}".format, "{:e}".format)


@st.composite
def mutated_csv(draw, n_rows: int, max_mutations: int = 3) -> str:
    """CSV text of ``n_rows`` data rows after up to ``max_mutations`` mutations."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fmt = draw(st.sampled_from(FORMATS))
    values = rng.standard_normal((n_rows, len(CHANNELS))) * 10.0 ** rng.integers(-3, 4)
    rows = [["date", *CHANNELS]]
    rows += [[str(t), *map(fmt, row)] for t, row in enumerate(values.tolist())]
    ends = ["\n"] * len(rows)
    cut = None
    for _ in range(draw(st.integers(0, max_mutations))):
        kind = draw(st.sampled_from(
            ("cell", "cell", "add_field", "drop_field", "quote", "blank", "spaces",
             "line_end", "all_crlf", "no_final_newline", "truncate")))
        r = draw(st.integers(0, len(rows) - 1))
        if kind == "cell" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(CELL_TEXT)
        elif kind == "add_field":
            rows[r].append(draw(CELL_TEXT))
        elif kind == "drop_field" and rows[r]:
            rows[r].pop()
        elif kind == "quote" and rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = f'"{rows[r][c]}"'
        elif kind == "blank":
            rows.insert(r, [draw(st.sampled_from(("", "  ", "\t")))])
            ends.insert(r, draw(st.sampled_from(("\n", "\r\n"))))
        elif kind == "spaces" and rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = draw(st.sampled_from((" ", "\t", "  "))) + rows[r][c] + " "
        elif kind == "line_end":
            ends[r] = draw(st.sampled_from(("\r\n", "\r", "\n")))
        elif kind == "all_crlf":
            ends = ["\r\n"] * len(rows)
        elif kind == "no_final_newline":
            ends[-1] = ""
        elif kind == "truncate":
            cut = draw(st.floats(0.0, 1.0))
    text = "".join(",".join(row) + end for row, end in zip(rows, ends))
    if cut is not None:
        text = text[:int(cut * len(text))]
    return text


def outcome(load, path):
    """What a loader made of ``path``: names and exact values, or the error and its text."""
    try:
        rs = load(path)
    except Exception as exc:  # the other reader must fail the same way
        return type(exc).__name__, str(exc)
    return rs.channel_names, rs.values.shape, rs.values.tobytes()


def test_every_ascii_character_in_a_cell_reads_as_float_reads_it(tmp_path):
    # numpy strips \x1c-\x1f around a number as whitespace; float() does not
    p = tmp_path / "char.csv"
    for code in range(128):
        c = chr(code)
        for cell in (f"1.5{c}", f"{c}1.5", f"1{c}5"):
            p.write_text(f"date,a\n1,1.0\n2,{cell}\n", newline="")
            assert outcome(load_csv, p) == outcome(load_csv_per_cell, p), repr(cell)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(mutated_csv(n_rows=6), mutated_csv(n_rows=1, max_mutations=2)))
def test_load_csv_matches_per_cell_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(load_csv_per_cell, path)
    event(expected[0] if expected[0] == "DataError" else "loaded")
    assert outcome(load_csv, path) == expected


RUN_YAML = """
tag: mutated
dataset: {dataset}
horizons: [4]
model: {{lookback: 8, patch_len: 4, d_model: 8, n_heads: 2, total_layers: 2, alpha: 1, dropout: 0.0}}
train: {{learning_rate: 1e-3, batch_size: 64, max_epochs: 1, patience: 1}}
out_dir: {out}
"""


@settings(max_examples=30, deadline=None)
@given(text=mutated_csv(n_rows=60))
def test_run_on_mutated_csv_exits_with_a_documented_code(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    data = base / "mutated_run.csv"
    data.write_text(text, encoding="utf-8", newline="")
    config = base / "mutated_run.yaml"
    config.write_text(RUN_YAML.format(dataset=data, out=base / "mutated_out"))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("default")  # the interpreter's: once per code location
        code = cli.main(["run", "--config", str(config)])
    lines = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 3, 4), lines
    assert len(lines) <= 1, lines
    loaded = outcome(load_csv_per_cell, data)
    # a series shorter than lookback + horizon has no window in any split
    if loaded[0] == "DataError" or loaded[1][0] < 8 + 4:
        assert code == 3, lines


def _run_on(tmp_path, text):
    data, config = tmp_path / "huge.csv", tmp_path / "huge.yaml"
    data.write_text(text, encoding="utf-8", newline="")
    config.write_text(RUN_YAML.format(dataset=data, out=tmp_path / "out"))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("default")
        code = cli.main(["run", "--config", str(config)])
    return code, err.getvalue().splitlines()


# one huge cell in a validation input (rows 0-41 of 60 are the train
# segment): RevIN's variance overflowed, which printed a warning line before
# the numeric error
def test_huge_value_after_the_train_segment_exits_4_in_one_line(tmp_path):
    values = np.random.default_rng(0).standard_normal((60, 3)) * 1e-3
    values[48, 0] = 1.591446235513268e151
    text = "date,a,b,c\n" + "".join(f"{i},{a!r},{b!r},{c!r}\n"
                                    for i, (a, b, c) in enumerate(values.tolist()))
    code, lines = _run_on(tmp_path, text)
    assert code == 4 and len(lines) == 1, lines
    assert lines[0] == "numeric error: rows too large for revin statistics in float64"
