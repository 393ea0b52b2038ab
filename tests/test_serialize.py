"""Deterministic emission: config hashes, CSV/JSON layout, target reader."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toraldecay import serialize
from toraldecay._version import __version__
from toraldecay.errors import InputError


def test_config_hash_is_order_independent():
    a = serialize.config_hash({"x": 1, "y": "two"})
    b = serialize.config_hash({"y": "two", "x": 1})
    assert a == b
    assert len(a) == 16
    assert a != serialize.config_hash({"x": 2, "y": "two"})


def test_format_value():
    assert serialize.format_value(True) == "true"
    assert serialize.format_value(False) == "false"
    assert serialize.format_value(0.1) == "0.1"
    assert serialize.format_value(1.0 / 3.0) == repr(1.0 / 3.0)
    assert serialize.format_value(7) == "7"


def test_render_csv_layout():
    text = serialize.render_csv(
        ["n", "v"], [[1, 0.5], [2, 0.25]], {"job": "t"}, seed=3, footer=["fit: none"]
    )
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "# seed: 3"
    assert lines[2].startswith("# version: ")
    assert lines[3] == "n,v"
    assert lines[4] == "1,0.5"
    assert lines[5] == "2,0.25"
    assert lines[6] == "# fit: none"


def test_render_csv_reruns_byte_identical():
    rows = [[k, float(k) / 7.0] for k in range(20)]
    a = serialize.render_csv(["a", "b"], rows, {"s": 1}, seed=0)
    b = serialize.render_csv(["a", "b"], rows, {"s": 1}, seed=0)
    assert a == b
    c = serialize.render_csv(["a", "b"], rows, {"s": 2}, seed=0)
    assert a.splitlines()[0] != c.splitlines()[0]  # config hash moved


def test_write_csv_and_json(tmp_path):
    p = serialize.write_csv(tmp_path / "t.csv", ["x"], [[1]], {"c": 1})
    with open(p, encoding="utf-8") as fh:
        assert fh.read().endswith("x\n1\n")
    q = serialize.write_json(tmp_path / "t.json", {"b": 2, "a": np.float64(1.5)})
    with open(q, encoding="utf-8") as fh:
        obj = json.load(fh)
    assert obj == {"a": 1.5, "b": 2}


def test_render_json_sorts_and_converts():
    text = serialize.render_json({"z": np.int64(3), "a": np.arange(2)})
    assert text == '{\n  "a": [\n    0,\n    1\n  ],\n  "z": 3\n}\n'
    with pytest.raises(TypeError):
        serialize.render_json({"bad": object()})


def test_read_targets_csv(tmp_path):
    path = tmp_path / "targets.csv"
    path.write_text("# comment\nn,delta\n1,0.5\n2,0.25\n\n")
    # first column wins; the header row is skipped as unparsable
    assert serialize.read_targets_csv(path) == [1.0, 2.0]
    path.write_text("0.5\n0.25\n0.125\n")
    assert serialize.read_targets_csv(path) == [0.5, 0.25, 0.125]
    path.write_text("# nothing\n")
    with pytest.raises(InputError):
        serialize.read_targets_csv(path)


@pytest.mark.parametrize("text", ["0.5\n0.2x\n0.125\n", "target\n0.5\nnan?\n",
                                  "target\n# c\n\nother\n0.5\n"])
def test_read_targets_csv_rejects_non_numeric_data_rows(tmp_path, text):
    # only the first row may be a header; a typo later must not drop a target
    path = tmp_path / "targets.csv"
    path.write_text(text)
    with pytest.raises(InputError):
        serialize.read_targets_csv(path)


def float_bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False), min_size=1, max_size=4), max_size=6))
def test_render_csv_rows_parse_back_bit_exact(rows):
    width = max((len(r) for r in rows), default=1)
    rows = [r + [0.0] * (width - len(r)) for r in rows]
    text = serialize.render_csv(["c%d" % i for i in range(width)], rows, {"t": 1}, seed=2,
                                footer=["fit: null"])
    data = [line for line in text.splitlines() if not line.startswith("#")][1:]
    back = [[float(v) for v in r] for r in csv.reader(data)]
    assert [float_bits(r) for r in back] == [float_bits(r) for r in rows]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1))
def test_read_targets_csv_reads_the_benchmark_layout(tmp_path_factory, targets):
    # the layout bench/workloads.py writes: a header, then one repr per line
    path = tmp_path_factory.mktemp("targets") / "targets.csv"
    path.write_text("target\n" + "".join("%r\n" % float(t) for t in targets))
    assert float_bits(serialize.read_targets_csv(path)) == float_bits(targets)


def _frozen_render_csv(columns, rows, config, seed=None, footer=None):
    """render_csv as it wrote through csv.writer and io.StringIO."""
    buf = io.StringIO()
    buf.write("# config: %s\n" % serialize.config_hash(config))
    if seed is not None:
        buf.write("# seed: %d\n" % seed)
    buf.write("# version: %s\n" % __version__)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([serialize.format_value(v) for v in row])
    if footer:
        for line in footer:
            buf.write("# %s\n" % line)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.one_of(st.floats(), st.integers(), st.booleans()),
                         min_size=1, max_size=4), max_size=6),
       st.one_of(st.none(), st.integers(0, 2**64 - 1)),
       st.one_of(st.none(), st.lists(st.sampled_from(["fit: null", "centered: true"]))))
def test_render_csv_equals_the_csv_writer_route(rows, seed, footer):
    # every field is a number, a boolean or a column name, so none needs quoting
    columns = ["c%d" % i for i in range(max((len(r) for r in rows), default=1))]
    text = serialize.render_csv(columns, rows, {"t": 1}, seed=seed, footer=footer)
    assert text == _frozen_render_csv(columns, rows, {"t": 1}, seed=seed, footer=footer)
