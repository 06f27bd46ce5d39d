"""The vectorized "%.17g" CSV writer against CPython's own formatting."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dampsim import _csv17
from dampsim._csv17 import format_rows
from dampsim.cli import main


def percent_rows(table):
    """The reference: every cell by "%", as the writer formatted before."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in table.tolist())


def formatted(table):
    """The text of format_rows' blocks, joined."""
    return "".join(format_rows(table))


def any_float():
    """Any float64, nan, inf and subnormals included: its 64 bits."""
    return st.integers(0, 2 ** 64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


def exact_range_float():
    """A cell of the writer's exact path: 0, -0 or 1e-10 <= |x| < 1e15."""
    magnitude = st.floats(1e-10, 1e15, exclude_max=True) | st.just(0.0)
    return st.tuples(magnitude, st.booleans()).map(
        lambda cell: -cell[0] if cell[1] else cell[0])


def tables(elements):
    shape = st.tuples(st.integers(1, 6), st.integers(1, 5))
    return hnp.arrays(np.float64, shape, elements=elements)


@given(tables(exact_range_float()) | tables(any_float())
       | tables(exact_range_float() | any_float()))
def test_any_table_formats_as_percent(table):
    assert formatted(table) == percent_rows(table)


@pytest.fixture
def exact_blocks(monkeypatch):
    """For each block format_rows formats, whether it took the exact path
    (True) or fell back to "%" (False)."""
    taken = []
    block_text = _csv17._block_text

    def recorded(*args):
        text = block_text(*args)
        taken.append(text is not None)
        return text

    monkeypatch.setattr(_csv17, "_block_text", recorded)
    return taken


def ulp_neighbours(values, reach=3):
    """Each value and the floats up to `reach` ulps either side of it."""
    bits = np.asarray(values, np.float64).view(np.int64)
    steps = np.arange(-reach, reach + 1)
    return (bits[:, None] + steps).ravel().view(np.float64)


def edge_values():
    """Powers of ten, where log10 can be one off, the two range edges, ties
    (123456789012345.125 * 100 ends in .5), signed zeros, subnormals, and
    quarter-integers at 2^50, past the exact range; each with both signs."""
    powers = ulp_neighbours([float(f"1e{j}") for j in range(-12, 18)])
    edges = ulp_neighbours([1e-10, 1e15, 1e-4, 1e-5, 1.0])
    ties = np.array([123456789012345.125, 98765432109876.375, 0.5, 2.5e-7])
    quarters = 2.0 ** 50 + np.arange(-8, 9) / 4
    odd = np.array([0.0, 5e-324, 2.2250738585072009e-308, np.inf, np.nan,
                    1e300])
    values = np.concatenate([powers, edges, ties, quarters, odd])
    return np.concatenate([values, -values])


def exact_range(values):
    return values[((np.abs(values) >= 1e-10) & (np.abs(values) < 1e15))
                  | (values == 0)]


def test_sweep_of_edge_values(exact_blocks):
    values = edge_values()
    inside = exact_range(values)
    assert inside.size > 300
    for column in (values, inside):
        for table in (column[:, None], column[None, :],
                      column[:column.size // 7 * 7].reshape(-1, 7)):
            exact_blocks.clear()
            assert formatted(table) == percent_rows(table)
            assert all(exact_blocks) == (column is inside)
    exact_blocks.clear()
    for value in values:
        table = np.array([[value]])
        assert formatted(table) == percent_rows(table)
    assert sum(exact_blocks) == inside.size


@pytest.mark.parametrize("error", [-0.5, 0.5])
def test_log10_one_off_either_way(monkeypatch, exact_blocks, error):
    # a floor(log10) one too high or too low moves the quotient out of
    # [10^16, 10^17), and E is mended, cell by cell
    inside = exact_range(edge_values())
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    for table in [inside[:, None]] + [np.array([[v]]) for v in inside]:
        assert formatted(table) == percent_rows(table)
    assert all(exact_blocks)


def test_only_the_block_with_an_outside_cell_falls_back(exact_blocks):
    # three blocks of rows; the middle one holds an inf
    rng = np.random.default_rng(7)
    table = 10.0 ** rng.uniform(-10.0, 15.0, (2 * _csv17._BLOCK_ROWS + 9, 3))
    table *= rng.choice([-1.0, 1.0], table.shape)
    table[_csv17._BLOCK_ROWS + 5, 1] = np.inf
    blocks = format_rows(table)
    rows = [block.count("\n") for block in blocks]
    assert rows == [_csv17._BLOCK_ROWS, _csv17._BLOCK_ROWS, 9]
    assert "".join(blocks) == percent_rows(table)
    assert exact_blocks == [True, False, True]


def test_trajectory_csv_is_the_percent_formatted_one(tmp_path, monkeypatch):
    # hbar 1e300 and 1e-300 put every covariance off the exact range and
    # hbar 1 puts none off it; either way evolve writes the CSV that "%"
    # alone writes
    for hbar in (1e300, 1e-300, 1.0):
        scenario = {"system": {"hbar": hbar,
                               "mode1": {"mass": 1.0, "omega": 1.0,
                                         "kappa": 0.5},
                               "mode2": {"mass": 2.0, "omega": 0.8,
                                         "kappa": 0.3}},
                    "time_grid": {"t_start": 0.0, "t_end": 4.0,
                                  "n_steps": 1500},
                    "lct": {"M": [[0.5, 0.5], [1.0, -1.0]]}}
        config = tmp_path / f"hbar{hbar:g}.json"
        config.write_text(json.dumps(scenario))
        files = {}
        for label, formatter in (("vectorized", format_rows),
                                 ("percent", lambda t: [percent_rows(t)])):
            monkeypatch.setattr(_csv17, "format_rows", formatter)
            out = tmp_path / f"{label}{hbar:g}"
            assert main(["evolve", "--config", str(config),
                         "--output", str(out)]) == 0
            files[label] = (out / "trajectory.csv").read_bytes()
        assert files["vectorized"] == files["percent"]
