"""A fast slice of the pinned counter grid (the full grid: tests/grid.py --check)."""

import pytest

import grid

SLICE = [
    ("modelD", "first"), ("modelD", "count"), ("modelD", "decide"),
    ("modelRB", "first"), ("modelRB", "count"), ("modelRB", "decide"),
    ("chessboard", "first"), ("chessboard", "decide"),
]


@pytest.mark.parametrize("family,mode", SLICE)
def test_grid_slice_matches_pinned_digest(family, mode):
    assert grid.digest(family, mode) == grid.pinned()[family][mode]


def test_grid_digests_cover_every_cell():
    assert {f: set(m) for f, m in grid.pinned().items()} == {
        f: set(grid.MODES) for f in grid.FAMILIES
    }
