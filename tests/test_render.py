"""Figures: the mark grid against the per-kind cell renderer it replaced, and a sum's figure against its window's."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legsum as L
from legsum import sums
from legsum.cli import main

from conftest import make_grid_specs, random_sums, wide_step_sums
from oracles import cell_render_ascii, cell_render_svg

GOLDEN_B2_ASCII = (
    "tb  1 | . ^ . ^ . 2 . ^ . ^ . |\n"
    "tb  0 |. o o o o 2 2 o o o o .|\n"
    "tb -1 | o o v o v 2 v o v o o |\n"
    "tb -2 |o o o o o v v o o o o o|\n"
    "tb    +-----------------------+\n"
    "       r = -11 .. 11\n"
)


def assert_draws_like_cells(model, spec: L.RenderSpec | None = None) -> None:
    assert L.render_ascii(model, spec) == cell_render_ascii(model, spec)
    assert L.render_svg(model, spec) == cell_render_svg(model, spec)


def test_render_spec_rejects_other_formats():
    with pytest.raises(ValueError, match="^format must be 'ascii' or 'svg', got 'png'$"):
        L.RenderSpec("png")


def test_render_rejects_other_models():
    with pytest.raises(TypeError, match="^cannot render object$"):
        L.render(object(), L.RenderSpec())


def test_ranges_draw_like_cells(cat):
    for rng in cat.values():
        for tb_min in [rng.top_tb - depth for depth in range(10)] + [rng.top_tb + 1, None]:
            assert_draws_like_cells(rng, L.RenderSpec(tb_min=tb_min))


def test_grid_windows_draw_like_cells(cat):
    for spec in make_grid_specs(cat):
        for depth in (0, 3, 6):
            assert_draws_like_cells(L.build_quotient(spec, spec.top_tb - depth))


def test_hand_built_window_draws_like_cells():
    # A top that is not global, a valley, a parentless node of the other
    # parity in its row, an empty row, and fibers of 11, 9 and 2 classes.
    crowds = [(f"k{r}{i:02}", -1, r) for r, size in ((0, 11), (2, 9), (4, 2)) for i in range(size)]
    window = L.QuotientPoset.from_parts(
        [("t1", 3, -2), ("t2", 3, 2), ("p", 2, -1), ("q", 2, 1), ("v", 1, 0), ("w", 1, 3), *crowds],
        [("t1", "+", "p"), ("t2", "-", "q"), ("p", "+", "v"), ("q", "-", "v")],
        tb_min=-1,
        top_tb=3,
    )
    assert L.render_ascii(window).splitlines()[:6] == [
        "tb  3 |^ . ^ .|",
        "tb  2 | o o . |",
        "tb  1 | .v. ^ |",
        "tb  0 |       |",
        "tb -1 |. # 9 2|",
        "tb    +-------+",
    ]
    assert_draws_like_cells(window)


def test_crowded_fibers_draw_like_cells(cat):
    # B:5 has fibers of up to 3 classes; A:3,B:3,Aprime:3 has one of 26.
    for parts, depth in (([("B", 5)], 8), ([("A", 3), ("B", 3), ("Aprime", 3)], 6)):
        spec = L.SumSpec.of([(cat[name], count) for name, count in parts])
        window = L.build_quotient(spec, spec.top_tb - depth)
        assert_draws_like_cells(window)
    assert "#" in L.render_ascii(window)


def test_empty_window_draws_like_cells():
    empty = L.QuotientPoset.from_parts([], [], tb_min=0, top_tb=0)
    assert L.render_ascii(empty) == "(empty diagram)\n"
    assert_draws_like_cells(empty)


@given(st.one_of(random_sums(), wide_step_sums()), st.integers(0, 10))
def test_random_windows_draw_like_cells(spec, depth):
    assert_draws_like_cells(L.build_quotient(spec, spec.top_tb - depth))


def assert_sum_draws_like_its_window(spec: L.SumSpec, tb_min: int) -> None:
    """Check that the figure read off the rows and the box equals the window's, in both formats."""
    window = L.build_quotient(spec, tb_min)
    for fmt in ("ascii", "svg"):
        how = L.RenderSpec(fmt, tb_min)
        assert L.render(spec, how) == L.render(window, how), (spec.label(), tb_min, fmt)


def test_sums_draw_like_their_windows_on_grid(cat):
    specs = make_grid_specs(cat, 4)
    assert len(specs) == 125
    for spec in specs:
        f0 = sums._box_floor(spec)
        # The last two floors lie below F0, where no point is boxed.
        for tb_min in [spec.top_tb - depth for depth in (0, 3, 8, 12)] + [f0 - 1, f0 - 3]:
            assert_sum_draws_like_its_window(spec, tb_min)


@given(st.one_of(random_sums(), wide_step_sums()), st.integers(0, 12))
def test_sums_draw_like_their_windows_on_random_ranges(spec, depth):
    assert_sum_draws_like_its_window(spec, spec.top_tb - depth)


def test_a_sum_draws_with_no_window(cat):
    spec = L.SumSpec.of([(cat["B"], 2)])
    assert L.render_ascii(spec, L.RenderSpec(tb_min=spec.top_tb - 3)) == GOLDEN_B2_ASCII
    # The default floor is 8 rows down, as for a range; above the top the figure is empty.
    assert L.render_svg(spec) == L.render_svg(L.build_quotient(spec, spec.top_tb - 8))
    assert L.render_ascii(spec, L.RenderSpec(tb_min=spec.top_tb + 1)) == "(empty diagram)\n"


def test_render_window_ascii_golden(capsys):
    assert main(["render", "--spec", "B:2", "--depth", "3"]) == 0
    assert capsys.readouterr().out == GOLDEN_B2_ASCII
