from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import legsum as L

settings.register_profile(
    "fast",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("fast")

GRID_NAMES = ("U1", "C", "A", "B", "Aprime")

# JSON texts that ``json.loads`` rejects with ``RecursionError`` or, under an
# integer digit limit, ``ValueError`` instead of ``JSONDecodeError``; each
# with a piece of the message.
UNPARSABLE_JSON = [pytest.param("[" * 200_000, "recursion depth", id="deep")]
if getattr(sys, "get_int_max_str_digits", lambda: 0)():
    long_int = "1" * (sys.get_int_max_str_digits() + 1)
    UNPARSABLE_JSON.append(pytest.param('{"peaks": [[0, ' + long_int + "]]}", "digits", id="long-int"))


@pytest.fixture(scope="session")
def cat() -> dict[str, L.MountainRange]:
    return L.catalog()


@pytest.fixture(scope="session")
def A(cat):
    return cat["A"]


@pytest.fixture(scope="session")
def B(cat):
    return cat["B"]


@pytest.fixture(scope="session")
def C(cat):
    return cat["C"]


@pytest.fixture(scope="session")
def U1(cat):
    return cat["U1"]


@pytest.fixture(scope="session")
def Aprime(cat):
    return cat["Aprime"]


def make_grid_specs(cat, max_n: int = 3) -> list[L.SumSpec]:
    """Every multiset of catalog knots with 1 <= total multiplicity <= max_n."""
    out = []
    for n in range(1, max_n + 1):
        for combo in itertools.combinations_with_replacement(GRID_NAMES, n):
            parts = [(cat[nm], combo.count(nm)) for nm in GRID_NAMES if nm in combo]
            out.append(L.SumSpec.of(parts))
    return out


@pytest.fixture(scope="session")
def grid_specs(cat) -> list[L.SumSpec]:
    return make_grid_specs(cat)


@st.composite
def mountain_ranges(draw, knot_id: str = "K", max_peaks: int = 4) -> L.MountainRange:
    """Valid mountain ranges with uneven peak heights and the tightest genus.

    From a random first peak, each next peak lies alpha positive steps down
    to its valley and beta negative steps back up, alpha and beta in 1..3,
    so adjacent heights differ by beta - alpha.  The genus is the least
    g >= 0 with tb + |r| <= 2g - 1 at every peak.
    """
    tb, r = draw(st.integers(-3, 1)), draw(st.integers(-5, 1))
    peaks = [(tb, r)]
    for _ in range(draw(st.integers(0, max_peaks - 1))):
        alpha, beta = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        tb, r = tb - alpha + beta, r + alpha + beta
        peaks.append((tb, r))
    genus = max(0, max(-(-(t + abs(q) + 1) // 2) for t, q in peaks))
    return L.make_range(knot_id, peaks, genus)


@st.composite
def random_sums(draw, min_n: int = 2, max_n: int = 3, max_peaks: int = 4) -> L.SumSpec:
    """Sums of one or two random ranges with min_n..max_n factors in all."""
    n = draw(st.integers(min_n, max_n))
    first = draw(st.integers(1, n))
    counts = [first] if first == n else [first, n - first]
    return L.SumSpec.of(
        [
            (draw(mountain_ranges(knot_id, max_peaks)), count)
            for knot_id, count in zip(("K", "L"), counts)
        ]
    )


@st.composite
def wide_step_sums(draw, max_n: int = 3, max_peaks: int = 3) -> L.SumSpec:
    """Sums like :func:`random_sums` whose valley steps alpha and beta reach 8.

    Each range is drawn as in :func:`mountain_ranges`, from a random first
    peak, with alpha and beta in 1..8, so joins across a valley open only
    deep below the peaks.
    """
    n = draw(st.integers(2, max_n))
    first = draw(st.integers(1, n))
    parts = []
    for knot_id, count in zip(("K", "L"), [first] if first == n else [first, n - first]):
        tb, r = draw(st.integers(-3, 1)), draw(st.integers(-5, 1))
        peaks = [(tb, r)]
        for _ in range(draw(st.integers(0, max_peaks - 1))):
            alpha, beta = draw(st.integers(1, 8)), draw(st.integers(1, 8))
            tb, r = tb - alpha + beta, r + alpha + beta
            peaks.append((tb, r))
        genus = max(0, max(-(-(t + abs(q) + 1) // 2) for t, q in peaks))
        parts.append((L.make_range(knot_id, peaks, genus), count))
    return L.SumSpec.of(parts)
