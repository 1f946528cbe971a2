"""``sphere.norm`` of float32 data has the bits of the norm of its float64
upcast.

``run_merge`` decodes every source straight into a float64 row and reports
``norm_in`` from those rows, while the streaming merge before it took the
norm of the float32 values.  einsum widens float32 input through an
8192-element buffer and sums the float64 data unbuffered; the summaries
stay byte-identical only if both give the same bits.  The
squares of float32 values never overflow a float64 sum, so neither form
takes the rescaling path, even at float32's largest magnitudes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geomerge.sphere import norm

F32 = np.finfo(np.float32)
SPECIAL = np.array(
    [0.0, -0.0, F32.max, -F32.max, F32.smallest_subnormal, -F32.smallest_subnormal, F32.tiny],
    dtype=np.float32,
)
# n = 0 and 1, and lengths around einsum's 8192-element buffer
LENGTHS = [0, 1, 2, 8191, 8192, 8193, 16383, 16384, 16385, 3 * 8192 + 5]


def _same_bits(x: np.ndarray) -> None:
    got, want = norm(x), norm(x.astype(np.float64))
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x.size, got, want)


def _draw(seed: int, n: int, style: str) -> np.ndarray:
    """n finite float32 values of mixed sign; ``style`` picks the magnitudes."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], n)
    if style == "exponents":  # powers of ten over +-40, clamped to float32's range
        values = sign * rng.random(n) * 10.0 ** rng.uniform(-45.0, 38.5, n)
        values = np.clip(values, -F32.max, F32.max)
    elif style == "subnormal":
        values = sign * rng.integers(1, 1 << 23, n) * float(F32.smallest_subnormal)
    else:  # "huge": squares far beyond float32, near float32's largest value
        values = sign * F32.max * rng.uniform(0.5, 1.0, n)
    x = values.astype(np.float32)
    if n:
        x[rng.integers(0, n, min(n, 8))] = rng.choice(SPECIAL, min(n, 8))
    return x


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from(LENGTHS),
    style=st.sampled_from(["exponents", "subnormal", "huge"]),
)
def test_drawn_float32_norms_match_their_upcast(seed, n, style):
    _same_bits(_draw(seed, n, style))


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    arrays(
        np.float32,
        st.sampled_from([0, 1, 5, 8191, 8193]),
        elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
)
def test_any_finite_float32_norm_matches_its_upcast(x):
    _same_bits(x)


def test_the_specials_alone_and_repeated():
    for n in LENGTHS:
        _same_bits(np.resize(SPECIAL, n))
