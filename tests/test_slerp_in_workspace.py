"""slerp merges in the workspace, with the bits it had.

``merge_slerp`` normalizes its two rows in place by the norms it is given
and writes the geodesic point into ``out`` through ``sphere.slerp(out=)``,
which adds its second term one column block at a time.  These tests pin it
byte for byte, or by exception type and text, against
``oracles.slerp_direct`` (the merge as it was, with fresh unit vectors and
whole-vector products), in the plain form and in the ``out=``/``norms=``
form that ``run_merge`` uses.  One outcome differs: finite sources whose
norm is beyond float64's range, where the direct merge gives NaN entries,
are refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from geomerge.errors import AntipodalError, DegenerateError, NonFiniteError
from geomerge.merge_methods import METHODS, MergeMethod, merge_slerp
from geomerge.sphere import _ZERO_ANGLE, COLUMN_BLOCK, norm, slerp
from oracles import slerp_direct, unit_slerp_direct

T = (0.0, 0.3, 1.0)
SIZES = (1, 7, COLUMN_BLOCK + 3)


def _outcome(merge, a, b, t):
    """The result's bytes, or the exception's type and text.  Overflow and
    invalid operations are let through, as ``run_merge`` lets them."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return merge(a, b, t).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _in_workspace(a, b, t):
    """The call ``run_merge`` makes: rows of one float64 stack, their norms
    as ``merge_one`` takes them, and a separate ``out`` vector."""
    stack = np.stack([np.ravel(a), np.ravel(b)]).astype(np.float64)
    out = np.full(stack.shape[1], np.nan)
    got = merge_slerp(stack[0], stack[1], t, out=out, norms=[norm(row) for row in stack])
    assert got is out
    return got


def _pairs(n: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    huge = np.full(n, 1e308)
    huge[::2] = -1e308
    one_huge = np.where(np.arange(n) == 0, 1e308, a)
    return {
        "random": (a, b),
        "equal": (a, a.copy()),
        "scaled": (a, 2.0 * a),  # an angle of 0, below the smallest the solver moves by
        "near": (a, a + 1e-9 * b),
        "1e200": (1e200 * a, 1e200 * b),
        "1e308 entry": (one_huge, one_huge + b),
        # norms beyond float64's range: refused where slerp_direct gives NaN entries
        "1e308 entries": (huge, np.abs(huge)),
        "zero row": (a, np.zeros(n)),
        "nan row": (np.where(np.arange(n) == n // 2, np.nan, a), b),
        "antipodal": (a, -a),
    }


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("t", T)
def test_merge_slerp_matches_the_direct_merge(n, t):
    for case, (a, b) in _pairs(n).items():
        want = _outcome(slerp_direct, a, b, t)
        if case == "1e308 entries" and n > 1 and 0.0 < t < 1.0:
            want = (NonFiniteError, "source 0 has a norm beyond float64 range")
        before = (a.tobytes(), b.tobytes())
        assert _outcome(merge_slerp, a, b, t) == want, (case, n, t)
        assert (a.tobytes(), b.tobytes()) == before, case  # the plain form modifies neither
        assert _outcome(_in_workspace, a, b, t) == want, (case, n, t)


def test_the_pinned_cases_reach_every_branch():
    """The pairs above refuse in each of the three ways when 0 < t < 1, and
    the scaled pair takes the small-angle branch."""
    refusals = {
        case: _outcome(slerp_direct, a, b, 0.3)
        for case, (a, b) in _pairs(7).items()
        if case in ("zero row", "nan row", "antipodal")
    }
    assert {case: kind for case, (kind, _) in refusals.items()} == {
        "zero row": DegenerateError,
        "nan row": NonFiniteError,
        "antipodal": AntipodalError,
    }
    a, b = _pairs(7)["scaled"]
    u, v = a / norm(a), b / norm(b)
    assert np.arccos(np.clip(u @ v, -1.0, 1.0)) < _ZERO_ANGLE


def test_refusals_keep_their_order():
    """A NaN row is refused before a zero row, and a zero row before an
    antipodal pair, in either position."""
    a = np.array([1.0, 2.0, 3.0])
    nan, zero = np.array([1.0, np.nan, 0.0]), np.zeros(3)
    for pair in [(nan, zero), (zero, nan), (zero, -zero), (a, zero), (zero, a)]:
        assert _outcome(merge_slerp, *pair, 0.3) == _outcome(slerp_direct, *pair, 0.3)
        assert _outcome(_in_workspace, *pair, 0.3) == _outcome(slerp_direct, *pair, 0.3)


def test_a_norm_beyond_float64_is_refused_naming_its_source():
    """Finite entries whose norm is Inf are refused after a NaN row and
    before a zero row, naming the source."""
    huge, a = np.full(4, 1e308), np.ones(4)
    nan, zero = np.array([1.0, np.nan, 0.0, 0.0]), np.zeros(4)
    beyond = "has a norm beyond float64 range"
    cases = [
        ((huge, a), (NonFiniteError, f"source 0 {beyond}")),
        ((a, huge), (NonFiniteError, f"source 1 {beyond}")),
        ((zero, huge), (NonFiniteError, f"source 1 {beyond}")),
        ((huge, nan), (NonFiniteError, "cannot normalize a vector with NaN/Inf entries")),
    ]
    for pair, want in cases:
        assert _outcome(merge_slerp, *pair, 0.3) == want
        assert _outcome(_in_workspace, *pair, 0.3) == want


def test_a_negative_zero_entry_keeps_its_sign():
    a = np.array([1.0, -0.0, 2.0])
    b = np.array([1.5, -0.0, 2.5])
    want = slerp_direct(a, b, 0.3)
    assert want[1] == 0.0 and np.signbit(want[1])
    assert merge_slerp(a, b, 0.3).tobytes() == want.tobytes()
    assert _in_workspace(a, b, 0.3).tobytes() == want.tobytes()


@pytest.mark.parametrize("t", T)
def test_lists_and_narrow_dtypes_are_widened_first(t):
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 2, 5)).astype(np.float32)
    want = slerp_direct(a, b, t).tobytes()
    assert merge_slerp(a, b, t).tobytes() == want
    assert merge_slerp(a.tolist(), b.tolist(), t).tobytes() == want


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("t", (0.0, 0.3, 0.999, 1.0))
def test_unit_slerp_into_out_matches_the_whole_vector_form(n, t):
    rng = np.random.default_rng(n + 1)
    p, q = rng.standard_normal((2, n))
    p /= norm(p)
    q /= norm(q)
    for u, v in [(p, q), (p, p.copy()), (p, -p)]:
        before = (u.tobytes(), v.tobytes())
        want = _outcome(unit_slerp_direct, u, v, t)
        assert _outcome(slerp, u, v, t) == want
        assert _outcome(lambda x, y, s: slerp(x, y, s, out=np.empty(n)), u, v, t) == want
        assert (u.tobytes(), v.tobytes()) == before


def test_the_registry_passes_the_workspace_to_slerp():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((2, 9))
    want = slerp_direct(stack[0], stack[1], 0.3)
    method = MergeMethod("slerp", {"t": 0.3})
    out = np.empty(9)
    merged, stats = METHODS["slerp"].rule(
        method.param, "x", stack, None, np.array([0.5, 0.5]), out=out,
        norms=[norm(row) for row in stack],
    )
    assert merged is out and stats is None
    assert merged.tobytes() == want.tobytes()
