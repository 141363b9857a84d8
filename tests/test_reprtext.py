"""The array kernels behind the trace writer: the same text as ``repr``.

``float_cells`` and ``int_cells`` must give, for every value, exactly the
text of ``repr``.  The random bit patterns are new on each run; a failure
names the seed that drew them.
"""

import numpy as np

from sgident.reprtext import float_cells, int_cells


def _texts(cells):
    """Each cell's text: every cell ends in "," and no text holds one."""
    chars, valid = cells
    return np.compress(valid.ravel(), chars.ravel()).tobytes().decode().split(",")[:-1]


def _assert_reprs(values, context=""):
    values = np.asarray(values, dtype=np.float64)
    got = _texts(float_cells(values))
    want = [repr(v) for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, f"{context}{len(bad)} differ, first (repr, got): {bad[:5]}"


def test_random_bit_patterns():
    seed = np.random.SeedSequence().entropy
    bits = np.random.default_rng(seed).integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True)
    _assert_reprs(bits.view(np.float64), f"seed {seed}: ")


def test_every_power_of_two_and_its_negative():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_reprs(np.concatenate([powers, -powers]))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    _assert_reprs(np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), -tens]))


def test_zeros_nans_and_infinities():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    _assert_reprs(np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans]))
    assert _texts(float_cells(np.array([-0.0, -np.nan, -np.inf]))) == ["-0.0", "nan", "-inf"]


def test_subnormals_and_extremes():
    rng = np.random.default_rng(11)
    subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
    edges = [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, np.nextafter(1.7976931348623157e308, 0.0)]
    _assert_reprs(np.concatenate([subnormal, edges, -np.asarray(edges)]))


def test_integers_up_to_two_to_the_63():
    rng = np.random.default_rng(12)
    ints = rng.integers(-2**63, 2**63 - 1, 20_000, dtype=np.int64).astype(np.float64)
    small = np.arange(-2000, 2001, dtype=np.float64)
    near = np.array([2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e15, 1e16 - 2, 1e16, 2.0**63, 123456789012345678.0])
    _assert_reprs(np.concatenate([ints, small, near, -near]))


def test_fixed_and_scientific_boundaries_and_three_digit_exponents():
    rng = np.random.default_rng(13)
    mantissas = rng.uniform(1.0, 10.0, 200)
    exponents = np.concatenate([np.arange(-8, 20), np.arange(95, 105), np.arange(-105, -95),
                                np.arange(295, 308), np.arange(-310, -295)])
    values = (mantissas[:, None] * 10.0 ** exponents[None, :].astype(np.float64)).ravel()
    _assert_reprs(np.concatenate([values, -values, [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0]]))


def test_any_shape_is_rendered_in_c_order():
    x = np.arange(12.0).reshape(3, 4) / 7.0
    assert _texts(float_cells(x)) == [repr(v) for v in x.ravel().tolist()]


def test_int_cells_match_repr():
    rng = np.random.default_rng(14)
    edges = [9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1, -(2**63)]
    k = np.concatenate([rng.integers(-2**63, 2**63 - 1, 20_000, dtype=np.int64),
                        np.arange(-1100, 1100), np.array(edges, dtype=np.int64)])
    assert _texts(int_cells(k)) == [repr(v) for v in k.tolist()]
