"""The residue-word kernel of ``ovp.modfft``: its word remainder and its two
entry calls, a product and an inverse mod m.

The FFT kernel's own tests (limb plans, four-step layout, thread split,
traced peaks and the pinned pbar digests) run through ``Series`` in
``tests/test_qseries.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from ovp import modfft

MODULI = (5, 120, 65521, 2**31 - 1)


def _words(dtype) -> np.ndarray:
    """Random words of dtype over its whole range, with its edges; int64
    takes negative values, uint64 values past 2^63."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(info.bits)
    edges = [info.min, info.min + 1, info.max - 1, info.max, 0, 1]
    if dtype == np.int64:
        edges += [-1, -2, -5, -120, -65521, -(2**31 - 1), -(2**31)]
    if dtype == np.uint64:
        edges += [2**63 - 1, 2**63, 2**63 + 1]
    body = rng.integers(info.min, info.max, 4001, dtype=dtype, endpoint=True)
    return np.concatenate([np.array(edges, dtype=dtype), body])


@pytest.mark.parametrize("m", MODULI)
@pytest.mark.parametrize(
    "dtype", [np.uint8, np.uint16, np.uint64, np.int64], ids=lambda d: np.dtype(d).name
)
def test_remainder_is_numpys_remainder(dtype, m):
    # contiguous words, strided and reversed views of them; a modulus the
    # dtype cannot hold raises as ``%`` does
    words = _words(dtype)
    for view in (words, words[1::3], words[::-1]):
        before = view.copy()
        if m > np.iinfo(dtype).max:
            for op in (lambda: view % m, lambda: modfft.remainder(view, m)):
                with pytest.raises(OverflowError):
                    op()
            continue
        got, want = modfft.remainder(view, m), view % m
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert [int(x) for x in got[:13]] == [int(x) % m for x in view[:13]]
        assert np.array_equal(view, before)


@pytest.mark.parametrize("m, dtype", [(120, np.uint8), (65521, np.uint16), (2**31 - 1, np.int64)])
def test_product_and_inverse_return_the_callers_dtype(m, dtype):
    # operands of 3000 nonzero terms, against the product in Python ints
    rng = np.random.default_rng(m)
    n = 3000
    a, b = (rng.integers(1, m, n).astype(dtype) for _ in range(2))
    a[0] = 1
    want = np.convolve(a.astype(object), b.astype(object))[:n] % m
    got = modfft.product(a, b, n, n, m, dtype)
    assert got.dtype == dtype and got.tolist() == want.tolist()
    inverse = modfft.inverse(a, m, dtype)()
    assert inverse.dtype == dtype
    # numpy's counts, whose products would wrap in int64 inside the plan
    one = modfft.product(a, inverse, np.count_nonzero(a), np.count_nonzero(inverse), m, dtype)
    assert one[0] == 1 and not one[1:].any()
