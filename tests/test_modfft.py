"""The residue-word kernel of ``ovp.modfft``: its word remainder, its two
entry calls, a product and an inverse mod m, and what an inverse costs:
its Newton steps, limb plans and transforms, counted by spies.

The FFT kernel's own tests (limb plans, four-step layout, thread split,
traced peaks and the pinned pbar digests) run through ``Series`` in
``tests/test_qseries.py``.
"""

from __future__ import annotations

import math

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


PBAR_FIRST_11 = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232]


@pytest.fixture
def kernel_cost(monkeypatch) -> dict:
    """What the kernel does while the test runs: every (w, counts) that
    ``_limb_plan`` returns, the spectra that ``_FourStep.forward`` fills, the
    sizes of the forward transforms that run on held columns only (a sparse
    load), and the ``_FourStep.inverse`` calls."""
    cost = {"plans": [], "spectra": 0, "held": [], "inverses": 0}
    plan, forward, inverse = modfft._limb_plan, modfft._FourStep.forward, modfft._FourStep.inverse

    def spy_plan(*args):
        cost["plans"].append(plan(*args))
        return cost["plans"][-1]

    def spy_forward(self, specs, rows, load, held=None):
        cost["spectra"] += len(specs)
        if held is not None:
            cost["held"].append(self.size)
        return forward(self, specs, rows, load, held)

    def spy_inverse(self, *args):
        cost["inverses"] += 1
        return inverse(self, *args)

    monkeypatch.setattr(modfft, "_limb_plan", spy_plan)
    monkeypatch.setattr(modfft._FourStep, "forward", spy_forward)
    monkeypatch.setattr(modfft._FourStep, "inverse", spy_inverse)
    return cost


@pytest.mark.parametrize(
    "m, dtype, T, steps, spectra, inverses, last_plan",
    [
        # one limb each: three spectra and two inverse transforms a step
        (120, np.uint8, 10**6 + 1, 20, 60, 40, (7, [1, 1, 1])),
        # g and e take two limbs of 15 bits, at the width where a bound of
        # one more bit per residue would take three
        (998244353, np.int64, 1 << 14, 14, 70, 70, (15, [2, 1, 2])),
    ],
)
def test_inverse_of_phi_minus_costs_pinned_transforms(
    kernel_cost, m, dtype, T, steps, spectra, inverses, last_plan
):
    # one plan per Newton step, and the transforms they run, for 1 / phi(-q)
    f = np.zeros(T, dtype=dtype)
    k = np.arange(1, math.isqrt(T - 1) + 1)
    f[k * k] = np.where(k % 2, m - 2, 2)
    f[0] = 1
    g = modfft.inverse(f, m, dtype)()
    assert g[:11].tolist() == [v % m for v in PBAR_FIRST_11]
    assert len(kernel_cost["plans"]) == steps and kernel_cost["plans"][-1] == last_plan
    assert (kernel_cost["spectra"], kernel_cost["inverses"]) == (spectra, inverses)


@pytest.mark.parametrize("extra", (0, 1))
def test_sparse_load_takes_at_most_four_isqrt_nonzeros(kernel_cost, extra):
    # T = 2^17: the last two steps, to k2 = 2^16 and 2^17, are four-step
    # transforms.  f has 1 nonzero below 2^16 and 4 isqrt(2^17) + extra
    # below 2^17, so only with extra = 0 does the last step load its terms.
    m, T = 120, 1 << 17
    rng = np.random.default_rng(17)
    f = np.zeros(T, dtype=np.uint8)
    f[0] = 1
    at = rng.choice(np.arange(T // 2, T), 4 * math.isqrt(T) + extra - 1, replace=False)
    f[at] = rng.integers(1, m, len(at))
    g = modfft.inverse(f, m, np.uint8)()
    assert kernel_cost["held"] == ([1 << 16, T] if extra == 0 else [1 << 16])
    one = modfft.product(f, g, np.count_nonzero(f), np.count_nonzero(g), m, np.uint8)
    assert one[0] == 1 and not one[1:].any()
