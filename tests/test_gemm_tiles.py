"""The GEMM rule's stacked tiles against the tile loop they replaced.

`mlp.matmul` hands each region of equal tiles to numpy as one stacked
`np.matmul`, and adds a small stack of k chunks with one `np.add.reduce`.
`loop_matmul` below is the rule as one Python-level call per tile and k
chunk, the chunks added in order; every product must match it byte for
byte: the conv stack's and the head's products, C and F order, float32
and float64, and a `hypothesis` sample of shapes around the slab.

`python tests/test_gemm_tiles.py [n]` runs the property on n random
products (default 2000); tier-1 runs a fixed sample of it.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taanseg.mlp import GEMM_SLAB, matmul


def loop_matmul(a, b):
    """The GEMM rule with one np.matmul per tile and k chunk."""
    if a.size * b.shape[1] <= GEMM_SLAB:
        return np.matmul(a, b)
    a2 = np.atleast_2d(a)
    (m, k), n = a2.shape, b.shape[1]
    tile, room = [m, n, k], GEMM_SLAB
    for done, d in enumerate(sorted(range(3), key=tile.__getitem__)):
        if tile[d] * 16 ** (2 - done) > room:
            tile[d] = room // 16 ** (2 - done) // 16 * 16
        room //= tile[d]
    tm, tn, tk = tile
    out = np.empty((m, n), dtype=np.result_type(a, b))
    for i in range(0, m, tm):
        for j in range(0, n, tn):
            o = out[i : i + tm, j : j + tn]
            np.matmul(a2[i : i + tm, :tk], b[:tk, j : j + tn], out=o)
            for s in range(tk, k, tk):
                o += np.matmul(a2[i : i + tm, s : s + tk],
                               b[s : s + tk, j : j + tn])
    return out if a.ndim == 2 else out[0]


def operands(rng, a_shape, b_shape, dtype, order, b_transposed=False):
    """a and b of the given shapes in `order` memory, b optionally a
    transposed view as `cols.T` is; magnitudes spread over 8 decades so
    that the order of every addition shows in the last bits."""
    def draw(shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
        return np.asarray(x, dtype=dtype, order=order)

    b = draw(b_shape[::-1]).T if b_transposed else draw(b_shape)
    return draw(a_shape), b


def assert_same_bytes(a, b):
    got, want = matmul(a, b), loop_matmul(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# (a, b, b a transposed view); the conv shapes are FORWARD_BLOCK patches,
# or 7 in the odd last block, whose conv2 columns are padded 5880 -> 5888
PRODUCTS = {
    "conv1 forward": ((10, 49), (49, 30976), False),
    "conv1 weight gradient": ((10, 30976), (30976, 49), True),
    "conv2 forward": ((10, 90), (90, 6720), False),
    "conv2 weight gradient": ((10, 6720), (6720, 90), True),
    "conv2 input gradient": ((10, 90), (90, 7744), False),
    "conv2 odd block forward": ((10, 90), (90, 5888), False),
    "conv2 odd block weight gradient": ((10, 5888), (5888, 90), True),
    "head forward": ((32, 2100), (2100, 300), False),
    "head gradient": ((2100, 32), (32, 300), False),
    "whole-set inference": ((599, 2100), (2100, 300), False),
    "bias fold": ((2100,), (2100, 300), False),
    "bias fold as a row": ((1, 2100), (2100, 300), False),
    "one output element": ((1, GEMM_SLAB + 40), (GEMM_SLAB + 40, 1), False),
    "one output element from a vector": ((3 * GEMM_SLAB,),
                                         (3 * GEMM_SLAB, 1), False),
    "k just over a chunk": ((16, 1025), (1025, 16), False),
    "k chunks of 16 over a 2x2 tile": ((2, 70000), (70000, 2), False),
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_matches_the_loop(name, dtype, order):
    a_shape, b_shape, transposed = PRODUCTS[name]
    rng = np.random.default_rng(len(name))
    assert_same_bytes(*operands(rng, a_shape, b_shape, dtype, order,
                                transposed))


def test_zero_sums_keep_their_sign():
    # rows of -0.0 and 0.0 against positive and negative columns: every
    # product and chunk sum is a signed zero, added from -0.0 in order
    a = np.full((4, 70000), -0.0)
    a[1] = 0.0
    b = np.abs(np.random.default_rng(1).normal(size=(70000, 3)))
    b[:, 1] *= -1.0
    assert_same_bytes(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_element_tiles_add_in_order(dtype):
    # ten k chunks of a one-element tile, summing to 1 and to nine values of
    # 0.3 ulp: in order each leaves the 1 as it is, while np.add.reduce
    # would sum them pairwise, to 2.7 ulp first
    a = np.zeros(10 * GEMM_SLAB, dtype=dtype)
    a[::GEMM_SLAB] = [1.0] + [0.3 * np.finfo(dtype).eps] * 9
    b = np.ones((len(a), 1), dtype=dtype)
    assert matmul(a, b)[0] == 1.0
    assert_same_bytes(a, b)


def test_a_stack_of_k_chunks_is_capped():
    # the head's forward product has 131 k chunks of 32 x 300, 10 MB as one
    # stack; a stack holds at most GEMM_SLAB elements, so the chunks loop
    rng = np.random.default_rng(2)
    a, b = operands(rng, (32, 2100), (2100, 300), np.float64, "C")
    tracemalloc.start()
    try:
        out = matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * GEMM_SLAB


def _peak(fn, *args, **kwargs):
    """fn's result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("a_shape", [(599, 2100), (2100,), (32, 3)])
def test_a_product_writes_into_out(a_shape):
    # a tiled product (the CNN head on a whole concert, or a vector) and a
    # small one put their result straight into out: the peak is that of a
    # product without out, less the out-sized array it allocates
    rng = np.random.default_rng(3)
    a, b = operands(rng, a_shape, (a_shape[-1], 300), np.float64, "C")
    out = np.full(a_shape[:-1] + (300,), np.nan)
    got, peak = _peak(matmul, a, b, out=out)
    assert got is out and out.tobytes() == loop_matmul(a, b).tobytes()
    assert peak + out.nbytes <= _peak(matmul, a, b)[1] + 4096


DIM = st.one_of(st.integers(1, 20), st.integers(1, 700))


@st.composite
def tiled_products(draw):
    """a and b of a product around GEMM_SLAB m*n*k, at most 2e6 elements
    together: a vector or a matrix, either order, float32 or float64,
    some of their entries zero or -0.0."""
    m, n = draw(DIM), draw(DIM)
    cap = 2_000_000 // (m + n)
    k_slab = min(GEMM_SLAB // (m * n), cap)
    k = draw(st.integers(max(1, k_slab - 1), max(1, min(cap, 4 * k_slab + 64))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vector = m == 1 and draw(st.booleans())
    a, b = operands(rng, (k,) if vector else (m, k), (k, n),
                    draw(st.sampled_from([np.float32, np.float64])),
                    draw(st.sampled_from("CF")), draw(st.booleans()))
    for x in (a, b):
        x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.3]))] = -0.0
    return a, b


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(product=tiled_products())
def test_tiles_match_the_loop(product):
    assert_same_bytes(*product)


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    settings(max_examples=n, deadline=None, database=None)(
        given(product=tiled_products())(
            lambda product: assert_same_bytes(*product)))()
    print(f"GEMM rule: {n} products match the tile loop byte for byte")
