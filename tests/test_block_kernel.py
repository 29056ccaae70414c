"""The packed block kernel of `willmore.sweep` against the loop kernel it
replaced (`block_kernel_reference`), exactly: every term and every
denominator.  A digit width one bit short corrupts entries without a sign,
so the blocks drive the parts of their entries to 2^64 - 1, with mixed
signs and sqrt3 parts, zero rows and zero operators; one test puts a part
of the pair product exactly at its bound, on a 64-bit edge, one puts the
Frobenius step's cross digit there, and one reads back packed rows whose
x digits are all at the edge of their width by the codec of `linalg.width`."""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import block_kernel_reference as reference
from willmore import sweep
from willmore.catalog import parse_dataset
from willmore.linalg import forms, lower_pair_products, lower_triangle, split

EDGE = 2**64 - 1


def sparse_rows(dense):
    """The integer-pair rows of a dense matrix of (x, y) pairs."""
    return [[(j, x, y) for j, (x, y) in enumerate(row) if x or y] for row in dense]


def block(n, p, entry, den=1):
    """The block of p symmetric n x n operators with entry(a, i, j) at (i, j), i <= j."""
    ops = []
    for a in range(p):
        dense = [[(0, 0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                dense[i][j] = dense[j][i] = entry(a, i, j)
        ops.append(sparse_rows(dense))
    return ops, den, n, n + 1


@st.composite
def blocks(draw):
    """Blocks of n <= 7 and p <= 4, dense or sparse, whose parts reach +-(2^64 - 1)."""
    n, p = draw(st.integers(1, 7), label="n"), draw(st.integers(1, 4), label="p")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    zero_rows = set(rng.sample(range(n), min(max(n - 2, 0), rng.choice((0, 0, 1, 2)))))
    zero_ops = set(rng.sample(range(p), rng.choice((0, 0, 1, p - 1))))
    density = rng.choice((0.5, 0.8, 1.0))

    def entry(a, i, j):
        if a in zero_ops or i in zero_rows or j in zero_rows or rng.random() > density:
            return 0, 0
        return tuple(rng.choice((0, 1, -1, EDGE, -EDGE, 2**63, -(2**63), rng.randint(-EDGE, EDGE))) for _ in "xy")

    return block(n, p, entry, rng.randint(1, 12))


def alternating(n, p, magnitude):
    """Every part of every entry +-magnitude, the sign alternating with i + j + a."""
    return block(n, p, lambda a, i, j: ((-1) ** (i + j + a) * magnitude,) * 2)


def full_rank(n):
    """A symmetric +-1 block at p = 1 from random.Random(0)."""
    rng = random.Random(0)
    signs = {(i, j): rng.choice((-1, 1)) for i in range(n) for j in range(i, n)}
    return block(n, 1, lambda a, i, j: (signs[i, j], 0))


def frobenius_edge():
    """A1 = A2 = T (1 + sqrt3) S, S a symmetric +-1 matrix of rank 2 at n = 3.

    Only A^1 = t1 A1 + t2 A2 is read (rho = 2), M = 2 monomials of largest
    part T, so the bound 2 M n^2 T^2 = 36 T^2 fixes v.  At t1 t2, S_2 has the
    one unordered pair (t1, t2), doubled, whose cross digit is
    2 sum_t w_t (x1 y2 + y1 x2) = 2 n^2 2 T^2 = 36 T^2: the bound itself,
    64 bits long.  A^2 is still formed for the rank, a pair product with
    sqrt3 parts."""
    t = 2**32 // 6
    assert (36 * t * t).bit_length() == 64 and 36 * t * t >= 2**63
    s = [[1, 1, 1], [1, 1, 1], [1, 1, -1]]
    return block(3, 2, lambda a, i, j: (t * s[i][j],) * 2)


def dense14():
    data = parse_dataset((Path(__file__).parent / "data" / "dense14_p3.dat").read_text(encoding="utf-8"))
    ops, den = data.integer_form
    return [list(map(list, rows)) for rows in ops], den, data.n, data.n + 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blocks())
@example(alternating(7, 2, EDGE))
# 12 t^2, the parts of A^2 at t = 2^62, are the bound r max|A| with 128 bits: a second word
@example(alternating(3, 1, 2**62))
@example(full_rank(24))
@example(frobenius_edge())
def test_the_packed_kernel_equals_the_loop_kernel(case):
    assert sweep._block_char_poly(*case) == reference._block_char_poly(*case)


def test_a_frobenius_cross_digit_at_its_bound_reads_back_exactly():
    case = frobenius_edge()
    t = 2**32 // 6
    poly = sweep._block_char_poly(*case)
    assert poly == reference._block_char_poly(*case)
    # rho = 2: lambda^0 is zero, then E_2 / 2 and -E_1; t1 and t2 are the packed monomials 1 and 4
    [zero, (e2, two), (e1, minus_one), _] = poly
    assert (zero, two, minus_one) == (([], 1), 2, -1)
    # S_1 = E_1 = T (1 + sqrt3) (t1 + t2), and S_2 = S_1^2 - E_2 has at t1 t2 the cross digit 36 T^2 in sqrt3
    assert sorted(e1) == [(1, t, t), (4, t, t)]
    assert [(x, y) for m, x, y in e2 if m == 5] == [(8 * t * t - 72 * t * t, 4 * t * t - 36 * t * t)]


@pytest.mark.parametrize("words", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_q_form_of_a_row_with_x_digits_at_the_edge(n, sign, words):
    # P = X + Y 2^(nW) with every x digit +-(2^(W-1) - 1) and y digits over their whole range
    width = 64 * words
    xs = [sign * (2 ** (width - 1) - 1)] * n
    ys = [2 ** (width - 1) - 1 if l % 2 else -(2 ** (width - 1)) for l in range(n)]
    x, y = (sum(d << width * l for l, d in enumerate(ds)) for ds in (xs, ys))
    p = x + (y << width * n)
    # the codec's multi-place split reads X and Y back from P, and Q is rebuilt from them
    assert split([p], width * n, n) == ([x], [y])
    assert [[*form] for form in forms([x], [y], width * n)] == [[p], [3 * y + (x << width * n)]]


def test_the_packed_kernel_on_dense14_p3():
    case = dense14()
    assert sweep._block_char_poly(*case) == reference._block_char_poly(*case)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_part_at_its_bound_reads_back_exactly(n, sign):
    # every entry of L is sign (1 + sqrt3) and every entry of R is t (1 + sqrt3): r = 4n, and each
    # x part of L R is sign 4n t = +-r t, of 64 bits, so that its digit takes a second word
    t = EDGE // (4 * n)
    l_rows = [[(k, sign, sign) for k in range(n)] for _ in range(n)]
    r_rows = [[(k, t, t) for k in range(n)] for _ in range(n)]
    assert (4 * n * t).bit_length() == 64
    [(xs, ys)], _ = lower_pair_products([l_rows], {0: lower_triangle(r_rows, n)}, [[(0, 0)]], n)
    size = n * (n + 1) // 2
    assert (xs, ys) == ([sign * 4 * n * t] * size, [sign * 2 * n * t] * size)
    expected = reference.lower_pair_products([(l_rows, r_rows)], n)
    assert xs == [expected[0][i][l] for i in range(n) for l in range(i + 1)]


@pytest.mark.parametrize("op_den", [1, 6])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_zero_block_is_lambda_to_the_n_with_every_empty_coefficient_over_1(n, p, op_den):
    # no active operator: rank 0 at once, whatever n, so no Newton step runs
    case = [[[] for _ in range(n)] for _ in range(p)], op_den, n, n + 1
    assert sweep._block_char_poly(*case) == reference._block_char_poly(*case) == [([], 1)] * n + [([(0, 1, 0)], 1)]
