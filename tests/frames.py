"""Orthogonal frame changes, normal rotations and direct sums of datasets,
shared by the tests.  None of them changes a verdict: a frame change is a
simultaneous orthogonal similarity, a normal rotation reparametrises the
normal sphere, and a direct sum of minimal, Willmore, spectrally constant
data is again all three.  Scaling keeps spectral constancy."""

from fractions import Fraction

from willmore.catalog import ShapeOperatorSet
from willmore.exactnum import QuadExt
from willmore.linalg import Matrix


def rational_inverse(m):
    """Gauss-Jordan inverse of a square list of Fractions."""
    n = len(m)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def cayley_frame(n, rng):
    """Rational orthogonal Q = (I - S)(I + S)^-1 for a random skew S."""
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            skew[i][j], skew[j][i] = v, -v
    minus = Matrix([[QuadExt(int(i == j) - skew[i][j]) for j in range(n)] for i in range(n)])
    plus = [[int(i == j) + skew[i][j] for j in range(n)] for i in range(n)]
    return minus @ Matrix([[QuadExt(v) for v in row] for row in rational_inverse(plus)])


def signed_permutation(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    return Matrix(
        [[QuadExt(rng.choice((1, -1)) if j == order[i] else 0) for j in range(n)] for i in range(n)]
    )


def change_frame(data, q):
    ops = tuple(q @ op @ q.transpose() for op in data.operators)
    return ShapeOperatorSet(data.name, data.n, data.p, ops, data.labels)


def rotate_normals(data, r):
    ops = []
    for a in range(data.p):
        acc = data.operators[0] * r[a, 0]
        for b in range(1, data.p):
            acc = acc + data.operators[b] * r[a, b]
        ops.append(acc)
    return ShapeOperatorSet(data.name, data.n, data.p, tuple(ops), data.labels)


def scaled(data, factor):
    ops = tuple(op * QuadExt(factor) for op in data.operators)
    return ShapeOperatorSet(data.name, data.n, data.p, ops, data.labels)


def direct_sum(first, second):
    n = first.n + second.n
    zero = QuadExt(0)
    ops = []
    for x, y in zip(first.operators, second.operators):
        rows = [list(row) + [zero] * second.n for row in x.rows]
        rows += [[zero] * first.n + list(row) for row in y.rows]
        ops.append(Matrix(rows))
    return ShapeOperatorSet("sum", n, first.p, tuple(ops), first.labels)
