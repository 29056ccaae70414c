"""Dataset files at the edges of the sweep's bounds, shared by the tests.  CI
builds each of them with the same one-line generator."""

# one dense 8 x 8 block in 6 operators with entries -1, 0, 1, as built in CI
DENSE_8_BY_8 = "dataset dense\ndim 8\ncodim 6\n" + "".join(
    f"operator B{a}\n" + "".join(" ".join(str(pow(i + j + a, 3, 7) % 3 - 1) for j in range(8)) + "\n" for i in range(8))
    for a in range(1, 7)
)

# n = p = 9, one 1 x 1 block per row, each a linear form in the nine normal
# directions (1.6 KB): their product holds 47,232 terms
DIAGONAL_9 = "dataset diagonal\ndim 9\ncodim 9\n" + "".join(
    f"operator B{a}\n" + "".join(" ".join(str((7 * i + 3 * a) % 5 - 2) if j == i else "0" for j in range(9)) + "\n"
                                  for i in range(9))
    for a in range(1, 10)
)

# n = 22, p = 5, as built in CI (5.1 KB): eleven 1 x 1 blocks, each a linear
# form in the five directions, and one dense 11 x 11 block with entries -1, 0,
# 1.  The blocks are under the work bound; the partial product of the eleven
# small ones has 4,282 terms and the dense block 4,359, 19 million pairs
STEPS_22 = "dataset steps\ndim 22\ncodim 5\n" + "".join(
    f"operator B{a}\n" + "".join(" ".join(str(
        pow(i * j + (i + j) * a + a, 7, 23) % 3 - 1 if min(i, j) > 10
        else (i * a * a + 3 * i + a) % 11 - 5 if i == j else 0
    ) for j in range(22)) + "\n" for i in range(22))
    for a in range(1, 6)
)


def dense_file(n, p):
    """One dense n x n block in p operators with entries -1 and 1, as built in
    CI for n = 40, p = 2."""
    return f"dataset dense\ndim {n}\ncodim {p}\n" + "".join(
        f"operator B{a}\n" + "".join(" ".join(str(1 - 2 * (pow(i * j + (i + j) * a, 7, 23) % 2)) for j in range(n)) + "\n"
                                      for i in range(n))
        for a in range(1, p + 1)
    )

