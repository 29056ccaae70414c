"""Seeded inputs for the willmore benchmark, built and checked exactly.

Everything here is independent of the program under test except for the
four built-in datasets, which are read through the public `willmore.builtin`
API.  Numbers in Q(sqrt3) are pairs (a, b) of Fractions meaning a + b*sqrt3;
an operator is a pair (Ma, Mb) of rational matrices meaning Ma + sqrt3*Mb.
Every transformation used (orthogonal frame changes, orthogonal normal
rotations, direct sums) preserves minimality, the Willmore condition,
non-Einstein-ness and spectral invariance, so each request's expected verdict
follows from how its input was built, never from the program's output.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

ZERO = Fraction(0)
ONE = Fraction(1)

WORKLOADS = ("sparse", "dense", "trace")


class GeneratorError(ValueError):
    """A generated input failed its exact self-check."""


# rational matrices -------------------------------------------------------


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(x, y):
    """Rational matrix product that skips zero entries."""
    ncols = len(y[0])
    out = []
    for row in x:
        acc = [ZERO] * ncols
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(y[k]):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def inverse(m):
    """Exact Gauss-Jordan inverse; the callers only pass invertible matrices."""
    n = len(m)
    work = [list(row) + ident for row, ident in zip(m, identity(n))]
    for c in range(n):
        pivot = next(r for r in range(c, n) if work[r][c])
        work[c], work[pivot] = work[pivot], work[c]
        scale = 1 / work[c][c]
        work[c] = [v * scale for v in work[c]]
        for r in range(n):
            factor = work[r][c]
            if r != c and factor:
                work[r] = [v - factor * w for v, w in zip(work[r], work[c])]
    return [row[n:] for row in work]


def check_orthogonal(q, what: str) -> None:
    if matmul(transpose(q), q) != identity(len(q)):
        raise GeneratorError(f"{what}: Q^T Q != I")


def signed_permutation(n: int, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    q = [[ZERO] * n for _ in range(n)]
    for col, row in enumerate(perm):
        q[row][col] = rng.choice((ONE, -ONE))
    check_orthogonal(q, "signed permutation")
    return q


def cayley_frame(n: int, rng: random.Random):
    """Q = (I - S)(I + S)^-1 for a dense seeded rational skew S; Q^T Q = I.

    The entries of S above the diagonal are +-1 and +-1/2, which keep the
    frame entries (and so the conjugated operators) at tens of bits.  Half of
    them, rounded down, are +-1; the seed picks which, and the signs.  A free
    choice per entry made one seed's symbolic sweep of g6_m2_M2 cost up to
    30 % more than another's; a fixed count halves that spread.  With n = 2
    the one entry is +-1/2, since +-1 would give a signed permutation."""
    upper = n * (n - 1) // 2
    denominators = [1] * (upper // 2) + [2] * (upper - upper // 2)
    rng.shuffle(denominators)
    s = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = Fraction(rng.choice((1, -1)), denominators.pop())
            s[i][j] = value
            s[j][i] = -value
    ident = identity(n)
    plus = [[a + b for a, b in zip(r, t)] for r, t in zip(ident, s)]
    minus = [[a - b for a, b in zip(r, t)] for r, t in zip(ident, s)]
    q = matmul(minus, inverse(plus))
    check_orthogonal(q, "Cayley frame")
    return q


# datasets ----------------------------------------------------------------


class Dataset:
    """p symmetric operators (Ma, Mb) over Q(sqrt3), with labels."""

    def __init__(self, name: str, labels, ops) -> None:
        self.name = name
        self.labels = tuple(labels)
        self.ops = list(ops)

    @property
    def n(self) -> int:
        return len(self.ops[0][0])

    @property
    def p(self) -> int:
        return len(self.ops)


def from_builtin(willmore, name: str) -> Dataset:
    data = willmore.builtin(name)
    ops = []
    for op in data.operators:
        ops.append((
            [[Fraction(e.a) for e in row] for row in op.rows],
            [[Fraction(e.b) for e in row] for row in op.rows],
        ))
    return Dataset(name, data.labels, ops)


def change_frame(data: Dataset, q, name: str) -> Dataset:
    """Q^T A_a Q for every operator; Q is rational orthogonal."""
    qt = transpose(q)
    ops = [(matmul(matmul(qt, ma), q), matmul(matmul(qt, mb), q)) for ma, mb in data.ops]
    return Dataset(name, data.labels, ops)


def rotate_normals(data: Dataset, r, name: str) -> Dataset:
    """A'_a = sum_b r[b][a] A_b for a rational orthogonal p x p matrix r."""
    check_orthogonal(r, "normal rotation")
    n, p = data.n, data.p
    ops = []
    for a in range(p):
        ma = [[ZERO] * n for _ in range(n)]
        mb = [[ZERO] * n for _ in range(n)]
        for b in range(p):
            c = r[b][a]
            if not c:
                continue
            xa, xb = data.ops[b]
            for i in range(n):
                for j in range(n):
                    ma[i][j] += c * xa[i][j]
                    mb[i][j] += c * xb[i][j]
        ops.append((ma, mb))
    return Dataset(name, [f"B{a + 1}" for a in range(p)], ops)


def direct_sum(parts: list[Dataset], name: str) -> Dataset:
    """diag(A_a, A'_a, ...) of datasets sharing p, checked block by block."""
    p = parts[0].p
    if any(d.p != p for d in parts):
        raise GeneratorError("direct sum of datasets with different p")
    n = sum(d.n for d in parts)
    ops = []
    for a in range(p):
        ma = [[ZERO] * n for _ in range(n)]
        mb = [[ZERO] * n for _ in range(n)]
        off = 0
        for d in parts:
            xa, xb = d.ops[a]
            for i in range(d.n):
                ma[off + i][off:off + d.n] = xa[i]
                mb[off + i][off:off + d.n] = xb[i]
            off += d.n
        ops.append((ma, mb))
    out = Dataset(name, parts[0].labels, ops)
    _check_blocks(out, parts)
    return out


def _check_blocks(data: Dataset, parts: list[Dataset]) -> None:
    starts = []
    off = 0
    for d in parts:
        starts.append((off, off + d.n, d))
        off += d.n
    for a, (ma, mb) in enumerate(data.ops):
        for lo, hi, d in starts:
            for i in range(lo, hi):
                for m, part in ((ma, d.ops[a][0]), (mb, d.ops[a][1])):
                    row = m[i]
                    if row[lo:hi] != part[i - lo] or any(row[:lo]) or any(row[hi:]):
                        raise GeneratorError(f"{data.name}: operator {a} does not have the declared blocks")


def check_dataset(data: Dataset) -> None:
    """Exact: every operator symmetric and trace-free."""
    for label, (ma, mb) in zip(data.labels, data.ops):
        for m in (ma, mb):
            if m != transpose(m):
                raise GeneratorError(f"{data.name}: operator {label} is not symmetric")
            if sum(m[i][i] for i in range(len(m))):
                raise GeneratorError(f"{data.name}: operator {label} is not trace-free")


def square_norm(data: Dataset) -> tuple[Fraction, Fraction]:
    """sum_a Tr(A_a^2) = sum of squared entries, as a + b*sqrt3."""
    a = b = ZERO
    for ma, mb in data.ops:
        for ra, rb in zip(ma, mb):
            for x, y in zip(ra, rb):
                a += x * x + 3 * y * y
                b += 2 * x * y
    return a, b


def format_scalar(a: Fraction, b: Fraction = ZERO) -> str:
    """The dataset scalar grammar: r, r*sqrt3, sqrt3, or r+r*sqrt3."""
    if not b:
        return str(a)
    mag = "sqrt3" if abs(b) == 1 else f"{abs(b)}*sqrt3"
    if not a:
        return mag if b > 0 else f"-{mag}"
    return f"{a}+{mag}" if b > 0 else f"{a}-{mag}"


def dataset_text(data: Dataset) -> str:
    lines = [f"dataset {data.name}", f"dim {data.n}", f"codim {data.p}"]
    for label, (ma, mb) in zip(data.labels, data.ops):
        lines.append(f"operator {label}")
        for ra, rb in zip(ma, mb):
            lines.append(" ".join(format_scalar(x, y) for x, y in zip(ra, rb)))
    return "\n".join(lines) + "\n"


def entries(data: Dataset) -> list[str]:
    return [
        format_scalar(x, y)
        for ma, mb in data.ops
        for ra, rb in zip(ma, mb)
        for x, y in zip(ra, rb)
    ]


# requests ------------------------------------------------------------------

NUMERIC_SAMPLES = 300

VERIFY_PASS_LINES = (
    "verdict: pass",  # minimality
    "verdict: pass",  # willmore
    "ricci_form_verdict: pass",
    "consistency: pass",
    "antisymmetry: pass",
    "pair_symmetry: pass",
    "bianchi: pass",
    "contraction: pass",
    "proportional: no",
    "verified: yes",
)


def _request(cmd: str, argv: list[str], code: int, lines, forbidden=()) -> dict:
    return {"cmd": cmd, "argv": argv, "exit": code, "lines": list(lines), "forbidden": list(forbidden)}


def dataset_requests(data: Dataset, target: str, commands, rng: random.Random) -> list[dict]:
    """Requests on one dataset (file path or built-in name); all must pass."""
    out = []
    norm = format_scalar(*square_norm(data))
    for cmd in commands:
        if cmd == "verify":
            lines = [f"dataset: {data.name}", f"n: {data.n}", f"p: {data.p}", f"value: {norm}"]
            out.append(_request(cmd, ["verify", target], 0, lines + list(VERIFY_PASS_LINES)))
        elif cmd == "symbolic":
            lines = [f"dataset: {data.name}", "mode: symbolic", "verdict: pass"]
            out.append(_request(cmd, ["sweep", target, "--mode", "symbolic"], 0, lines, ["constant: no"]))
        elif cmd == "numeric":
            seed = rng.randrange(1 << 16)
            argv = ["sweep", target, "--mode", "numeric", "--samples", str(NUMERIC_SAMPLES), "--seed", str(seed)]
            lines = [f"dataset: {data.name}", "mode: numeric", f"samples: {NUMERIC_SAMPLES}",
                     f"seed: {seed}", "verdict: pass"]
            out.append(_request(cmd, argv, 0, lines))
        else:
            raise ValueError(cmd)
    return out


def paper_request() -> dict:
    lines = ["verified: yes"] * 5
    lines += [f"p{p}: pass ({p * p + p} relations)" for p in range(1, 11)]
    return _request("paper", ["paper"], 0, lines)


BUILTIN_NAMES = ("g6_m1_M1", "g6_m1_M2", "g6_m2_M1", "g6_m2_M2")


class Workspace:
    """Files written for one workload and seed, plus the request list."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.requests: list[dict] = []
        self.operands: list[str] = []
        self.files: dict[str, str] = {}

    def add_file(self, name: str, text: str) -> str:
        self.files[name] = text
        return str(self.root / name)

    def write(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.root / name).write_text(text, encoding="utf-8")
        manifest = {"requests": self.requests, "operands": self.operands}
        (self.root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def _sample_operands(pool: list[str], rng: random.Random, count: int = 1024) -> list[str]:
    return [rng.choice(pool) for _ in range(2 * count)]


def _dataset_file(ws: Workspace, data: Dataset) -> str:
    check_dataset(data)
    return ws.add_file(f"{data.name}.dat", dataset_text(data))


def build_sparse(willmore, rng: random.Random, ws: Workspace) -> None:
    """Built-ins, signed-permutation frames with normal sign/permutations,
    and block direct sums up to n = 20; the built-ins' sparsity is kept."""
    bases = {name: from_builtin(willmore, name) for name in BUILTIN_NAMES}
    framed: dict[str, list[Dataset]] = {name: [] for name in BUILTIN_NAMES}
    for name, base in bases.items():
        for v in range(2):
            data = change_frame(base, signed_permutation(base.n, rng), f"{name}_perm{v}")
            data = rotate_normals(data, signed_permutation(base.p, rng), data.name)
            framed[name].append(data)
    sums = [
        ("sum10_m1", ["g6_m1_M1", "g6_m1_M2"]),
        ("sum10_m1b", ["g6_m1_M2", "g6_m1_M1"]),
        ("sum20_m1", ["g6_m1_M1", "g6_m1_M2", "g6_m1_M1", "g6_m1_M2"]),
        ("sum20_m2", ["g6_m2_M1", "g6_m2_M2"]),
    ]
    summed = []
    for name, parts in sums:
        chosen = [rng.choice(framed[part]) for part in parts]
        summed.append(direct_sum(chosen, name))
    pool: list[str] = []
    items: list[tuple[Dataset, str]] = []
    for name, base in bases.items():
        items.append((base, name))
        pool += entries(base)
    for data in [d for ds in framed.values() for d in ds] + summed:
        items.append((data, _dataset_file(ws, data)))
        pool += entries(data)
    for data, target in items:
        ws.requests += dataset_requests(data, target, ("verify", "symbolic", "numeric"), rng)
    ws.requests.append(paper_request())
    ws.operands = _sample_operands(pool, rng)


DENSE_SMALL_FRAMES = 6
DENSE_LARGE_FRAMES = 3


def build_dense(willmore, rng: random.Random, ws: Workspace) -> None:
    """Built-ins in dense Cayley frames, then a Cayley normal rotation: dense
    operators with coefficients of 15-46 bits.  The n = 5 datasets get every
    command.  A sweep of an n = 10 dataset costs 1-3 s, so only the first of
    their frames is swept (symbolically); all are verified, which keeps
    enough n = 10 verifies in a run for the tail to rest on."""
    pool: list[str] = []
    plan = [(name, v, ("verify", "symbolic", "numeric"))
            for v in range(DENSE_SMALL_FRAMES) for name in ("g6_m1_M1", "g6_m1_M2")]
    plan += [(name, v, ("verify", "symbolic") if v == 0 else ("verify",))
             for v in range(DENSE_LARGE_FRAMES) for name in ("g6_m2_M1", "g6_m2_M2")]
    for name, v, commands in plan:
        base = from_builtin(willmore, name)
        data = change_frame(base, cayley_frame(base.n, rng), f"{name}_cayley{v}")
        data = rotate_normals(data, cayley_frame(base.p, rng), data.name)
        target = _dataset_file(ws, data)
        ws.requests += dataset_requests(data, target, commands, rng)
        pool += entries(data)
    ws.operands = _sample_operands(pool, rng)


def build(workload: str, willmore, seed: int, root: Path) -> Workspace:
    ws = Workspace(root.resolve())
    rng = random.Random(f"{workload}:{seed}")
    builders = {"sparse": build_sparse, "dense": build_dense, "trace": build_trace}
    builders[workload](willmore, rng, ws)
    # Interleave cheap and costly requests, so that every kind is sampled
    # over the whole of a pass rather than in one stretch of it.
    rng.shuffle(ws.requests)
    for i, request in enumerate(ws.requests):
        request["id"] = i
    return ws


# trace goals ---------------------------------------------------------------


def word_text(word) -> str:
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(f"A{word[i]}" + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return "*".join(parts)


def g4_relation_terms(p: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """The traced g=4 hypotheses over 1..p as (integer coefficient, word) lists:
    cube, conjugation (a != b) and trace-freeness."""
    rels = [[(1, (a,)), (-1, (a, a, a))] for a in range(1, p + 1)]
    rels += [
        [(1, (a,)), (-1, (b, b, a)), (-1, (b, a, b)), (-1, (a, b, b))]
        for a in range(1, p + 1)
        for b in range(1, p + 1)
        if a != b
    ]
    rels += [[(1, (a,))] for a in range(1, p + 1)]
    return rels


def _random_coeff(rng: random.Random) -> tuple[Fraction, Fraction]:
    a = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
    b = Fraction(rng.randint(-5, 5), rng.randint(1, 5)) if rng.random() < 0.3 else ZERO
    return a, b


def expr_text(terms) -> str:
    """Sum of (coefficient)*Tr(word) in the trace grammar."""
    parts = []
    for (a, b), word in terms:
        parts.append(f"({format_scalar(a, b)})*Tr({word_text(word)})")
    return " + ".join(parts)


def rules_text(p: int) -> str:
    """The g4 relations as a rules file: cubes as `lhs = rhs`, the rest `= 0`."""
    lines = [f"# g=4 hypotheses for p={p}"]
    for terms in g4_relation_terms(p):
        if len(terms) == 2:
            lines.append(f"Tr({word_text(terms[1][1])}) = Tr({word_text(terms[0][1])})")
        else:
            lhs = " ".join(
                f"{'-' if c < 0 else '+'} Tr({word_text(w)})" for c, w in terms
            ).lstrip("+ ")
            lines.append(f"{lhs} = 0")
    return "\n".join(lines) + "\n"


def _combination(rng: random.Random, p: int, count: int):
    rels = g4_relation_terms(p)
    terms = []
    for _ in range(count):
        ca, cb = _random_coeff(rng)
        for c, word in rng.choice(rels):
            terms.append(((ca * c, cb * c), word))
    return terms


def _grid(rng: random.Random, lo: int, hi: int, count: int, jitter: int) -> list[int]:
    """count values evenly spread over [lo, hi], each moved by a seeded
    amount of at most `jitter`: the seed varies the values, not their spread."""
    return [
        min(hi, max(lo, lo + round((hi - lo) * (k + 0.5) / count) + rng.randint(-jitter, jitter)))
        for k in range(count)
    ]


# Per seed: goal kind -> number of requests.  Long power words and high p are
# the two costs the trace workload is there to expose.
TRACE_PLAN = {"willmore": 40, "combination": 32, "word": 32, "power": 24}
TRACE_P_RANGE = (8, 40)
POWER_L_RANGE = (200, 3000)


def build_trace(willmore, rng: random.Random, ws: Workspace) -> None:
    """tracecheck goals of each kind at p spread over 8..40; every third goal
    of a kind, in order of p, reads its relations from a rules file."""
    coeffs: list[str] = []
    for kind, count in TRACE_PLAN.items():
        ps = _grid(rng, *TRACE_P_RANGE, count, 1)
        lengths = _grid(rng, *POWER_L_RANGE, count, 50)
        for k, p in enumerate(ps):
            if kind == "willmore":
                a = rng.randint(1, p)
                terms = [((ONE, ZERO), (b, b, a)) for b in range(1, p + 1)]
            elif kind == "combination":
                terms = _combination(rng, p, rng.randint(3, 12))
            elif kind == "word":
                word = tuple(rng.randint(1, p) for _ in range(rng.randint(4, 12)))
                terms = _combination(rng, p, 2) + [(_random_coeff(rng), word)]
            else:
                i, j = rng.sample(range(1, p + 1), 2)
                terms = [((ONE, ZERO), (j,) + (i,) * lengths[k])]
            passes = kind in ("willmore", "combination")
            rules = ws.add_file(f"g4_p{p}.rules", rules_text(p)) if k % 3 == 1 else "g4"
            lines = [f"relations: {p * p + p}", f"verdict: {'pass' if passes else 'FAIL'}"]
            if passes:
                lines.append("residual: 0")
            argv = ["tracecheck", "--rules", rules, "--goal", expr_text(terms), "--indices", str(p)]
            ws.requests.append(_request("tracecheck", argv, 0 if passes else 1, lines))
            coeffs += [format_scalar(a, b) for (a, b), _ in terms]
    ws.operands = _sample_operands(coeffs, rng)
