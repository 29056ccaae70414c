"""The traced run: spans around the public entry points of each willmore module.

Hooks are installed from the benchmark's own files by replacing the entry
point wherever a willmore module (or class) holds a reference to it, and
removed afterwards; the source under src/ is not touched.  A hook whose
target no longer exists is reported as absent instead of failing the run.

Each call of a hooked entry point opens a frame on a stack.  On return its
duration is added to its parent's child time, so a layer's self time is its
duration minus the time covered by its children.  Hot leaf entry points
(`polyring.mul`, `polyring.eval_float`, `curvature.riemann`,
`tracealg.canonicalize_cyclic`) run up to millions of times per run; they
are counted and timed like the others but do not each store a span.  Probes
that measure operands (nonzero counts, bit lengths, term counts) run outside
the frames, and their time is charged to no layer's self time; a probe that
no longer fits the program's internals is reported absent too.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

perf_ns = time.perf_counter_ns

_RINGS = {"QuadExt": "quad", "MultiPoly": "poly"}


class Stat:
    __slots__ = ("calls", "ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.self_ns = 0


def _bits(q) -> int:
    try:
        return max(abs(q.x).bit_length(), abs(q.y).bit_length(), q.d.bit_length())
    except AttributeError:
        a, b = q.a, q.b
        return max(abs(v).bit_length() for v in (a.numerator, a.denominator, b.numerator, b.denominator))


def _ring(matrix) -> str:
    try:
        kind = type(matrix.rows[0][0]).__name__
    except (AttributeError, IndexError, TypeError):
        return "other"
    return _RINGS.get(kind, kind.lower())


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []       # [name, start_ns, child_ns, span_id, parent_id]
        self.spans: list[tuple] = []      # (id, name, start_ns, end_ns, parent_id, request)
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.depth: dict[str, int] = defaultdict(int)
        self.request = -1
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # counts measured at the hooks
        self.useful = 0
        self.products = 0
        self.max_bits = 0
        self.max_terms = 0
        self.max_word_len = 0
        self.parse_bytes = 0
        self.rows_in = 0
        self.pivots = 0
        self.goals = 0
        self.goals_closed = 0

    # frames ---------------------------------------------------------------

    def _open(self, name: str, record: bool) -> list:
        parent = -1
        for frame in reversed(self.stack):
            if frame[3] >= 0:
                parent = frame[3]
                break
        sid = -1
        if record:
            sid = len(self.spans)
            self.spans.append(None)
        self.depth[name] += 1
        frame = [name, 0, 0, sid, parent]
        self.stack.append(frame)
        frame[1] = perf_ns()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_ns()
        self.stack.pop()
        name, start, child, sid, parent = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        stat = self.stats[name]
        stat.calls += 1
        stat.self_ns += duration - child
        self.depth[name] -= 1
        if not self.depth[name]:
            stat.ns += duration
        if sid >= 0:
            self.spans[sid] = (sid, name, start, end, parent, self.request)

    def _probe(self, probe, fallback, *args):
        """Run a probe with its time kept out of the enclosing layer's self
        time.  A probe that no longer fits the program's internals is
        reported absent, and the run goes on."""
        start = perf_ns()
        try:
            return probe(self, *args)
        except (AttributeError, TypeError, IndexError, KeyError):
            label = f"probe {probe.__name__}"
            if label not in self.absent:
                self.absent.append(label)
            return fallback
        finally:
            if self.stack:
                self.stack[-1][2] += perf_ns() - start

    def wrap(self, name, fn, record: bool, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                args = tracer._probe(before, args, args)
            frame = tracer._open(label, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                tracer._probe(after, None, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # installing ------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, qualname, record, before, after in HOOKS:
            label = name if isinstance(name, str) else name.__name__
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = self.wrap(name, original, record, before, after)
            if path:
                # a method: replace every alias in the class (e.g. __rmul__ = __mul__)
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "willmore" or mod_name.startswith("willmore.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,name,start_ns,end_ns,parent,request\n")
            for span in self.spans:
                if span is not None:
                    out.write(",".join(str(v) for v in span) + "\n")


# probes ----------------------------------------------------------------------


def _matmul_name(args) -> str:
    return f"linalg.matmul_{_ring(args[0])}"


def _char_poly_name(args) -> str:
    return f"linalg.char_poly_{_ring(args[0])}"


def _after_matmul(tracer: Tracer, args, result) -> None:
    left, right = args[0], args[1]
    a, b = left.rows, right.rows
    col_nonzero = [0] * len(b)
    for row in a:
        for j, e in enumerate(row):
            if e:
                col_nonzero[j] += 1
    tracer.useful += sum(c * sum(1 for e in row if e) for c, row in zip(col_nonzero, b))
    tracer.products += len(a) * len(b) * len(b[0])
    ring = _ring(left)
    for m in (a, b, result.rows):
        for row in m:
            for e in row:
                for q in (e,) if ring == "quad" else getattr(e, "terms", {}).values():
                    bits = _bits(q)
                    if bits > tracer.max_bits:
                        tracer.max_bits = bits


def _after_char_poly(tracer: Tracer, args, result) -> None:
    for c in getattr(result, "coeffs", ()):
        terms = getattr(c, "terms", None)
        values = terms.values() if terms is not None else (c,)
        if terms is not None:
            tracer.max_terms = max(tracer.max_terms, len(terms))
        for q in values:
            tracer.max_bits = max(tracer.max_bits, _bits(q))


def _after_mul(tracer: Tracer, args, result) -> None:
    terms = getattr(result, "terms", None)
    if terms is not None and len(terms) > tracer.max_terms:
        tracer.max_terms = len(terms)


def _before_parse_dataset(tracer: Tracer, args):
    if args and isinstance(args[0], str):
        tracer.parse_bytes += len(args[0].encode("utf-8"))
    return args


def _before_canonicalize(tracer: Tracer, args):
    word = tuple(args[0])
    if len(word) > tracer.max_word_len:
        tracer.max_word_len = len(word)
    return (word,) + tuple(args[1:])


def _before_echelon(tracer: Tracer, args):
    relations = list(args[0])
    tracer.rows_in += len(relations)
    return (relations,) + tuple(args[1:])


def _after_echelon(tracer: Tracer, args, result) -> None:
    tracer.pivots += len(result)


def _after_reduce_goal(tracer: Tracer, args, result) -> None:
    tracer.goals += 1
    tracer.goals_closed += not result[0]


def _after_verify_g4(tracer: Tracer, args, result) -> None:
    for goal in result.goals:
        tracer.goals += 1
        tracer.goals_closed += bool(goal.closed)


# (metric name, module, attribute, record spans, before probe, after probe)
HOOKS = (
    ("cli.main", "willmore.cli", "main", True, None, None),
    ("cli.verify_certificate", "willmore.cli", "verify_certificate", True, None, None),
    ("cli.riemann_suite", "willmore.cli", "_riemann_spot_suite", True, None, None),
    ("cli.render", "willmore.cli", "Certificate.render", True, None, None),
    ("catalog.parse_dataset", "willmore.catalog", "parse_dataset", True, _before_parse_dataset, None),
    ("curvature.curvature_report", "willmore.curvature", "curvature_report", True, None, None),
    ("curvature.riemann", "willmore.curvature", "riemann", False, None, None),
    (_matmul_name, "willmore.linalg", "Matrix.__matmul__", True, None, _after_matmul),
    (_char_poly_name, "willmore.linalg", "Matrix.char_poly", True, None, _after_char_poly),
    ("polyring.mul", "willmore.polyring", "MultiPoly.__mul__", False, None, _after_mul),
    ("polyring.reduce_mod_sphere", "willmore.polyring", "reduce_mod_sphere", True, None, None),
    ("polyring.eval_float", "willmore.polyring", "eval_float", False, None, None),
    ("sweep.symbolic_sweep", "willmore.sweep", "symbolic_sweep", True, None, None),
    ("sweep.numeric_sweep", "willmore.sweep", "numeric_sweep", True, None, None),
    ("sweep.normal_shape_operator", "willmore.sweep", "normal_shape_operator", True, None, None),
    ("tracealg.canonicalize_cyclic", "willmore.tracealg", "canonicalize_cyclic", False, _before_canonicalize, None),
    ("tracealg.parse_trace_expr", "willmore.tracealg", "parse_trace_expr", True, None, None),
    ("tracealg.parse_identity_file", "willmore.tracealg", "parse_identity_file", True, None, None),
    ("tracealg.g4_relations", "willmore.tracealg", "g4_relations", True, None, None),
    ("tracealg.echelon", "willmore.tracealg", "_echelon", True, _before_echelon, _after_echelon),
    ("tracealg.reduce_goal", "willmore.tracealg", "reduce_goal_with_steps", True, None, _after_reduce_goal),
    ("tracealg.verify_g4", "willmore.tracealg", "verify_g4", True, None, _after_verify_g4),
)


# per-layer metrics -------------------------------------------------------------

# name -> (unit, better); the order is the order BENCHMARK.json lists them in.
PER_LAYER = {
    "linalg.matmul_quad.calls": ("count", "lower"),
    "linalg.matmul_quad.ms": ("ms", "lower"),
    "linalg.matmul.useful_ratio": ("ratio", "higher"),
    "curvature.curvature_report.calls": ("count", "lower"),
    "curvature.curvature_report.ms": ("ms", "lower"),
    "curvature.riemann.calls": ("count", "lower"),
    "curvature.riemann.ms": ("ms", "lower"),
    "cli.riemann_suite.calls": ("count", "lower"),
    "cli.riemann_suite.ms": ("ms", "lower"),
    "cli.verify_certificate.self_ms": ("ms", "lower"),
    "cli.render.ms": ("ms", "lower"),
    "linalg.char_poly_poly.calls": ("count", "lower"),
    "linalg.char_poly_poly.ms": ("ms", "lower"),
    "linalg.matmul_poly.calls": ("count", "lower"),
    "linalg.matmul_poly.ms": ("ms", "lower"),
    "polyring.mul.calls": ("count", "lower"),
    "polyring.mul.ms": ("ms", "lower"),
    "polyring.max_terms": ("count", "lower"),
    "polyring.reduce_mod_sphere.calls": ("count", "lower"),
    "polyring.reduce_mod_sphere.ms": ("ms", "lower"),
    "polyring.eval_float.calls": ("count", "lower"),
    "polyring.eval_float.ms": ("ms", "lower"),
    "sweep.numeric_sweep.self_ms": ("ms", "lower"),
    "sweep.symbolic_sweep.self_ms": ("ms", "lower"),
    "sweep.normal_shape_operator.ms": ("ms", "lower"),
    "exactnum.mul_ns": ("ns", "lower"),
    "exactnum.add_ns": ("ns", "lower"),
    "exactnum.max_bits": ("bits", "lower"),
    "catalog.parse_dataset.calls": ("count", "lower"),
    "catalog.parse_dataset.ms": ("ms", "lower"),
    "catalog.parse_dataset.bytes": ("bytes", "lower"),
    "tracealg.canonicalize_cyclic.calls": ("count", "lower"),
    "tracealg.canonicalize_cyclic.ms": ("ms", "lower"),
    "tracealg.max_word_len": ("count", "lower"),
    "tracealg.parse_trace_expr.calls": ("count", "lower"),
    "tracealg.parse_trace_expr.ms": ("ms", "lower"),
    "tracealg.parse_identity_file.ms": ("ms", "lower"),
    "tracealg.g4_relations.ms": ("ms", "lower"),
    "tracealg.echelon.ms": ("ms", "lower"),
    "tracealg.echelon.rows_in": ("count", "lower"),
    "tracealg.echelon.pivots": ("count", "lower"),
    "tracealg.reduce_goal.ms": ("ms", "lower"),
    "tracealg.goals_closed_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# The per-layer metrics that are counts of work, not times: two traced runs
# of the same seed must give exactly the same values.
EXACT_COUNTS = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", ".bytes", "useful_ratio", ".rows_in", ".pivots"))
    or name in ("polyring.max_terms", "exactnum.max_bits", "tracealg.max_word_len",
                "tracealg.goals_closed_ratio")
)


def time_scalar_ops(parse_scalar, texts: list[str], repeats: int = 7) -> tuple[float, float]:
    """Median ns per QuadExt product and sum over a fixed sample of operand pairs."""
    values = [parse_scalar(t) for t in texts]
    pairs = list(zip(values[0::2], values[1::2]))
    timings = {"mul": [], "add": []}
    for _ in range(repeats):
        start = perf_ns()
        for a, b in pairs:
            a * b
        middle = perf_ns()
        for a, b in pairs:
            a + b
        end = perf_ns()
        timings["mul"].append((middle - start) / len(pairs))
        timings["add"].append((end - middle) / len(pairs))
    return statistics.median(timings["mul"]), statistics.median(timings["add"])


def layer_metrics(tracer: Tracer, overhead_ratio: float, scalar_ns: tuple[float, float] | None) -> dict:
    stats = tracer.stats

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    def ms(name: str) -> float:
        return stats[name].ns / 1e6 if name in stats else 0.0

    def self_ms(name: str) -> float:
        return stats[name].self_ns / 1e6 if name in stats else 0.0

    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls(layer)
        elif kind == "ms":
            values[name] = ms(layer)
        elif kind == "self_ms":
            values[name] = self_ms(layer)
    mul_ns, add_ns = scalar_ns if scalar_ns is not None else (0.0, 0.0)
    values.update({
        "linalg.matmul.useful_ratio": tracer.useful / tracer.products if tracer.products else 0.0,
        "polyring.max_terms": tracer.max_terms,
        "exactnum.mul_ns": mul_ns,
        "exactnum.add_ns": add_ns,
        "exactnum.max_bits": tracer.max_bits,
        "catalog.parse_dataset.bytes": tracer.parse_bytes,
        "tracealg.max_word_len": tracer.max_word_len,
        "tracealg.echelon.rows_in": tracer.rows_in,
        "tracealg.echelon.pivots": tracer.pivots,
        "tracealg.goals_closed_ratio": tracer.goals_closed / tracer.goals if tracer.goals else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
