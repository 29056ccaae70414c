"""The willmore benchmark: seeded workloads driven through `willmore.cli.main`.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each request is an
in-process `willmore.cli.main([...])` call on generated files, with stdout
captured and checked against the verdict known from how the input was built.
A run executes a fixed number of passes over the workload's request list,
round(--seconds / nominal pass time), so that both sides of a comparison do
the same work and every percentile has the same sample count.

`--trace 0` prints the end-to-end metrics.  Every time in them is scaled to
the speed of a reference probe timed before each request (reference.py), so
that the machine's drift in speed does not read as a change of the program.
`--trace 1` runs a traced pass between two untraced ones (spans around each
module's entry points, see tracing.py) and prints the per-layer metrics.
The last line of stdout is the JSON result; the lines before it give every
metric by name with its unit, the per-command breakdown, the figures before
scaling, and the sha256 of the certificates.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reference
import tracing
from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-ups per untraced run.  The machine's speed drifts in phases of a few
# seconds, so after the first one they are spread evenly between the
# requests of all passes.
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10

# Wall time of one pass over each request list, measured on a shared 2-core
# VM when the benchmark was added; it fixes how many passes a run makes,
# not a time limit.
PASS_SECONDS = {"sparse": 3.5, "dense": 6.5, "trace": 6.4}

# name -> unit; BENCHMARK.json gives each a direction and a bound.
END_TO_END = {
    "setup_s": "s",
    "import_ms": "ms",
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile), or None with too few samples."""
    ordered = sorted(values)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def prepare(workload: str, seed: int, out: Path) -> dict:
    """One set-up in a fresh interpreter: {"setup_s": ..., "import_ms": ...,
    "probe_s": ..., "import_probe_s": ...}, the times as measured and the
    child's probe times."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(out)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(request: dict, code, out: str) -> bool:
    """Exit code and verdict lines as expected from how the input was built."""
    if code != request["exit"]:
        return False
    lines = Counter(out.splitlines())
    if any(lines[line] < count for line, count in Counter(request["lines"]).items()):
        return False
    if any(line in lines for line in request["forbidden"]):
        return False
    return request["exit"] != 0 or not any(line.endswith(": FAIL") for line in lines)


class Pass:
    """One timed pass over the request list."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.times: list[float] = []  # in request order
        self.failed = 0
        self.digest = hashlib.sha256()
        self.wall = 0.0


def run_pass(cli_main, requests: list[dict], tracer=None, between=None, probes=None) -> Pass:
    """Run every request once.  `between(i)` runs before request i, and its
    time is left out of the pass's wall time.  With a `probes` list, the
    reference probe is timed before each request and appended to it."""
    result = Pass()
    gc.collect()
    paused = 0.0
    begin = time.perf_counter()
    for i, request in enumerate(requests):
        if between is not None:
            start = time.perf_counter()
            between(i)
            paused += time.perf_counter() - start
        if probes is not None:
            start = time.perf_counter()
            probes.append(reference.probe())
            paused += time.perf_counter() - start
        if tracer is not None:
            tracer.request = request["id"]
        out, err = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli_main(list(request["argv"]))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed request, not a failed run
                code, error = None, exc
            elapsed = time.perf_counter() - start
        text = out.getvalue()
        result.digest.update(text.encode("utf-8"))
        result.durations[request["cmd"]].append(elapsed)
        result.times.append(elapsed)
        if error is not None or not check(request, code, text):
            result.failed += 1
            print(f"FAILED request {request['id']} {request['argv'][:2]}: exit {code}, "
                  f"{error!r} {err.getvalue().strip()}", file=sys.stderr)
    result.wall = time.perf_counter() - begin - paused
    return result


def import_cli():
    sys.path.insert(0, str(SRC))
    from willmore import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"willmore imported from {cli.__file__}, not from {SRC}")
    return cli


def metric_lines(metrics: dict) -> list[str]:
    lines = []
    for name, m in metrics.items():
        note = ", ".join(f"{k}={v:.4g}" for k, v in m.items() if k not in ("value", "unit"))
        lines.append(f"{name} {m['value']:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    return lines


def command_metrics(passes: list[Pass]) -> dict:
    """Per-command p50 and tail, with sample counts; a command the workload
    does not issue is left out.  `paper` runs once a pass: its median only."""
    by_cmd: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for cmd, values in p.durations.items():
            by_cmd[cmd].extend(values)
    out = {}
    for cmd, values in by_cmd.items():
        if cmd == "paper":
            out["paper_ms"] = {"value": statistics.median(values) * 1e3, "unit": "ms", "n": len(values)}
            continue
        out[f"{cmd}_p50_ms"] = {"value": statistics.median(values) * 1e3, "unit": "ms", "n": len(values)}
        high = tail(values)
        if high is not None:
            out[f"{cmd}_tail_ms"] = {"value": high[0] * 1e3, "unit": "ms", "n": len(values),
                                     "percentile": high[1]}
    return out


def timed_run(cli, requests: list[dict], args, work: Path, setups: list[dict]) -> tuple[list[Pass], dict]:
    """Untraced passes with set-ups spread between their requests: the
    end-to-end metrics, plus the per-command ones, all at reference speed.
    Requests are scaled by the probes before and after them, set-ups by
    their own."""
    count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    total = count * len(requests)
    spread = {(2 * k + 1) * total // (2 * (SETUP_REPEATS - 1)) for k in range(SETUP_REPEATS - 1)}
    probes: list[float] = []
    passes = []
    for i in range(count):
        def between(j, offset=i * len(requests)):
            if offset + j in spread:
                setups.append(prepare(args.workload, args.seed, work))

        passes.append(run_pass(cli.main, requests, between=between, probes=probes))
    probes.append(reference.probe())
    raw_wall = statistics.median(p.wall for p in passes)
    raw_p50 = statistics.median(t for p in passes for t in p.times)
    factors = reference.scales(probes)
    everything = [t * f for t, f in zip((t for p in passes for t in p.times), factors)]
    for i, p in enumerate(passes):
        p.times = everything[i * len(requests):(i + 1) * len(requests)]
        p.durations = defaultdict(list)
        for request, t in zip(requests, p.times):
            p.durations[request["cmd"]].append(t)
    high = tail(everything)
    report = {
        "setup_s": {"value": statistics.median(s["setup_s"] * reference.REFERENCE_S / s["probe_s"]
                                               for s in setups), "n": len(setups)},
        "import_ms": {"value": statistics.median(s["import_ms"] * reference.REFERENCE_IMPORT_S
                                                 / s["import_probe_s"] for s in setups),
                      "n": len(setups)},
        "wall_s": {"value": statistics.median(sum(p.times) for p in passes), "n": len(passes)},
        "request_p50_ms": {"value": statistics.median(everything) * 1e3, "n": len(everything)},
        "request_tail_ms": {"value": high[0] * 1e3, "n": len(everything), "percentile": high[1]},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
    }
    for name, unit in END_TO_END.items():
        report[name]["unit"] = unit
    report.update(command_metrics(passes))
    # As measured, before scaling: for reading beside the scaled figures.
    report["probe_ms"] = {"value": statistics.median(probes) * 1e3, "unit": "ms", "n": len(probes),
                          "reference": reference.REFERENCE_S * 1e3}
    report["raw_wall_s"] = {"value": raw_wall, "unit": "s", "n": len(passes)}
    report["raw_request_p50_ms"] = {"value": raw_p50 * 1e3, "unit": "ms", "n": len(everything)}
    report["raw_import_ms"] = {"value": statistics.median(s["import_ms"] for s in setups), "unit": "ms",
                               "n": len(setups)}
    report["raw_setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s",
                             "n": len(setups)}
    return passes, report


def traced_run(cli, requests: list[dict], operands: list[str], work: Path) -> tuple[list[Pass], dict, list[str]]:
    """A traced pass between two untraced ones: the per-layer metrics."""
    before = run_pass(cli.main, requests)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(cli.main, requests, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(cli.main, requests)
    scalar_ns = None
    try:
        from willmore import parse_scalar
    except ImportError:
        tracer.absent.append("exactnum.parse_scalar")
    else:
        scalar_ns = tracing.time_scalar_ops(parse_scalar, operands)
    tracer.write_spans(work / "spans.csv")
    overhead = traced.wall / statistics.mean((before.wall, after.wall))
    report = tracing.layer_metrics(tracer, overhead, scalar_ns)
    return [before, traced, after], report, tracer.absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "willmore" / "__init__.py").is_file():
        print(f"error: no willmore sources at {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}"
    absent: list[str] = []
    try:
        setups = [prepare(args.workload, args.seed, work)]
        cli = import_cli()
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        requests = manifest["requests"]
        if args.trace:
            passes, report, absent = traced_run(cli, requests, manifest["operands"], work)
        else:
            passes, report = timed_run(cli, requests, args, work, setups)
    except (RuntimeError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    gated = tracing.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": report[name]["value"], "unit": report[name]["unit"]} for name in gated}

    digests = {p.digest.hexdigest() for p in passes}
    attempted = len(passes) * len(requests)
    failed = sum(p.failed for p in passes)
    report["failed_ratio"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
    print(f"# workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"requests_per_pass={len(requests)}")
    print("\n".join(metric_lines(report)))
    print("certificate_sha256 " + " ".join(sorted(digests)))
    if absent:
        print("absent_hooks " + " ".join(absent))
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
