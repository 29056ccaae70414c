"""One benchmark set-up, run in a fresh interpreter by run.py.

Times `import willmore`, then builds, checks and writes the inputs of one
workload and seed.  Two of each reference probe before the import and two
after the set-up give this process's speed (see reference.py).  Prints one
JSON line: {"import_ms": ..., "setup_s": ..., "probe_s": ...,
"import_probe_s": ...}, the first two as measured and the others the median
of the four probes of each kind.

    python3 perfbench/prepare.py <workload> <seed> <output directory>
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import reference

    probes = [reference.probe() for _ in range(2)]
    import_probes = [reference.probe_import() for _ in range(2)]
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import willmore
    imported = time.perf_counter()
    if not os.path.abspath(willmore.__file__).startswith(SRC + os.sep):
        print(f"willmore imported from {willmore.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from pathlib import Path

    import gen

    gen.build(workload, willmore, seed, Path(out)).write()
    done = time.perf_counter()
    probes += [reference.probe() for _ in range(2)]
    import_probes += [reference.probe_import() for _ in range(2)]
    print('{"import_ms": %r, "setup_s": %r, "probe_s": %r, "import_probe_s": %r}'
          % ((imported - start) * 1e3, done - start, reference.median(probes),
             reference.median(import_probes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
