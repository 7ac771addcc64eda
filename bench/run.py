"""Benchmark of cubiccayley: three workloads, end-to-end and per-layer metrics.

Run from the root of the repository (Python 3.10+, networkx; nothing to build):

    python3 bench/run.py --workload separator_grid --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads (see README.md in this directory for why each was chosen):
``separator_grid``, ``verify_smoke`` and ``ball_report``; ``all`` runs the
three, each in its own process.  One caller in one process issues each
call after the previous one returns (a closed loop, no threads).

A run repeats whole passes over the workload while the next pass is
expected to end within ``--seconds`` (always at least one pass).  Every
result is checked against a known answer; a wrong verdict or an
unexpected error counts as a failed operation.

Times are read from a host-speed clock (``hostclock.py``) that probes
the core's speed every 10 ms and counts seconds as they would pass on a
reference host, so that the speed changes of a shared machine cancel
out.  The process is pinned to one core.  Each set-up probe is a child
on the same core that times itself on its own host-speed clock.

``--trace 0`` measures end to end: ``scaled_wall_s`` (median seconds per
pass), ``peak_rss_mb`` (peak resident memory of this process) and
``setup_s`` (median time of a fresh interpreter that imports the library
and builds the workload's inputs).  ``--trace 1`` alternates untraced and
traced passes and reports per-layer self times and work counts from the
traced ones, plus the tracing overhead and the raw wall-clock time.

Human-readable metrics and the run record go to standard error and to
``.bench_out/`` under the repository root; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("separator_grid", "verify_smoke", "ball_report")
SETUP_PROBES = 9

# Per-layer metrics read off the traced passes: span self times by
# "<module>.<function>" name, as listed in BENCHMARK.json.
SELF_TIME_SPANS = (
    "construct.construct", "construct.cross_check",
    "ball.make_ball", "ball.certify_ball", "ball.rooted_isomorphic",
    "ball.to_json", "ball.from_json",
    "coset.enumerate_cosets", "coset.complete_ball_region",
    "coset.ball_from_table",
    "analyze.shortest_separating_path", "analyze.independent_paths",
    "analyze.find_hinges", "analyze.cycle_space_span_check",
    "analyze.two_basis_check",
    "embed.face_relator_match", "embed.check_consistency",
    "embed.planarity_check", "embed.trace_faces", "embed.embed",
    "embed.to_dict",
    "classify.classify_ball", "classify.classify_presentation",
    "render.to_svg", "render.to_dot",
    "presentation.parse_presentation",
    "cli.main",
)
COUNTS = ("construct.vertices", "construct.edges", "coset.cosets_defined",
          "coset.live_cosets", "coset.ops", "embed.closed_faces")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_library():
    """Import cubiccayley from this checkout's src/, and nowhere else."""
    if not (SRC / "cubiccayley" / "__init__.py").is_file():
        sys.exit(f"bench: no library source at {SRC / 'cubiccayley'}")
    sys.path.insert(0, str(SRC))
    import cubiccayley
    if Path(cubiccayley.__file__).resolve().parent != SRC / "cubiccayley":
        sys.exit(f"bench: imported cubiccayley from {cubiccayley.__file__}, "
                 f"not from {SRC}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "--work-tree", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, inputs) -> dict:
    import networkx
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "order": [c.key if hasattr(c, "key") else " ".join(c) for c in inputs],
        "git_sha": sha, "git_dirty": dirty,
        "source_sha256": files_digest((SRC / "cubiccayley").glob("*.py")),
        "bench_sha256": files_digest(p for p in BENCH_DIR.iterdir()
                                     if p.suffix in (".py", ".json")),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "clock_reference_s": hostclock.REFERENCE_S,
        "clock_period_s": hostclock.PERIOD_S,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def pin_to_one_cpu() -> int:
    """Keep this process and its children on one core, which the clock probes."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup(args) -> list:
    """Seconds for fresh interpreters to import the library and build inputs.

    Each child runs on the pinned core and times itself on its own
    host-speed clock; its whole wall-clock time, interpreter start
    included, is scaled by the speed that clock saw.  This process's clock
    is not running yet, so nothing else interrupts the child.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=120)
        total = time.perf_counter() - t0
        inner = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(total * inner["scaled"] / inner["wall"])
    return times


def setup_probe(args) -> int:
    """The child side of ``measure_setup``."""
    clock = hostclock.HostClock()
    clock.start()
    w0, s0 = time.perf_counter(), clock.now()
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as W
    import cubiccayley.cli  # noqa: F401  (the full library surface)
    W.build_inputs(args.workload, args.seed)
    wall, scaled = time.perf_counter() - w0, clock.now() - s0
    clock.stop()
    print(json.dumps({"wall": wall, "scaled": scaled}))
    return 0


class Counts:
    """Work counts read off the return values of traced calls."""

    def __init__(self, tracer):
        self.values = dict.fromkeys(COUNTS, 0)
        self.separator_vertices = 0
        self._tables = []
        tracer.hooks.update({
            "construct.construct": self._ball,
            "analyze.shortest_separating_path": self._separator,
            "coset.enumerate_cosets": self._table,
            "embed.trace_faces": self._faces,
        })

    def _ball(self, args, ball):
        if ball is not None:
            self.values["construct.vertices"] += ball.n_vertices
            self.values["construct.edges"] += len(ball.edges)

    def _separator(self, args, _):
        self.separator_vertices += args[0].n_vertices

    def _table(self, args, table):
        if table is not None:
            self._tables.append(table)

    def _faces(self, args, faces):
        if faces is not None:
            self.values["embed.closed_faces"] += sum(f.closed for f in faces)

    def settle(self):
        """Read coset counters once the operation that grew the tables ended."""
        for table in self._tables:
            self.values["coset.cosets_defined"] += len(table.rows)
            self.values["coset.live_cosets"] += len(table.live_cosets())
            self.values["coset.ops"] += table.ops
        self._tables.clear()


def traced_pass(workload, inputs, scratch, clock):
    import workloads as W
    from tracing import Tracer, instrumented
    tracer = Tracer(clock.now)
    counts = Counts(tracer)
    p = W.Pass(clock.now, tracer, after_op=counts.settle)
    with instrumented(tracer):
        W.run_pass(workload, inputs, p, scratch)
    return p, tracer, counts


def layer_metrics(p, tracer, counts) -> dict:
    from tracing import BENCH, inclusive_time, self_times
    spans = tracer.spans
    selfs = self_times(spans)
    m = {f"{name}_s": selfs.get(name, 0.0) for name in SELF_TIME_SPANS}
    modules = {}
    for name, t in selfs.items():
        layer = name.split(".", 1)[0]
        modules[layer] = modules.get(layer, 0.0) + t
    for layer in ("presentation", "ball", "construct", "coset", "analyze",
                  "embed", "classify", "render", "cli", BENCH):
        m[f"{layer}.self_s"] = modules.get(layer, 0.0)
    v = counts.values
    m.update(v)
    m["coset.live_ratio"] = (v["coset.live_cosets"] / v["coset.cosets_defined"]
                             if v["coset.cosets_defined"] else 0.0)
    built = inclusive_time(spans, "construct.construct")
    m["construct.us_per_vertex"] = (1e6 * built / v["construct.vertices"]
                                    if v["construct.vertices"] else 0.0)
    searched = inclusive_time(spans, "analyze.shortest_separating_path")
    m["analyze.separator_us_per_vertex"] = (
        1e6 * searched / counts.separator_vertices
        if counts.separator_vertices else 0.0)
    m["trace.wall_s"] = p.seconds
    m["trace.accounted_share"] = sum(selfs.values()) / p.seconds
    m["trace.spans"] = len(spans)
    return m


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> dict:
    import workloads as W
    units = declared_units(args.trace)
    inputs = W.build_inputs(args.workload, args.seed)
    record = run_record(args, inputs)
    record["pinned_cpu"] = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    setup = measure_setup(args)
    clock = hostclock.HostClock()
    clock.start()
    try:
        untraced, traced, failures = [], [], []
        attempted = failed = 0
        sizes = {}
        durations = []  # wall-clock seconds of whole passes, for the budget
        start = time.perf_counter()
        while True:
            # in a traced run, untraced and traced passes alternate
            tracing = args.trace == 1 and len(traced) < len(untraced)
            gc.collect()  # every pass starts from the same heap, off the clock
            t0 = time.perf_counter()
            if tracing:
                p, tracer, counts = traced_pass(args.workload, inputs, OUT,
                                                clock)
                traced.append((p, tracer, counts))
            else:
                p = W.Pass(clock.now)
                W.run_pass(args.workload, inputs, p, OUT)
                untraced.append(p)
            durations.append(time.perf_counter() - t0)
            attempted += p.attempted
            failed += p.failed
            failures += p.failures
            sizes.update(p.sizes)
            elapsed = time.perf_counter() - start
            need_more = args.trace == 1 and not traced
            if (not need_more
                    and elapsed + statistics.median(durations) > args.seconds):
                break
    finally:
        clock.stop()

    walls = [q.seconds for q in untraced]
    raw_walls = [q.wall_seconds for q in untraced]
    result = {"record": record, "pass_seconds": walls,
              "pass_wall_seconds": raw_walls, "setup_seconds": setup,
              "clock_speed": clock.speed(), "ball_sizes": sizes,
              "failures": failures[:50]}
    consistent = True
    if args.trace == 0:
        metrics = {
            "scaled_wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
    else:
        per_pass = [layer_metrics(*t) for t in traced]
        # work counts must repeat exactly: across passes, and across runs
        # of the same source
        work = {k: per_pass[0][k] for k in COUNTS + ("trace.spans",)}
        consistent = all({k: m[k] for k in work} == work for m in per_pass)
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in per_pass[0]}
        metrics.update(work)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(walls))
        metrics["host.wall_s"] = statistics.median(raw_walls)
        metrics["host.speed"] = clock.speed()
        consistent &= _same_counts_as_last_run(args.workload, record, work)
        result["work_counts"] = work
        result["traced_pass_seconds"] = [q.seconds for q, _, _ in traced]
        result["spans"] = [s for _, tracer, _ in traced for s in tracer.spans]
    result["metrics"] = metrics
    result["counts_repeat"] = consistent
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    if set(metrics) != set(units):
        sys.exit(f"bench: measured metrics {sorted(set(metrics) ^ set(units))} "
                 "disagree with BENCHMARK.json")
    correct = failed == 0 and consistent
    _print_summary(args, record, metrics, units, walls, raw_walls,
                   clock.speed(), setup, attempted, failed, failures,
                   consistent, out_file)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def _same_counts_as_last_run(workload, record, work) -> bool:
    """Compare with the counts an earlier traced run of the same code saved."""
    path = OUT / f"{workload}-counts.json"
    code = [record["source_sha256"], record["bench_sha256"]]
    saved = None
    if path.exists():
        saved = json.loads(path.read_text())
    if saved and saved["code"] == code:
        if saved["counts"] != work:
            print(f"bench: work counts differ from the last run of this "
                  f"source: {saved['counts']} vs {work}", file=sys.stderr)
            return False
        return True
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"code": code, "counts": work}) + "\n")
    tmp.replace(path)
    return True


def _print_summary(args, record, metrics, units, walls, raw_walls, speed,
                   setup, attempted, failed, failures, consistent, out_file):
    err = sys.stderr
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}", file=err)
    print("run record: " + json.dumps(record), file=err)
    lo, hi = quartiles(walls)
    print(f"untraced passes: {len(walls)}, scaled median "
          f"{statistics.median(walls):.4f} s, quartiles {lo:.4f}..{hi:.4f} s; "
          f"wall-clock median {statistics.median(raw_walls):.4f} s; "
          f"host speed {speed:.3f} of the reference", file=err)
    print(f"setup probes: {len(setup)}, median {statistics.median(setup):.4f} s",
          file=err)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}", file=err)
    print(f"  {'ops_attempted':40s} {attempted:14d} count", file=err)
    print(f"  {'ops_failed':40s} {failed:14d} count", file=err)
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6f} ratio", file=err)
    if not consistent:
        print("work counts did not repeat exactly", file=err)
    for line in failures[:20]:
        print(f"FAILED {line}", file=err)
    print(f"details: {out_file}", file=err)


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=900)
        if out.returncode != 0:
            sys.exit(f"bench: {workload} exited with {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
