#!/usr/bin/env python3
"""pbrkit benchmark: one workload, timed, checked, and optionally traced.

    python3 bench/run.py --workload {figures,sampling,queries} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (or any copy of it holding ``src/pbrkit`` and
``bench/``).  The package is imported from ``src`` of that copy.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a readable table goes to stderr.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics.  See bench/README.md for what each one means.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# At most one compute thread per process, and the benchmark starts its
# processes one at a time: two cores, two processes at most.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

MIN_OPS = 100  # so op_s.p90 has at least ten samples beyond it
SETUP_PROBES = 11
COLD_RUNS = 15
IMPORT_PROBES = 5
SPAN_CAP = 1_500_000  # the traced run stops adding rounds past this many spans
CHILD_TIMEOUT = 60


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("figures", "sampling", "queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ------------------------------------------------------------ running an op


def run_inprocess(call, op):
    """Run one CLI call in this process; returns rc, stdout, stderr, seconds."""
    argv = list(op.argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = call(argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


class Verifier:
    """Checks each distinct op once against the independent computation, and
    every later run of it for byte-identical output."""

    def __init__(self, checks):
        self.checks = checks
        self.first: dict[int, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @staticmethod
    def digest(rc, stdout, stderr, data: bytes) -> str:
        h = hashlib.sha256(f"{rc}\0{stdout}\0{stderr}\0".encode())
        h.update(data)
        return h.hexdigest()

    def verdict(self, op, rc, stdout, stderr, data) -> str:
        try:
            self.checks.check_op(op, rc, stdout, stderr, data)
        except self.checks.KnownFault:
            return "fault"
        except self.checks.CheckError as exc:
            return f"{' '.join(op.argv)}: {exc}"
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{' '.join(op.argv)}: unreadable output ({exc!r})"
        return "ok"

    def check(self, index: int, op, rc, stdout, stderr, out_path=None) -> None:
        """Check the output of ``ops[index]``; ``out_path`` overrides where its CSV went."""
        data = Path(out_path or op.out).read_bytes() if op.out else b""
        digest = self.digest(rc, stdout, stderr, data)
        if index not in self.first:
            self.first[index] = (digest, self.verdict(op, rc, stdout, stderr, data))
        first_digest, verdict = self.first[index]
        if digest != first_digest:
            self.errors.append(f"{' '.join(op.argv)}: output differs between runs of the same call")
        if verdict == "fault":
            self.failed += 1
        elif verdict != "ok":
            self.errors.append(verdict)

    def attempt(self, index: int, op, rc, stdout, stderr) -> None:
        """Count and check one in-process call."""
        self.attempted += 1
        self.check(index, op, rc, stdout, stderr)

    def is_fault(self, index: int) -> bool:
        return self.first[index][1] == "fault"


def run_round(call, ops, verifier, durations=None, items=None):
    for index, op in enumerate(ops):
        rc, stdout, stderr, dt = run_inprocess(call, op)
        verifier.attempt(index, op, rc, stdout, stderr)
        if durations is not None:
            durations.append(dt)
            items.append(op.items)


# ------------------------------------------------------------ fresh processes


def setup_once(args) -> float:
    """Seconds from starting a fresh workload process until its first op is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {line}{rest}{err}")
    return dt


def setup_probe(args) -> int:
    """Child side of setup_once: build the workload, say ready, clean up."""
    import workloads
    from pbrkit import cli  # noqa: F401  -- imported as the timed process imports it

    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.build(args.workload, args.seed, workdir)
        gc.collect()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def cold_once(ops, index, verifier, workdir: Path) -> float:
    """Seconds of one ``python -m pbrkit.cli <op>`` process; its output must match in-process."""
    op = ops[index]
    argv, out_path = list(op.argv), None
    if op.out:
        out_path = str(workdir / f"cold-{Path(op.out).name}")
        argv[argv.index("--out") + 1] = out_path
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pbrkit.cli", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    dt = time.perf_counter() - t0
    verifier.check(index, op, proc.returncode, proc.stdout, proc.stderr, out_path)
    return dt


class FreshProcesses:
    """Setup probes and cold CLI runs, spread evenly over the timed phase.

    The speed of this machine drifts over seconds, so fresh-process samples
    taken back to back would all see one moment of it.  Each kind is warmed
    once (file cache, bytecode) before timing starts; that sample is dropped.
    Cold runs cycle through the round's ops, skipping the known-fault ones.
    """

    def __init__(self, args, ops, verifier, workdir):
        self.args, self.ops, self.verifier, self.workdir = args, ops, verifier, workdir
        self.usable = [i for i in range(len(ops)) if not verifier.is_fault(i)]
        slots = [((k + 0.5) / SETUP_PROBES, "setup") for k in range(SETUP_PROBES)]
        slots += [((k + 0.5) / COLD_RUNS, "cold") for k in range(COLD_RUNS)]
        self.slots = sorted(slots)
        self.setup: list[float] = []
        self.cold: list[float] = []
        setup_once(args)
        self._cold()

    def _cold(self) -> float:
        index = self.usable[len(self.cold) % len(self.usable)]
        return cold_once(self.ops, index, self.verifier, self.workdir)

    def due(self, fraction: float) -> None:
        """Take every sample whose slot lies at or before ``fraction`` of the phase."""
        while self.slots and self.slots[0][0] <= fraction:
            _, kind = self.slots.pop(0)
            if kind == "setup":
                self.setup.append(setup_once(self.args))
            else:
                self.cold.append(self._cold())


def import_seconds() -> tuple[float, float]:
    """Median import time of numpy and of pbrkit's own modules, from -X importtime."""
    numpy_s, pbrkit_s = [], []
    for k in range(IMPORT_PROBES + 1):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pbrkit.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=True)
        own, numpy_cum = 0, None
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:") or "self" in parts[0]:
                continue
            self_us, cum_us, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2].strip()
            if name == "numpy":
                numpy_cum = cum_us
            elif name == "pbrkit" or name.startswith("pbrkit."):
                own += self_us
        if numpy_cum is None:
            raise RuntimeError("numpy was not imported by pbrkit.cli")
        if k:
            numpy_s.append(numpy_cum * 1e-6)
            pbrkit_s.append(own * 1e-6)
    return statistics.median(numpy_s), statistics.median(pbrkit_s)


# ------------------------------------------------------------ the two modes


def end_to_end(args, cli, ops, verifier, workdir) -> dict:
    durations, items = [], []
    run_round(cli.main, ops, verifier)  # checks every op once before any timing
    fresh = FreshProcesses(args, ops, verifier, workdir)
    gc.collect()
    while True:
        run_round(cli.main, ops, verifier, durations, items)
        fresh.due(sum(durations) / args.seconds)
        if sum(durations) >= args.seconds and len(durations) >= MIN_OPS:
            break
    fresh.due(1.0)

    peaks = []
    tracemalloc.start()
    try:
        for index, op in enumerate(ops):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rc, stdout, stderr, _ = run_inprocess(cli.main, op)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            verifier.attempt(index, op, rc, stdout, stderr)
    finally:
        tracemalloc.stop()

    ordered = sorted(durations)
    return {
        "setup_s": statistics.median(fresh.setup),
        "items_per_s": sum(items) / sum(durations),
        "op_s.p50": percentile(ordered, 0.50),
        "op_s.p90": percentile(ordered, 0.90),
        "cold_s.p50": statistics.median(fresh.cold),
        "peak_mem_mb": max(peaks) / 1e6,
    }


def per_layer(args, cli, ops, verifier, workdir) -> dict:
    from spans import SamplePeak, Tracer

    numpy_s, pbrkit_s = import_seconds()
    tracer = Tracer()
    untraced = []
    started = time.perf_counter()
    gc.collect()
    while True:
        run_round(cli.main, ops, verifier, untraced, [])
        tracer.calibrate()
        tracer.install()
        try:
            run_round(lambda argv: tracer.run_op(lambda: cli.main(argv)), ops, verifier)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds or len(tracer.start) >= SPAN_CAP:
            break

    peak = SamplePeak()
    peak.install()
    tracemalloc.start()
    try:
        run_round(cli.main, ops, verifier)
    finally:
        tracemalloc.stop()
        peak.uninstall()

    own, calls, charged = tracer.self_times()
    traced_ops = tracer.ops
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")

    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.self_s"] = own[name] / traced_ops
        metrics[f"{name}.calls"] = calls[name] / traced_ops
    self_sum_s = sum(own.values()) / traced_ops
    traced_s = self_sum_s + charged / traced_ops
    untraced_s = statistics.fmean(untraced)
    metrics.update({
        "states.OverlapAngle.objects": tracer.objects / traced_ops,
        "experiment.sample_outcomes.trials": tracer.trials / traced_ops,
        "experiment.sample_outcomes.peak_mb": peak.peak / 1e6,
        "import.numpy_s": numpy_s,
        "import.pbrkit_s": pbrkit_s,
        "trace.op_s.traced": traced_s,
        "trace.op_s.untraced": untraced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
        "trace.span_cost_s": sum(tracer.span_cost()) * 1e-9,
        "trace.charged_s": charged / traced_ops,
        "trace.self_sum_s": self_sum_s,
    })
    print(f"traced ops {traced_ops}, spans {len(tracer.start)}; {traced_s:.6g} s/op traced, of which "
          f"{charged / traced_ops:.6g} s/op is the tracer's own cost; self times sum to {self_sum_s:.6g} s/op "
          f"against {untraced_s:.6g} s/op untraced", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pbrkit" / "cli.py").is_file():
        print(f"error: no pbrkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from pbrkit import cli

    if Path(cli.__file__).resolve().parent != SRC / "pbrkit":
        print(f"error: pbrkit imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    import checks
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        verifier = Verifier(checks)
        measure = per_layer if args.trace else end_to_end
        values = measure(args, cli, ops, verifier, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in verifier.errors[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    metrics = {}
    for m in declared:
        # A per-layer function that no longer exists was called 0 times.
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:9s} {m['name']:42s} {metrics[m['name']]['value']:14.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload:9s} attempted {verifier.attempted}, failed {verifier.failed}, "
          f"check errors {len(verifier.errors)}", file=sys.stderr)
    result = {
        "correct": not verifier.errors,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
