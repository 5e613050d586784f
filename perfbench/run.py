"""hedcex verifier benchmark.

    python3 perfbench/run.py --workload {refined,c7,wide} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each operation runs ``worker.py`` in a fresh
interpreter with ``src`` on ``PYTHONPATH``, pinned to as many CPUs as the
workload has threads; operations run one at a time and whole, and new ones
start until S seconds have passed (at least one).  The inputs are fixed
constructions: the seed only sets where the setup probes fall among the
operations.

Throughout the run a sampler process on each of those CPUs times a fixed
reference loop every 20 ms.  ``verify_ref_s`` and ``op_ref_s`` are the wall
times rescaled by how fast those loops ran during the operation, which keeps
them steady when a shared host makes the CPU slower or faster for minutes.

With --trace 0 the result carries the end-to-end metrics; with --trace 1
every operation is traced and the result carries the per-layer metrics.
Every metric is printed by name and unit, and the last line of stdout is the
JSON result.  Environment, operation records and metrics also go to
``.perfbench/result-<workload>-seed<N>-trace<T>.json``; spans go to
``.perfbench/spans-<op>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s

# The reference CPU runs worker.reference_loop in this time.
REF_LOOP_S = 250e-6

# Printed on every run but not bounded in BENCHMARK.json.  The last three are
# zero on some workload by design (no failures; wide never decides or
# certifies).  Raw wall times drift with the host's load by more than any
# allowed bound; their rescaled forms are bounded instead.
INFO_UNITS = {
    "verify_s": "s",
    "op_s": "s",
    "import_s": "s",
    "cpu_speed": "x",
    "cert_check_s": "s",
    "fail_frac": "share",
    "decided_frac": "share",
}


def environment() -> dict:
    """Interpreter, library, CPU and load figures for the result record."""
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": _commit(),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu"] = models[0] if models else platform.processor()
    except OSError:
        env["cpu"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    env["caches"] = caches
    return env


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def _last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _child(args: list[str], deadline: float) -> tuple[dict | None, list[float], str]:
    """Run worker.py; return its record, its [start, end] and any error text."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            _worker(args),
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, [start, time.perf_counter()], "timed out"
    window = [start, time.perf_counter()]
    record = _last_json(proc.stdout) if proc.returncode == 0 else None
    if record is None:
        return None, window, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return record, window, ""


def run_op(workload: str, op_id: str, traced: bool, cpus: list[int], deadline: float) -> dict:
    args = ["op", workload, op_id, "--cpus", ",".join(map(str, cpus))]
    if traced:
        args += ["--spans", str(OUT / f"spans-{op_id}.jsonl")]
    record, window, error = _child(args, deadline)
    if record is None:
        record = {"op": op_id, "traced": traced, "failures": [f"worker died: {error}"]}
    record["op_s"] = window[1] - window[0]
    record["op_window"] = window
    return record


def start_samplers(cpus: list[int]) -> list[subprocess.Popen]:
    return [
        subprocess.Popen(_worker(["sample", "--cpus", str(cpu)]), cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
        for cpu in cpus
    ]


def stop_samplers(procs: list[subprocess.Popen]) -> list[list[float]]:
    """Stop every sampler, wait for it, and return all its samples."""
    samples = []
    for proc in procs:
        proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        samples += _last_json(out) or []
    return samples


def rescale(seconds: float, window: list[float], samples: list[list[float]]) -> float | None:
    """``seconds`` at the reference CPU speed, judged by the reference loops
    sampled inside ``window`` (or the one nearest to it, for a window shorter
    than the sampling period); None without samples."""
    inside = [loop for at, loop in samples if window[0] <= at <= window[1]]
    if not inside and samples:
        middle = (window[0] + window[1]) / 2
        inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return seconds * REF_LOOP_S / statistics.median(inside) if inside else None


def add_rescaled(op: dict, samples: list[list[float]]) -> None:
    op["op_ref_s"] = rescale(op["op_s"], op["op_window"], samples)
    if op["op_ref_s"] is not None:
        op["cpu_speed"] = op["op_ref_s"] / op["op_s"]
    if "verify_window" in op:
        op["verify_ref_s"] = rescale(op["verify_s"], op["verify_window"], samples)


def _median(records: list[dict], key: str) -> float | None:
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def summarize(ops: list[dict], setup: list[dict]) -> dict:
    """End-to-end figures over a run's operations and setup probes.

    A failure is anything ``worker.grade`` flags or a worker that died.
    Undecided (INCOMPLETE) operations are not failures; they lower
    ``decided_frac``.
    """
    attempted = len(ops)
    failed = sum(bool(op["failures"]) for op in ops)
    claims = sum(op.get("claims", 0) for op in ops)
    return {
        "attempted": attempted,
        "failed": failed,
        "verify_ref_s": _median(ops, "verify_ref_s"),
        "op_ref_s": _median(ops, "op_ref_s"),
        "setup_s": _median(setup, "setup_s"),
        "peak_rss_mb": _median(ops, "peak_rss_mb"),
        "ok_frac": (attempted - failed) / attempted,
        "claims_decided_frac": (
            sum(op.get("claims_decided", 0) for op in ops) / claims if claims else None
        ),
        "verify_s": _median(ops, "verify_s"),
        "op_s": _median(ops, "op_s"),
        "import_s": _median(setup, "import_s"),
        "cpu_speed": _median(ops, "cpu_speed"),
        "cert_check_s": _median(ops, "cert_check_s"),
        "fail_frac": failed / attempted,
        "decided_frac": sum(op.get("status") == "PASS" for op in ops) / attempted,
    }


def layer_summary(ops: list[dict]) -> dict:
    """Per-layer medians over the traced operations."""
    traced = [op["layers"] for op in ops if "layers" in op]
    names = sorted({name for layers in traced for name in layers})
    return {name: statistics.median(layers[name] for layers in traced) for name in names}


def node_repeats(ops: list[dict]) -> dict:
    """Search node counts per operation; they must repeat exactly run to run."""
    return {
        key: sorted({op[key] for op in ops if op.get(key) is not None})
        for key in ("chi_h_nodes", "chi_g_nodes")
    }


def _bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hedcex verifier benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hedcex" / "__init__.py").is_file():
        print(f"perfbench: no hedcex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _bench_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not args.trace else "per_layer"]}

    OUT.mkdir(exist_ok=True)
    began = time.monotonic()
    deadline = began + DEADLINE_S
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))

    rng = random.Random(args.seed)
    cpus = sorted(os.sched_getaffinity(0))[: worker.WORKLOADS[args.workload].threads]
    _child(["setup"], deadline)  # warm-up: byte-compiles src, fills the file cache
    setup: list[dict] = []
    ops: list[dict] = []

    def probe() -> None:
        record, _, error = _child(["setup", "--cpus", str(cpus[0])], deadline)
        if record is None:
            raise SystemExit(f"perfbench: setup probe failed: {error}")
        setup.append(record)

    samplers = start_samplers(cpus)
    try:
        while not ops or time.monotonic() - began < args.seconds:
            if len(setup) < SETUP_PROBES and rng.random() < 0.5:
                probe()
            op_id = f"{args.workload}-seed{args.seed}-{len(ops)}"
            ops.append(run_op(args.workload, op_id, bool(args.trace), cpus, deadline))
        while len(setup) < SETUP_PROBES:
            probe()
    finally:
        samples = stop_samplers(samplers)

    for record in setup:
        record["setup_s"] = rescale(record["import_s"], record["import_window"], samples)
    for op in ops:
        add_rescaled(op, samples)
        print(
            f"op {op['op']} traced={args.trace} verdict={op.get('status')} "
            f"verify_s={op.get('verify_s')} verify_ref_s={op.get('verify_ref_s')} "
            f"cert_check_s={op.get('cert_check_s')} op_s={op['op_s']:.4f} "
            f"cpu_speed={op.get('cpu_speed')} peak_rss_mb={op.get('peak_rss_mb')} "
            f"chi_h_nodes={op.get('chi_h_nodes')} chi_g_nodes={op.get('chi_g_nodes')} "
            f"failures={op['failures'] or '-'}"
        )
    summary = summarize(ops, setup)
    repeats = node_repeats(ops)
    print("nodes " + json.dumps(repeats) + (
        " (exact repeat)" if all(len(v) <= 1 for v in repeats.values()) else " (DIFFER)"
    ))
    for name, unit in INFO_UNITS.items():
        print(f"info {name} {summary[name]} {unit}")
    if args.trace:
        values = layer_summary(ops)
    else:
        values = summary
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")

    attempted = len(ops)
    failed = sum(bool(op["failures"]) for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"args": vars(args), "env": env, "ops": ops, "probes": setup,
              "nodes": repeats, "summary": summary, "result": result}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
