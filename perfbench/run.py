"""Benchmark of textlime: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
Each workload runs one caller in a closed loop for ``--seconds`` (ending on a
block boundary), checks every op's output, and prints a report whose last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
half the time untraced, replays the same ops with spans around the layers
(see ``spans.py``), and reports the per-layer metrics. The process is single
threaded and has no queue, so no layer waits and no wait metric exists.

The BLAS thread count is pinned to 1 before numpy is imported: on a small
machine the default threading makes the figures measure the scheduler.

Times are reported in reference seconds: a fixed calibration kernel (numpy
sorts, a small matrix product and a Python loop; no textlime code) runs
before and after every op and after every set-up, and each time is scaled by
``REFERENCE_S`` over the kernel's time around it. A shared machine can change
speed by a third for tens of seconds; the scaling cancels that, so runs made
minutes apart stay comparable. Raw wall times are printed above the result.
Exit code 0 means the benchmark ran; a failed op is reported, not fatal.
"""

from __future__ import annotations

import os
import sys

_PRIOR_BLAS = os.environ.get("OPENBLAS_NUM_THREADS")
_NUMPY_PREIMPORTED = "numpy" in sys.modules
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5  # this process plus four fresh ones
DIGEST_BLOCKS = 8
MIN_OPS = 11  # the tail percentile needs ten ops beyond it
WARMUP_OPS = 4  # untimed, from a block no measured op comes from
PROBE_TIMEOUT_S = 60
REFERENCE_S = 0.003  # what the calibration kernel takes on the reference machine



class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def calibrate(repeats=1):
    """Median wall time of a fixed kernel; needs numpy, so runs after set-up."""
    import numpy as np

    data = np.random.default_rng(0).random((2000, 32))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        data.argsort(axis=1).argsort(axis=1)
        data.T @ (data * 0.5)
        total = 0.0
        for i in range(40000):
            total += i * 0.5
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Put the checkout's src/ first on the path and check textlime comes from it."""
    if not (SRC / "textlime" / "__init__.py").is_file():
        raise BenchmarkError("no textlime sources under %s" % SRC)
    for key in os.environ:
        if key.startswith("TEXTLIME_"):
            raise BenchmarkError("environment variable %s would change CLI defaults" % key)
    sys.path.insert(0, str(SRC))
    import textlime

    if Path(textlime.__file__).resolve().parent != (SRC / "textlime").resolve():
        raise BenchmarkError("textlime imported from %s, not from the checkout" % textlime.__file__)
    import textlime.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    return textlime


def digest(workload, seed, prepared, state) -> str:
    """Digest of the inputs: the prepared data and the first blocks of ops."""
    blocks = [workload.block(state, seed, b) for b in range(DIGEST_BLOCKS)]
    payload = json.dumps({"prepared": prepared, "blocks": blocks}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def set_up(workload, seed, tmp):
    """Generate inputs, then time the program's set-up."""
    prepared = workload.prepare(seed)
    start = time.perf_counter()
    tl = import_program()
    state = workload.setup(prepared, tmp)
    setup_s = time.perf_counter() - start
    return tl, prepared, state, {"raw": setup_s, "scaled": setup_s * REFERENCE_S / calibrate(3)}


def probe_setup(args):
    """Child mode: set up once, report the set-up time and the input digest."""
    workload = wl.WORKLOADS[args.workload]
    tmp = OUT / ("probe-%d" % os.getpid())
    try:
        _, prepared, state, setup = set_up(workload, args.seed, tmp)
        print(json.dumps({"setup": setup, "digest": digest(workload, args.seed, prepared, state)}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def fresh_setups(args, count):
    """Set up in fresh processes, one after another; each is waited for."""
    results = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError("set-up probe failed:\n" + proc.stderr[-2000:])
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def check_purity(workload, seed, prepared, state, expected, probes):
    """The op list must be a pure function of the seed, across processes too."""
    again = digest(workload, seed, workload.prepare(seed), state)
    if again != expected:
        raise BenchmarkError("inputs differ between two generations from seed %d" % seed)
    for probe in probes:
        if probe["digest"] != expected:
            raise BenchmarkError("a fresh process generated other inputs from seed %d" % seed)
    if digest(workload, seed + 1, workload.prepare(seed + 1), state) == expected:
        raise BenchmarkError("inputs do not depend on the seed")


def run_ops(workload, state, ops, declined, tracer=None):
    """Run ops one after another; time each call, then collect its output untimed.

    ``latency`` is in reference seconds, ``wall`` the raw wall time.
    """
    records = []
    before = calibrate()
    for op in ops:
        call = workload.stage(state, op)
        outcome, detail, raw = None, "", None
        start = time.perf_counter()
        try:
            raw = tracer.op(call) if tracer else call()
        except declined as exc:
            outcome, detail = wl.DECLINED, repr(exc)
        except Exception:  # a failed op is recorded and the loop goes on
            outcome, detail = wl.FAILED, traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        after = calibrate()
        scaled = latency * REFERENCE_S / ((before + after) / 2.0)
        before = after
        result = None
        if outcome is None:
            try:
                result = workload.collect(state, op, raw)
            except Exception:  # unreadable output is a failed op
                outcome, detail = wl.FAILED, traceback.format_exc(limit=3)
        records.append({"op": op, "latency": scaled, "wall": latency, "outcome": outcome, "detail": detail,
                        "result": result})
    return records


def closed_loop(workload, state, seed, seconds, declined):
    """Blocks of ops until `seconds` have passed at a block boundary.

    Returns the op records, the ops, and each block's throughput in ops per
    reference second of op time.
    """
    records, ops, rates = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        block = workload.block(state, seed, index)
        done = run_ops(workload, state, block, declined)
        rates.append(len(done) / sum(r["latency"] for r in done))
        records += done
        ops += block
        index += 1
        elapsed = time.perf_counter() - start
        # Stop at the block boundary nearest to `seconds`.
        if elapsed + elapsed / (2 * index) >= seconds and len(records) >= MIN_OPS:
            return records, ops, rates


def judge_all(workload, state, records):
    for rec in records:
        if rec["outcome"] is None:
            rec["outcome"], rec["detail"] = workload.judge(state, rec["op"], rec["result"])
    for k, detail in workload.final_check(state, [r for r in records if r["outcome"] == wl.OK]).items():
        for rec in records:
            if rec["op"]["k"] == k:
                rec["outcome"], rec["detail"] = wl.FAILED, detail


def pass_ratio(records):
    """Share of attempted ops that did not fail (ok or declined)."""
    return sum(r["outcome"] != wl.FAILED for r in records) / len(records)


def self_check(workload, state, records):
    """An injected wrong output must lower pass_ratio."""
    good = [r for r in records if r["outcome"] == wl.OK]
    if not good:
        return "no op passed its check, so no output could be corrupted"
    rec = good[0]
    outcome, _ = workload.judge(state, rec["op"], workload.corrupt(rec["op"], rec["result"]))
    if not pass_ratio(records + [{"outcome": outcome}]) < pass_ratio(records):
        raise BenchmarkError("an injected wrong output was not counted as failed")
    return "injected wrong output counted as failed"


def tail(latencies):
    """The highest percentile with at least ten ops beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def environment(args, tl, workload, state, ops):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS_before": _PRIOR_BLAS,
        "blas_pinned_before_numpy_import": not _NUMPY_PREIMPORTED,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "textlime": getattr(tl, "__version__", "unknown"),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "d": workload.d_values(state, ops),
        "loop": "closed, one caller",
    }


def declared_units(trace):
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, trace):
    units = declared_units(trace)
    if set(values) != set(units):
        raise BenchmarkError("metrics %s differ from BENCHMARK.json %s" % (sorted(values), sorted(units)))
    return {k: (values[k], units[k]) for k in units}


def report(lines, records, metrics):
    for line in lines:
        print(line)
    failed = sum(r["outcome"] == wl.FAILED for r in records)
    for rec in [r for r in records if r["outcome"] == wl.FAILED][:3]:
        print("failed op %d: %s" % (rec["op"]["k"], rec["detail"].strip().splitlines()[-1]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def end_to_end(setup, probes, records, rates, lines):
    setups = [setup] + [p["setup"] for p in probes]
    latencies = [r["latency"] for r in records]
    walls = [r["wall"] for r in records]
    op_tail, pct = tail(latencies)
    metrics = with_units({
        "setup_s": statistics.median(s["scaled"] for s in setups),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * op_tail,
        "pass_ratio": pass_ratio(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, 0)
    lines.append("set-up (reference s): " + ", ".join("%.4f" % s["scaled"] for s in setups))
    lines.append("set-up (wall s): " + ", ".join("%.4f" % s["raw"] for s in setups))
    lines.append("op wall time: p50 %.2f ms, 11th slowest %.2f ms"
                 % (1000.0 * statistics.median(walls), 1000.0 * tail(walls)[0]))
    lines.append("op_tail_ms is p%.2f of %d ops" % (pct, len(latencies)))
    lines += ["%-12s %.6g %s" % (k, v, u) for k, (v, u) in metrics.items()]
    return metrics


def per_layer(args, env, tl, tracer, untraced, traced, records, lines):
    import spans

    layer, check = spans.layer_metrics(tracer)
    if not check["holds"]:
        raise BenchmarkError("self times do not add up to the traced op time: %s" % check)
    layer["trace_overhead"] = statistics.median(r["latency"] for r in traced) / statistics.median(untraced)
    layer["theory.declined_ratio"] = sum(r["outcome"] == wl.DECLINED for r in records) / len(records)
    probe = wl.bandwidth_probe(tl)
    layer["theory.probe_sound_ratio"] = probe["sound_ratio"]
    metrics = with_units(layer, 1)
    path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(path, {"env": env, "sum_check": check, "not_observed": tracer.not_observed})
    lines.append("spans written to %s" % path.relative_to(ROOT))
    lines.append("no layer waits: one thread, no queue; no wait metric is recorded")
    lines.append("not observed: " + (", ".join(tracer.not_observed) or "none"))
    lines.append("bandwidth probe, single indicator off e_j (untimed): " + (", ".join(probe["wrong"]) or "none"))
    lines.append("sum check: self times + unattributed = %.4f ms, traced op = %.4f ms over %d ops"
                 % (check["self_plus_unattributed_ms"], check["traced_op_ms"], check["ops"]))
    lines.append("computed, not measured: sampling.draw_feature_matrix.cells, surrogate.gram_flops")
    lines += ["%-40s %.6g %s" % (k, v, u) for k, (v, u) in metrics.items()]
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    if _NUMPY_PREIMPORTED:
        raise BenchmarkError("numpy was imported before the BLAS thread count was pinned")
    workload = wl.WORKLOADS[args.workload]
    tmp = OUT / ("tmp-%d" % os.getpid())
    try:
        tl, prepared, state, setup = set_up(workload, args.seed, tmp)
        declined = getattr(tl, "ClosedFormDomainError", ())
        expected = digest(workload, args.seed, prepared, state)
        probes = fresh_setups(args, SETUP_SAMPLES - 1) if args.trace == 0 else []
        check_purity(workload, args.seed, prepared, state, expected, probes)

        run_ops(workload, state, workload.block(state, args.seed, -1)[:WARMUP_OPS], declined)
        seconds = args.seconds if args.trace == 0 else args.seconds / 2.0
        records, ops, rates = closed_loop(workload, state, args.seed, seconds, declined)
        untraced = [r["latency"] for r in records]

        tracer, traced = None, []
        if args.trace == 1:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_ops(workload, state, ops, declined, tracer)
            finally:
                tracer.uninstall()
            records += traced

        judge_all(workload, state, records)
        self_note = self_check(workload, state, records)
        env = environment(args, tl, workload, state, ops)
        lines = ["env " + json.dumps(env), "input digest " + expected, "self-check: " + self_note]
        residuals = [r["residual"] for r in records if "residual" in r]
        if residuals:
            lines.append("normal-equation residual: max %.3g over %d rebuilt batches" % (max(residuals), len(residuals)))

        if args.trace == 0:
            metrics = end_to_end(setup, probes, records, rates, lines)
        else:
            metrics = per_layer(args, env, tl, tracer, untraced, traced, records, lines)
        report(lines, records, metrics)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, ImportError, subprocess.SubprocessError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        sys.exit(2)
