"""lctplane benchmark: one closed-loop client, three workloads, every answer checked.

    python3 lctbench/run.py --workload lct-mixed --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; lctplane is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".lctbench"

# The body of the installed ``lctplane`` console script, plus a last stderr
# line with the child's own peak RSS (the calibration children must not count).
CLI_SCRIPT = (
    "import atexit, resource, sys; atexit.register(lambda: sys.stderr.write("
    "f'\\npeak_rss_kb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\\n')); "
    "from lctplane.cli import main; sys.exit(main())"
)
READY_SCRIPT = "import sys; from lctplane.cli import main; sys.stdout.write('ready\\n'); sys.stdout.flush()"
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120
METHODS = ("trivial", "highmult", "classifier", "resolution")

# Seconds one pass over each corpus takes at the reference host speed,
# calibration included.  A run makes --seconds // this whole passes, at least
# one and at least MIN_QUERIES queries, so every run of a workload sends each
# query equally often and its tail covers the same queries.
NOMINAL_PASS_S = {"cli-cold": 6.0, "lct-mixed": 22.0, "resolve-deep": 8.0}
# Enough that the tail percentile, with 10 samples beyond it, lies above the median.
MIN_QUERIES = 22

# Reference durations of ``calibration_kernel`` and ``sympy_import``; reported
# times are scaled to this host speed (see host_scale), and only their
# constancy matters.  The kernel figure is its duration on the 2-core x86-64
# VM (CPython 3.11, sympy 1.14) the benchmark was first tuned on; the import
# figure is a round value of the same speed (the import took 0.55-0.7 s on
# such a VM on a day it ran the kernel about twice as slow).
REFERENCE_KERNEL_S = 1.3e-3
REFERENCE_SYMPY_IMPORT_S = 0.35


def calibration_kernel():
    """Fixed Fraction and dict work, the instruction mix of lctplane's term
    arithmetic.  Its duration tracks the speed the host gives this process."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 301):
        key = (i % 17, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * Fraction(3, i + 1)
    return time.perf_counter() - t0


def sympy_import():
    """Seconds to start an interpreter that imports sympy and exits: most of
    what a cold CLI run does, without lctplane.  Per query, its ratio to the
    CLI's time spread half as much as that of a bare interpreter start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sympy"], cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t0


# (calibration function, its reference duration, gaps on each side of a query
# whose samples scale it).  In-process queries are short, so they take the
# median of more gaps: one 1.3 ms sample is a noisy estimate of host speed.
IN_PROCESS_CALIBRATION = (calibration_kernel, REFERENCE_KERNEL_S, 5)
SUBPROCESS_CALIBRATION = (sympy_import, REFERENCE_SYMPY_IMPORT_S, 2)


def host_scale(before, after, reference):
    """Factor that scales an interval to the reference host speed, from
    calibration samples taken just before and just after it.

    The host is shared: the same pass over the same corpus can take 25% longer
    a minute later, and the speed changes within seconds.  Scaling each
    measured interval by its neighbouring samples cancels most of that."""
    return reference / statistics.median(before + after)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- set-up and import time ----------------------------------------------------


def fresh_setup():
    """Seconds from spawning a fresh interpreter to ``main`` being importable."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", READY_SCRIPT], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"lctplane.cli failed to import:\n{err}")
    return elapsed


def measure_setup():
    """Median of SETUP_REPEATS fresh set-ups, each scaled to the reference
    host speed by the calibration samples on either side of it."""
    calibrate, reference, _ = SUBPROCESS_CALIBRATION
    fresh_setup()  # the first spawn compiles bytecode, a one-time cost
    calib = [calibrate()]
    scaled = []
    for _ in range(SETUP_REPEATS):
        elapsed = fresh_setup()
        calib.append(calibrate())
        scaled.append(elapsed * host_scale(calib[-2:-1], calib[-1:], reference))
    return statistics.median(scaled)


def import_times(stderr):
    """``import.sympy_ms`` and ``import.lctplane_ms`` from ``-X importtime``.

    sympy counts wherever it is imported; lctplane counts its top-level
    entries minus the sympy import nested beneath them."""
    sympy_us = lctplane_us = 0
    nested_sympy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        us = int(cumulative)
        if name.strip() == "sympy":
            sympy_us += us
            nested_sympy += us
        if name.startswith(" ") and not name.startswith("  "):  # top level
            if name.strip().split(".")[0] == "lctplane":
                lctplane_us += us - nested_sympy
            nested_sympy = 0
    return {"import.sympy_ms": sympy_us / 1e3, "import.lctplane_ms": lctplane_us / 1e3}


def measure_imports(repeats=3):
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", READY_SCRIPT], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"lctplane.cli failed to import:\n{proc.stderr}")
        runs.append(import_times(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- clients -------------------------------------------------------------------


class InProcessClient:
    """Calls ``lctplane.cli.main(argv)`` and captures what it prints."""

    def __init__(self):
        import lctplane.cli

        self.cli = lctplane.cli

    def __call__(self, query, request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(query.argv))  # looked up per call, so a tracer can wrap it
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            except Exception as exc:  # an unexpected exception is a failed query
                rc = f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue()


class SubprocessClient:
    """Runs the ``lctplane`` CLI in a fresh interpreter per query."""

    calibration = SUBPROCESS_CALIBRATION

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.imports = []
        self.peak_rss_kb = 0

    def __call__(self, query, request):
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_SCRIPT, *query.argv]
        else:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "child.py"), str(request), *query.argv]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return f"timeout after {SUBPROCESS_TIMEOUT_S} s", ""
        if self.tracer is None:
            last = proc.stderr.rstrip().rpartition("\n")[2]
            if last.startswith("peak_rss_kb="):
                self.peak_rss_kb = max(self.peak_rss_kb, int(last.partition("=")[2]))
            return proc.returncode, proc.stdout
        if proc.returncode != 0:
            return f"traced child failed: {proc.stderr[-300:]}", ""
        payload = json.loads(proc.stdout.splitlines()[-1])
        self.tracer.merge(payload["trace"])
        self.imports.append(import_times(proc.stderr))
        return payload["rc"], payload["stdout"]


# -- the closed loop and answer checking ------------------------------------------


def closed_loop(queries, client, passes=1):
    """Send every query of the corpus ``passes`` times, in corpus order, each
    after the previous answer.

    Returns (records, elapsed): one (query index, exit code, output, latency)
    record per query sent.  A calibration sample is taken between queries;
    each latency is scaled to the reference host speed by the samples of the
    ``gaps`` gaps on each side of it."""
    calibrate, reference, gaps = getattr(client, "calibration", IN_PROCESS_CALIBRATION)
    calib = [calibrate()]
    raw = []
    t_start = time.perf_counter()
    for _ in range(passes):
        for i, q in enumerate(queries):
            t0 = time.perf_counter()
            rc, out = client(q, i)
            raw.append((i, rc, out, time.perf_counter() - t0))
            calib.append(calibrate())
    elapsed = time.perf_counter() - t_start
    records = []
    for j, (i, rc, out, latency) in enumerate(raw):
        before, after = calib[max(j + 1 - gaps, 0):j + 1], calib[j + 1:j + 1 + gaps]
        records.append((i, rc, out, latency * host_scale(before, after, reference)))
    return records, elapsed


def oracle_references(queries):
    """Resolution-oracle lct for the queries without a construction
    reference, computed after the timed loop."""
    from lctplane import lct_from_tree, parse_poly, resolve_over_origin

    refs = {}
    for i, q in enumerate(queries):
        if q.reference is not None:
            refs[i] = q.reference
            continue
        try:
            refs[i] = lct_from_tree(resolve_over_origin(parse_poly(q.text).translate(q.point)))
        except Exception as exc:  # no reference: the query cannot be checked
            print(f"warning: oracle failed on query {i} ({q.family}): {exc!r}")
            refs[i] = None
    return refs


def judge(query, reference, rc, out):
    """(correct, method) for one answer.  A refusal is correct only with its
    documented exit code; otherwise the lct must equal the reference."""
    method = "resolution" if query.argv[0] == "resolve" else query.dispatch
    if rc != 0:
        return query.refusal_code is not None and rc == query.refusal_code, method
    try:
        payload = json.loads(out)
    except ValueError:
        return False, method
    method = payload.get("method", method)
    return reference is not None and payload.get("lct") == str(reference), method


def score(queries, refs, records):
    verdicts = [judge(queries[i], refs[i], rc, out) for i, rc, out, _ in records]
    failures = Counter(queries[i].family for (i, *_), (ok, _) in zip(records, verdicts) if not ok)
    return verdicts, failures


def tail(latencies):
    """Value at the highest percentile with at least 10 samples beyond it,
    that percentile, and the sample count."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - 11, 0)
    return lat[k], 100.0 * (k + 1) / n, n


# -- reporting --------------------------------------------------------------------


def stamp(args, fp):
    import sympy

    try:
        from lctplane import KERNEL_BACKEND
    except ImportError:
        KERNEL_BACKEND = "absent"
    return (
        f"workload={args.workload} seed={args.seed} fingerprint={fp} kernel={KERNEL_BACKEND} "
        f"python={platform.python_version()} sympy={sympy.__version__} "
        f"nproc={len(os.sched_getaffinity(0))}"
    )


def emit(lines, correct, attempted, failed, metrics):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_untraced(args, queries, client, cold):
    setup_s = measure_setup()
    passes = max(int(args.seconds // NOMINAL_PASS_S[args.workload]), -(-MIN_QUERIES // len(queries)))
    records, elapsed = closed_loop(queries, client, passes)
    peak_rss_kb = client.peak_rss_kb if cold else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    refs = oracle_references(queries)
    verdicts, failures = score(queries, refs, records)
    attempted = len(records)
    n_ok = sum(ok for ok, _ in verdicts)
    failed = attempted - n_ok
    latencies = [r[3] for r in records]
    busy = sum(latencies)
    tail_s, pct, n = tail(latencies)
    lines = [
        f"latency_tail_ms is p{pct:.2f} of {n} samples (10 beyond it)",
        f"error_ratio = {failed / attempted:.6g} ({failed} of {attempted} attempted)",
        f"sent {attempted} queries ({passes} passes) in {elapsed:.3f} s wall, "
        f"{busy:.3f} s at reference speed; unscaled queries_per_s = {n_ok / elapsed:.6g}",
    ] + [f"failed family {fam}: {cnt}" for fam, cnt in sorted(failures.items())]
    metrics = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (n_ok / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    return lines, failed == 0, attempted, failed, metrics


def run_traced(args, queries, client, cold, fp):
    from spans import Tracer

    imports = None if cold else measure_imports()
    # one untraced pass, then one traced pass over the same queries
    plain, plain_s = closed_loop(queries, client)
    tracer = Tracer()
    if cold:
        traced_client = SubprocessClient(tracer)
        traced, traced_s = closed_loop(queries, traced_client)
        imports = {k: statistics.median(r[k] for r in traced_client.imports) for k in traced_client.imports[0]}
    else:
        tracer.install()
        try:
            def traced_call(q, i):
                tracer.current_request = i
                return client(q, i)

            traced, traced_s = closed_loop(queries, traced_call)
        finally:
            tracer.uninstall()
    refs = oracle_references(queries)
    plain_v, plain_fail = score(queries, refs, plain)
    traced_v, traced_fail = score(queries, refs, traced)
    # tracing must not change an answer or a dispatch
    changed = sum(a[1:3] != b[1:3] for a, b in zip(plain, traced))
    plain_methods = Counter(m for _, m in plain_v)
    traced_methods = Counter(m for _, m in traced_v)
    if plain_methods != traced_methods:
        changed += 1
    attempted = len(plain) + len(traced)
    n_ok_plain = sum(ok for ok, _ in plain_v)
    n_ok_traced = sum(ok for ok, _ in traced_v)

    metrics = {}
    units = {"calls": "count", "self_ms": "ms", "terms_max": "count", "coeff_bits_max": "bits",
             "degree_max": "count", "blowups": "count", "blowups_max": "count", "refusals": "count"}
    for name, value in tracer.layer_metrics().items():
        metrics[name] = (value, units[name.rsplit(".", 1)[1]])
    metrics["import.sympy_ms"] = (imports["import.sympy_ms"], "ms")
    metrics["import.lctplane_ms"] = (imports["import.lctplane_ms"], "ms")
    by_method = defaultdict(list)
    for (_, _, _, latency), (_, method) in zip(plain, plain_v):
        by_method[method].append(latency)
    for method in METHODS:
        lat = by_method.get(method, [])
        metrics[f"method.{method}.p50_ms"] = (statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    plain_qps = n_ok_plain / sum(r[3] for r in plain)
    traced_qps = n_ok_traced / sum(r[3] for r in traced)
    metrics["trace.overhead_ratio"] = (plain_qps / traced_qps if traced_qps else 0.0, "ratio")

    # The corpus fixes these counts, so every traced run of a seed must repeat
    # those of the first one, recorded in the checkout.
    counts = {name: value for name, (value, _) in metrics.items()
              if name.endswith(".calls") or name == "resolution.blowups"}
    counts.update((f"method.{m}.count", n) for m, n in sorted(plain_methods.items()))
    SPAN_DIR.mkdir(exist_ok=True)
    record = SPAN_DIR / f"{args.workload}.seed{args.seed}.counts.json"
    previous = json.loads(record.read_text()) if record.is_file() else None
    differ = []
    if previous is not None and previous["fingerprint"] == fp:
        differ = sorted(k for k in counts.keys() | previous["counts"].keys()
                        if counts.get(k) != previous["counts"].get(k))
    else:
        record.write_text(json.dumps({"fingerprint": fp, "counts": counts}))
    failed = min(attempted, attempted - n_ok_plain - n_ok_traced + changed + bool(differ))

    span_file = SPAN_DIR / f"{args.workload}.spans.tsv"
    tracer.write(span_file, stamp(args, fp))
    lines = [
        f"spans = {len(tracer.layer)} written to {span_file.relative_to(ROOT)}",
        f"untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s",
        f"answers changed by tracing = {changed}",
        f"counts differing from the first traced run of this seed = {len(differ)} {differ[:5]}",
    ]
    # fixed by the corpus and the CLI's dispatch, so a check rather than a metric
    lines += [f"method.{m}.count = {plain_methods[m]} (traced pass: {traced_methods[m]})"
              for m in sorted(plain_methods | traced_methods)]
    lines += [f"failed family {fam}: {cnt}" for fam, cnt in sorted((plain_fail + traced_fail).items())]
    return lines, failed == 0, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "lct-mixed", "resolve-deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lctplane" / "cli.py").is_file():
        print(f"error: {SRC / 'lctplane'} not found; run from the root of an lctplane checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus

    queries = corpus.WORKLOADS[args.workload](args.seed)
    fp = corpus.fingerprint(queries)
    cold = args.workload == "cli-cold"
    client = SubprocessClient() if cold else InProcessClient()
    print(f"stamp: {stamp(args, fp)}")
    print(f"corpus: {len(queries)} queries, " + ", ".join(
        f"{k}={v}" for k, v in sorted(Counter(q.dispatch for q in queries).items())))
    if args.trace:
        result = run_traced(args, queries, client, cold, fp)
    else:
        result = run_untraced(args, queries, client, cold)
    emit(*result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
