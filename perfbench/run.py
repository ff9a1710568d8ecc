"""Run one inlr-kit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs single-threaded as a closed loop with one client: jobs
run back to back in passes over the workload's fixed job list, each pass
in a fresh interpreter, and every execution is checked against the
workload's oracle.  Times are given at a fixed reference speed: a short
calibration loop runs between jobs, and each time is scaled by how much
slower or faster than its reference time the loop ran around it.  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics, taken from spans around every call the
benchmark makes into the package.  A human-readable report goes to stderr.
See perfbench/README.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("matvec", "measure", "cc-explore", "props")
SETUP_SAMPLES = 5          # set-ups per run; setup_s is their median
TAIL_BEYOND = 10           # the tail percentile keeps this many jobs beyond
LAYERS = ("syntax", "typecheck", "rewrite", "qencode", "quantum", "cc", "gen")
PASS_TIMEOUT = 150         # seconds one pass process may take
# The calibration loop's time at the reference speed: about its time on a
# 2-vCPU x86-64 virtual machine under CPython 3.11 in a quiet stretch.
REF_CAL_S = 0.017
CAL_EVERY = 0.2            # seconds of jobs between two calibrations


# ---------------------------------------------------------------------------
# Calibration: pure Python of the kind the package runs (a tree of 16k
# frozen dataclass nodes built, rebuilt by recursion with isinstance
# dispatch, and hashed structurally).  It calls nothing in the package,
# so no change to the package can move it; it moves only with the speed
# of the machine.  Of the loops tried, this one tracked the machine's slow
# and fast stretches best; a small loop that stays in the CPU's caches
# tracked them about half as well.

@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


def _build(depth):
    return _Pair(_build(depth - 1), _build(depth - 1)) if depth else depth


def _mirror(t):
    if isinstance(t, _Pair):
        return _Pair(_mirror(t.right), _mirror(t.left))
    return t


def calibrate():
    """Seconds the calibration loop takes now: the faster of two.

    The collector is off while it runs: its work grows with the heap the
    jobs have left, and the loop must time the machine, not the heap.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            hash(_mirror(_build(13)))
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


# ---------------------------------------------------------------------------
# Tracing

class NoTrace:
    """The untraced run: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans (id, name, start, end, parent, job) kept in memory.

    A job span is the parent of the spans of the calls made inside it.
    """

    def __init__(self):
        self.spans = []
        self._job = None

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append((len(self.spans), name, start, end,
                               self._job[0], self._job[1]))

    def begin_job(self, job_id):
        self._job = (len(self.spans), job_id)
        self.spans.append(None)      # filled in by end_job

    def end_job(self, start, end):
        sid, job_id = self._job
        self.spans[sid] = (sid, "job", start, end, None, job_id)
        self._job = None


# ---------------------------------------------------------------------------
# One pass, in its own interpreter

def run_pass(name, seed, ids, traced, setup_only):
    """Set up, then run the jobs `ids` (None: the workload's own list).

    Set-up is importing the package and making the inputs of the jobs the
    pass runs.  A workload with a `select` hook picks its list during the
    pass that gets no ids; that pass makes each input just before its job,
    so its set-up time is not a sample of setup_s.
    """
    cal_before = calibrate()
    start = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name]
    jobs = wl.jobs(seed)
    selecting = ids is None and hasattr(wl, "select")
    if ids is not None:
        jobs = [jobs[i] for i in ids]
    inputs = {} if selecting else {job.id: wl.make(job) for job in jobs}
    setup = time.perf_counter() - start
    # A one-shot CLI run holds one input; a pass holds all of them.  Moving
    # the set-up's objects (modules and inputs) out of the collector's view
    # keeps every full collection during the jobs from walking them, which
    # would bill the harness's heap to whichever job it lands on.
    gc.freeze()
    cals = [calibrate()]
    rec = {"setup_s": setup, "setup_cal": (cal_before + cals[0]) / 2,
           "setup_valid": not selecting, "traced": traced}
    if setup_only:
        return rec

    tr = Tracer() if traced else NoTrace
    # Records are tuples of atoms, which the collector stops tracking, so
    # that thousands of them do not slow the collections the jobs trigger.
    done, window = [], []
    mark = time.perf_counter()

    def close_window():
        nonlocal mark
        cals.append(calibrate())
        done.extend(r + ((cals[-2] + cals[-1]) / 2,) for r in window)
        window.clear()
        mark = time.perf_counter()

    def run_once(job):
        inp = inputs.pop(job.id) if job.id in inputs else wl.make(job)
        if traced:
            tr.begin_job(job.id)
        t0 = time.perf_counter()
        try:
            out = wl.run(inp, tr)
        except Exception:            # a crashed job is a failed job
            t1 = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            out = None
        else:
            t1 = time.perf_counter()
        if traced:
            tr.end_job(t0, t1)
        ok, counts = (False, None) if out is None else wl.check(inp, out)
        window.append((job.id, t1 - t0, ok, job.known_defect, out is None,
                       counts and tuple(counts.items())))
        if time.perf_counter() - mark >= CAL_EVERY:
            close_window()
        return out

    if selecting:
        jobs = wl.select(jobs, run_once)
    else:
        for job in jobs:
            run_once(job)
    if window:
        close_window()
    kept = {job.id for job in jobs}
    rec["ids"] = [job.id for job in jobs]
    rec["jobs"] = [{"job": i, "s": dt, "ok": ok, "defect": defect,
                    "crashed": crashed, "counts": counts and dict(counts),
                    "cal": cal}
                   for i, dt, ok, defect, crashed, counts, cal in done
                   if i in kept or crashed]
    rec["spans"] = tr.spans if traced else None
    rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rec


def spawn(name, seed, ids, traced=False, setup_only=False):
    """Run one pass in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--pass",
           "--workload", name, "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    res = subprocess.run(cmd, input=json.dumps(ids), capture_output=True,
                         text=True, timeout=PASS_TIMEOUT)
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise RuntimeError(f"a {name} pass exited with {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_passes(name, seed, seconds, traced):
    """Pass 1 untraced; then more passes while the next one fits.

    Pass 1 fixes the job list.  A traced run alternates traced and
    untraced passes, so that both see the same machine, and always makes
    at least one traced pass.
    """
    start = time.perf_counter()
    passes = [spawn(name, seed, None)]
    ids = passes[0]["ids"]
    last = time.perf_counter() - start     # wall time of the last pass
    while True:
        elapsed = time.perf_counter() - start
        traced_next = traced and len(passes) % 2 == 1
        must = traced and not any(p["traced"] for p in passes)
        if not must and elapsed + last > seconds:
            break
        passes.append(spawn(name, seed, ids, traced_next))
        last = time.perf_counter() - start - elapsed
    return passes, ids, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Results

class Results:
    """Every execution of every pass, checked and scaled."""

    def __init__(self, passes, ids):
        self.passes = passes
        self.ids = ids
        self.times = {i: [] for i in ids}    # untraced, reference seconds
        self.raw = {i: [] for i in ids}      # untraced, measured seconds
        self.counts = {}                     # job id -> first counts
        self.attempted = self.failed = self.unexpected = 0
        self.nondeterministic = 0
        for p in passes:
            for r in p["jobs"]:
                self.attempted += 1
                if not r["ok"]:
                    self.failed += 1
                    self.unexpected += not r["defect"]
                if r["job"] not in self.counts:
                    self.counts[r["job"]] = r["counts"]
                elif self.counts[r["job"]] != r["counts"]:
                    self.nondeterministic += 1
                if not p["traced"] and r["job"] in self.times:
                    self.times[r["job"]].append(r["s"] * REF_CAL_S / r["cal"])
                    self.raw[r["job"]].append(r["s"])

    @property
    def correct(self):
        return self.unexpected == 0 and self.nondeterministic == 0

    def pass_seconds(self, traced):
        """Each pass's time for the jobs in the list, at the reference
        speed."""
        return [sum(r["s"] * REF_CAL_S / r["cal"] for r in p["jobs"]
                    if r["job"] in self.times)
                for p in self.passes if p["traced"] == traced]

    def digest(self):
        blob = json.dumps([self.counts.get(i) for i in self.ids],
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    jobs beyond it."""
    xs = sorted(values)
    k = max(1, len(xs) - TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / len(xs)


def latency_figures(per_job):
    """jobs_per_s, p50 and tail from each job's median latency."""
    lat = [statistics.median(v) for v in per_job.values()]
    tail_s, tail_pct = tail(lat)
    return (len(lat) / sum(lat), statistics.median(lat) * 1e3,
            tail_s * 1e3, tail_pct)


def end_to_end(res, setups):
    """The end-to-end figures, and notes for stderr.

    A job's latency is the median of its untraced executions, at the
    reference speed; the throughput is the list's length over the sum of
    those latencies.
    """
    jps, p50, tail_ms, tail_pct = latency_figures(res.times)
    raw_jps, raw_p50, raw_tail, _ = latency_figures(res.raw)
    setup_ref = [s * REF_CAL_S / c for s, c in setups]
    speeds = [REF_CAL_S / r["cal"] for p in res.passes for r in p["jobs"]]
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "jobs_per_s": (jps, "1/s"),
        "job_p50_ms": (p50, "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "pass_ratio": (1.0 - res.failed / res.attempted, "ratio"),
        "peak_rss_mb": (max(p["rss_mb"] for p in res.passes), "MB"),
    }
    notes = {
        "fail_ratio": (res.failed / res.attempted, "ratio"),
        "job_tail_percentile": (tail_pct, "%"),
        "jobs_in_list": (len(res.ids), "count"),
        "passes": (len(res.passes), "count"),
        "measured_setup_s": (statistics.median(s for s, _ in setups), "s"),
        "measured_jobs_per_s": (raw_jps, "1/s"),
        "measured_job_p50_ms": (raw_p50, "ms"),
        "measured_job_tail_ms": (raw_tail, "ms"),
        "speed_vs_reference": (statistics.median(speeds), "ratio"),
    }
    return metrics, notes


def traced_spans(res):
    """The traced passes' spans, each with its scale to reference seconds.

    Span ids are made unique across passes.
    """
    out = []
    offset = 0
    for p in res.passes:
        if not p["traced"]:
            continue
        scale = {r["job"]: REF_CAL_S / r["cal"] for r in p["jobs"]}
        for sid, name, start, end, parent, job in p["spans"]:
            out.append((sid + offset, name, start, end,
                        None if parent is None else parent + offset, job,
                        scale[job]))
        offset += len(p["spans"])
    return out


def per_layer(res, spans):
    """Per-pass layer figures from the traced passes and the job counts."""
    passes = sum(p["traced"] for p in res.passes)
    busy = {}
    calls = {}
    child = {}
    for sid, name, start, end, parent, _, scale in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start) * scale
    layer_self = dict.fromkeys(LAYERS + ("harness",), 0.0)
    for sid, name, start, end, parent, _, scale in spans:
        dur = (end - start) * scale
        busy[name] = busy.get(name, 0.0) + dur / passes
        calls[name] = calls.get(name, 0) + 1
        layer = "harness" if name == "job" else name.split(".")[0]
        layer_self[layer] += (dur - child.get(sid, 0.0)) / passes
    total = {}
    for i in res.ids:
        for key, v in (res.counts.get(i) or {}).items():
            total[key] = total.get(key, 0) + v

    def s(name):
        return busy.get(name, 0.0)

    def n(name):
        return calls.get(name, 0) // passes

    def rate(num, den):
        return num / den if den else 0.0

    out = {
        "rewrite.normalize_s": (s("rewrite.normalize"), "s"),
        "rewrite.normalize_calls": (n("rewrite.normalize"), "count"),
        "rewrite.steps": (total.get("steps", 0), "count"),
        "rewrite.steps_per_s": (rate(total.get("steps", 0),
                                     s("rewrite.normalize")), "1/s"),
        "rewrite.step_at_s": (s("rewrite.step_at"), "s"),
        "rewrite.step_at_calls": (n("rewrite.step_at"), "count"),
        "rewrite.find_redexes_s": (s("rewrite.find_redexes"), "s"),
        "rewrite.join_peak_s": (s("rewrite.join_peak"), "s"),
        "rewrite.join_peak_calls": (n("rewrite.join_peak"), "count"),
        "syntax.parse_s": (s("syntax.parse_term"), "s"),
        "syntax.parse_chars_per_s": (rate(total.get("parse_chars", 0),
                                          s("syntax.parse_term")), "1/s"),
        "syntax.print_s": (s("syntax.print_term"), "s"),
        "syntax.term_nodes": (total.get("term_nodes", 0), "count"),
        "typecheck.infer_s": (s("typecheck.infer"), "s"),
        "typecheck.infer_calls": (n("typecheck.infer"), "count"),
        "qencode.compile_s": (s("qencode.compile_matrix"), "s"),
        "qencode.from_vector_s": (s("qencode.from_vector"), "s"),
        "qencode.to_vector_s": (s("qencode.to_vector"), "s"),
        "quantum.run_measure_s": (s("quantum.run_measure"), "s"),
        "quantum.shots": (total.get("shots", 0), "count"),
        "quantum.shots_per_s": (rate(total.get("shots", 0),
                                     s("quantum.run_measure")), "1/s"),
        "quantum.bins": (total.get("bins", 0), "count"),
        "quantum.exact_ratio": (rate(total.get("exact_bins", 0),
                                     total.get("bins", 0)), "ratio"),
        "cc.explore_s": (s("cc.explore"), "s"),
        "cc.nodes": (total.get("nodes", 0), "count"),
        "cc.edges": (total.get("edges", 0), "count"),
        "cc.normal_forms": (total.get("normal_forms", 0), "count"),
        "cc.truncated": (total.get("truncated", 0), "count"),
        "cc.nodes_per_s": (rate(total.get("nodes", 0), s("cc.explore")),
                           "1/s"),
        "cc.complete_ratio": (rate(n("cc.explore")
                                   - total.get("truncated", 0),
                                   n("cc.explore")), "ratio"),
        "cc.to_dot_s": (s("cc.to_dot"), "s"),
        "gen.term_s": (s("gen.random_term_in_context"), "s"),
        "gen.terms": (n("gen.random_term_in_context"), "count"),
    }
    for layer in LAYERS + ("harness",):
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    out["trace.overhead_ratio"] = (
        statistics.median(res.pass_seconds(True))
        / statistics.median(res.pass_seconds(False)), "ratio")
    return out


def write_spans(path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, job, scale in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent, "job": job,
                                 "scale": scale}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One pass in this process; job ids (JSON) on stdin.
    ap.add_argument("--pass", dest="one_pass", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one_pass:
        rec = run_pass(args.workload, args.seed, json.load(sys.stdin),
                       bool(args.trace), args.setup_only)
        print(json.dumps(rec))
        return 0
    if args.seconds is None or args.seconds <= 0:
        ap.error("--seconds must be given and positive")
    if not (ROOT / "src" / "inlr_kit" / "__init__.py").is_file():
        print(f"error: no inlr_kit package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    passes, ids, wall = run_passes(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    res = Results(passes, ids)

    if args.trace:
        spans = traced_spans(res)
        metrics = per_layer(res, spans)
        notes = {}
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(out, spans)
        print(f"spans: {len(spans)} written to {out.relative_to(ROOT)}",
              file=sys.stderr)
    else:
        setups = [(p["setup_s"], p["setup_cal"]) for p in passes
                  if p["setup_valid"]]
        while len(setups) < SETUP_SAMPLES:
            p = spawn(args.workload, args.seed, ids, setup_only=True)
            setups.append((p["setup_s"], p["setup_cal"]))
        metrics, notes = end_to_end(res, setups)

    print(f"workload {args.workload} seed {args.seed}: {len(ids)} jobs in "
          f"the list, {res.attempted} executions, {res.failed} failed "
          f"({res.unexpected} unexpected), wall {wall:.1f} s",
          file=sys.stderr)
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"  counts digest {res.digest()} "
          f"({res.nondeterministic} executions off their first counts)",
          file=sys.stderr)

    result = {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
