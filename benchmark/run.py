#!/usr/bin/env python3
"""Benchmark for the Garibaldi simulator.

Builds the root library and benchmark/garibaldi_bench, runs reps of the
four workloads (one rep per process, one process at a time), checks
their outputs and prints every metric by name with its unit.  The
metrics, workloads and traces are described in benchmark/README.md;
names, units and bounds come from BENCHMARK.json at the repo root.

  python3 benchmark/run.py [--seed N] [--reps N]
      every workload: --reps untraced reps, then one traced rep;
      results in build/benchmark/results.json, traces in
      build/benchmark/trace/<workload>.json
  python3 benchmark/run.py --smoke [--selftest-corrupt]
      the same at 1/50 length, with schema validation
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      reps of one workload for about S seconds; the last stdout line
      is one JSON object with the end-to-end (--trace 0) or per-layer
      (--trace 1) metrics
"""

import argparse
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD = ROOT / "build"
OUT = BUILD / "benchmark"
DRIVER = OUT / "driver" / "garibaldi_bench"

WORKLOADS = ["verilator8", "spec8_lru", "mix16_banked", "fig11_sweep"]
# (base, base+Garibaldi) policy labels whose comparison is the
# workload's headline: gari_gain_pct, llc_instr_mpki, core.*, mem.*.
HEADLINE = {
    "verilator8": ("mockingjay", "mockingjay+g"),
    "spec8_lru": ("lru", "lru+g"),
    "mix16_banked": ("mockingjay", "mockingjay+g"),
    "fig11_sweep": ("mockingjay", "mockingjay+g"),
}
# The headline's modelled metrics, reported beside the host metrics.
E2E_MODELLED = ["gari_gain_pct", "llc_instr_mpki"]
HOOKS = ["observe_access", "should_protect", "instr_miss_prefetch",
         "observe_insert", "observe_evict"]
CACHE_LEVELS = ["l1i", "l1d", "l2", "llc"]
REP_TIMEOUT_S = 120
SMOKE_SCALE_DIV = 50
CLOSURE_TOLERANCE = 0.01


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---- build ---------------------------------------------------------------

def _check_call(cmd):
    p = subprocess.run([str(c) for c in cmd], cwd=ROOT,
                       capture_output=True, text=True)
    if p.returncode != 0:
        log(p.stdout[-4000:] + p.stderr[-4000:])
        raise BenchError("command failed: " + " ".join(map(str, cmd)))
    return p.stdout


def build():
    """Build libgaribaldi_core.a in build/, then the driver against it.

    Returns the compiler and the src/ flags the driver was built with.
    """
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} has no CMakeLists.txt and src/: the "
                         "benchmark needs the full source tree")
    if not (BUILD / "CMakeCache.txt").is_file():
        _check_call(["cmake", "-S", ROOT, "-B", BUILD])
    _check_call(["cmake", "--build", BUILD, "--target", "garibaldi_core",
                 "-j", "2"])
    with open(BUILD / "compile_commands.json") as f:
        entries = json.load(f)
    entry = next(e for e in entries
                 if e["file"].endswith(os.path.join("src", "sim",
                                                    "simulator.cc")))
    argv = entry.get("arguments") or shlex.split(entry["command"])
    compiler, flags = argv[0], argv[1:argv.index("-o")]
    _check_call(["cmake", "-S", BENCH_DIR, "-B", DRIVER.parent,
                 f"-DCMAKE_CXX_COMPILER={compiler}",
                 f"-DGARIBALDI_CORE_LIB={BUILD / 'libgaribaldi_core.a'}",
                 f"-DGARIBALDI_SRC_FLAGS={' '.join(flags)}"])
    _check_call(["cmake", "--build", DRIVER.parent, "-j", "2"])
    version = _check_call([compiler, "--version"]).splitlines()[0]
    return {"compiler": compiler, "compiler_version": version,
            "flags": flags}


# ---- one rep -------------------------------------------------------------

def run_rep(workload, seed, traced, scale_div=1, driver=DRIVER):
    """Run one rep in its own process; returns its record.

    A record that failed carries "error"; run_checks adds problems.
    """
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--scale-div", str(scale_div)]
    if traced:
        cmd.append("--trace")
    base = {"workload": workload, "seed": seed, "traced": traced}
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict(base, error=f"timed out after {REP_TIMEOUT_S} s")
    if p.returncode != 0:
        return dict(base, error=f"exit {p.returncode}: "
                    + p.stderr.strip()[-500:])
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        return dict(base, error=f"unreadable output: {e}")


def span_tree(rec):
    spans = rec["spans"]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    return spans, children


def dur_s(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def partition(rec):
    """Wall time split into setup / simulate / stats / other phases."""
    spans, children = span_tree(rec)
    parts = {"setup": 0.0, "simulate": 0.0, "stats": 0.0, "other": 0.0}

    def visit(span_id):
        for c in children[span_id]:
            if c["name"] == "job":
                parts["other"] += dur_s(c) - sum(
                    dur_s(g) for g in children[c["id"]])
                visit(c["id"])
            elif c["name"] in parts:
                parts[c["name"]] += dur_s(c)
            else:
                parts["other"] += dur_s(c)

    visit(spans[0]["id"])
    wall = dur_s(spans[0])
    parts["uncovered"] = wall - sum(parts.values())
    parts["wall"] = wall
    return parts


def rep_problems(rec):
    """Output checks of one rep; an empty list means it passed."""
    if "error" in rec:
        return [rec["error"]]
    problems = []
    for job in rec["jobs"]:
        where = f"{job['policy']}/{job['mix']}"
        for i, core in enumerate(job["cores"]):
            if core["instructions"] != rec["detailed"]:
                problems.append(f"{where}: core {i} ran "
                                f"{core['instructions']} detailed "
                                f"instructions, not {rec['detailed']}")
        for lvl in CACHE_LEVELS:
            m = job["mem"]
            if m[f"{lvl}.hits"] + m[f"{lvl}.misses"] != m[f"{lvl}.accesses"]:
                problems.append(f"{where}: {lvl} hits + misses != accesses")
    if rec["traced"]:
        p = partition(rec)
        if abs(p["uncovered"]) > CLOSURE_TOLERANCE * p["wall"]:
            problems.append(f"phases cover {p['wall'] - p['uncovered']:.4f}"
                            f" s of {p['wall']:.4f} s wall")
    return problems


def run_checks(recs):
    """Mark each rep passed or failed; digests must all agree."""
    for r in recs:
        r["problems"] = rep_problems(r)
    digests = Counter(r["digest"] for r in recs if not r["problems"])
    top = digests.most_common(2)
    ref = top[0][0] if top and (len(top) == 1 or top[0][1] > top[1][1]) \
        else None
    for r in recs:
        if not r["problems"] and r["digest"] != ref:
            r["problems"].append(f"digest {r['digest']} differs from the "
                                 f"other reps' {ref}")
    return [r for r in recs if not r["problems"]]


# ---- metrics ---------------------------------------------------------------

def instructions_stepped(rec, jobs=None):
    jobs = rec["jobs"] if jobs is None else jobs
    return rec["cores"] * (rec["warmup"] + rec["detailed"]) * len(jobs)


def simulate_s(rec, jobs=None):
    return sum(j["simulate_s"] for j in (rec["jobs"] if jobs is None
                                         else jobs))


def end_to_end(rec):
    """End-to-end host metrics of one rep."""
    return {
        "sim_minstr_per_s": instructions_stepped(rec) / 1e6 / simulate_s(rec),
        "wall_s": dur_s(rec["spans"][0]),
        "setup_s": sum(statistics.median(j["setup_s"]) for j in rec["jobs"]),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def _jobs(rec, policy):
    return [j for j in rec["jobs"] if j["policy"] == policy]


def _sum(jobs, key, section="mem"):
    return sum(j[section].get(key, 0.0) for j in jobs)


def _instr(jobs):
    return sum(c["instructions"] for j in jobs for c in j["cores"])


def _ratio(a, b):
    return a / b if b else 0.0


def modelled(rec):
    """Simulated (exact) metrics of one rep."""
    base_label, gari_label = HEADLINE[rec["workload"]]
    base, gari = _jobs(rec, base_label), _jobs(rec, gari_label)
    all_g = [j for j in rec["jobs"] if j["garibaldi"]]
    ratios = [g["metric"] / b["metric"] for b, g in zip(base, gari)]
    gain = math.exp(sum(map(math.log, ratios)) / len(ratios)) - 1
    g_instr = _instr(gari)

    def pki(key):
        return 1000.0 * _ratio(_sum(gari, key), g_instr)

    def hmean_ipc(jobs):
        ipcs = [c["ipc"] for j in jobs for c in j["cores"]]
        return len(ipcs) / sum(1.0 / x for x in ipcs)

    def cpi(jobs, components):
        return _ratio(sum(_sum(jobs, c, "cpi") for c in components),
                      _instr(jobs))

    grants = _sum(all_g, "protection_grants", "gari")
    denials = _sum(all_g, "protection_denials", "gari")
    helper_hits = _sum(all_g, "helper.hits", "gari")
    dram_accesses = _sum(gari, "dram.reads") + _sum(gari, "dram.writes")
    warm = [j.get("llc_warm_misses") for j in gari]
    m = {
        "gari_gain_pct": 100.0 * gain,
        "llc_instr_mpki": pki("llc.instr_misses"),
        "garibaldi.protection_grants": grants,
        "garibaldi.grant_ratio": _ratio(grants, grants + denials),
        "garibaldi.pair_prefetches": _sum(all_g, "pair_prefetches", "gari"),
        "garibaldi.helper_coverage": _ratio(
            helper_hits, helper_hits + _sum(all_g, "helper.misses", "gari")),
        "core.ipc_hmean.base": hmean_ipc(base),
        "core.ipc_hmean.gari": hmean_ipc(gari),
        "core.cpi_ifetch": cpi(gari, ["ifetch.l2", "ifetch.llc",
                                      "ifetch.mem"]),
        "core.cpi_ifetch.base": cpi(base, ["ifetch.l2", "ifetch.llc",
                                           "ifetch.mem"]),
        "core.cpi_data_mem": cpi(gari, ["data.mem"]),
        "core.cpi_data_mem.base": cpi(base, ["data.mem"]),
        "mem.l1i.mpki": pki("l1i.misses"),
        "mem.l2.instr_mpki": pki("l2.instr_misses"),
        "mem.llc.mpki": pki("llc.misses"),
        "mem.llc.hit_rate": _ratio(_sum(gari, "llc.hits"),
                                   _sum(gari, "llc.accesses")),
        "mem.llc.instr_miss_rate": _ratio(_sum(gari, "llc.instr_misses"),
                                          _sum(gari, "llc.instr_accesses")),
        "mem.llc.prefetch_useful_ratio": _ratio(
            _sum(gari, "llc.prefetch_useful"),
            _sum(gari, "llc.prefetch_inserts")),
        "mem.llc.queue_cycles_pki": pki("llc.queue_cycles"),
        "mem.dram.reads_pki": pki("dram.reads"),
        "mem.dram.avg_queue_delay": _ratio(_sum(gari, "dram.queued_cycles"),
                                           dram_accesses),
        "mem.mshr_stalls_pki": pki("mshr_stalls"),
    }
    # Untraced sweep reps cannot see the System behind SweepRunner.
    if None not in warm:
        m["mem.llc.warm_fill_ratio"] = _ratio(
            sum(warm), sum(j["llc_lines"] for j in gari))
    return m


def untraced_layers(rec):
    """Per-layer host metrics taken from untraced reps."""
    def minstr(jobs):
        return instructions_stepped(rec, jobs) / 1e6

    g = [j for j in rec["jobs"] if j["garibaldi"]]
    b = [j for j in rec["jobs"] if not j["garibaldi"]]
    # Each +g job against the same policy without Garibaldi, same mix.
    matched = [j for j in b for x in g
               if x["mix"] == j["mix"] and x["policy"] == j["policy"] + "+g"]
    parts = partition(rec)
    m = {
        "sim.simulate_s": simulate_s(rec),
        "sim.stats_s": parts["stats"],
        "sweep.job_s_max": max(j["simulate_s"] for j in rec["jobs"]),
        "mem.policy.s_per_minstr.base": simulate_s(rec, b) / minstr(b),
        "mem.policy.s_per_minstr.gari": simulate_s(rec, g) / minstr(g),
        "garibaldi.overhead_pct": 100.0 * (
            simulate_s(rec, g) / simulate_s(rec, matched) - 1.0),
    }
    if rec["workload"] == "fig11_sweep":
        for policy in sorted({j["policy"] for j in rec["jobs"]}):
            jobs = _jobs(rec, policy)
            key = policy.replace("+g", "_g")
            m[f"mem.policy.s_per_minstr.{key}"] = (simulate_s(rec, jobs)
                                                   / minstr(jobs))
        m["sweep.solo_s"] = sum(dur_s(s) for s in rec["spans"]
                                if s["name"] == "sweep.solo")
    return m


def traced_layers(rec, untraced_simulate_s):
    """Per-layer host metrics of one traced rep."""
    clock_ns = rec["clock_ns"]
    calls = {h: 0 for h in HOOKS}
    hook_ns = 0.0
    for j in rec["jobs"]:
        for h, t in j.get("hooks", {}).items():
            calls[h] += t["calls"]
            # Each timed call's interval holds about one clock read.
            hook_ns += t["ns"] - t["calls"] * clock_ns
    fills = [j["fill"] for j in rec["jobs"] if "fill" in j]
    fill_ns_per_op = (sum(f["ns"] for f in fills)
                      / sum(f["ops"] for f in fills))
    total_calls = sum(calls.values())
    hook_share = hook_ns * 1e-9 / simulate_s(rec)
    share_est = (fill_ns_per_op * instructions_stepped(rec)
                 / (untraced_simulate_s * 1e9))
    m = {
        "garibaldi.hook_s": hook_ns * 1e-9,
        "garibaldi.hook_share": hook_share,
        "garibaldi.hook_ns_per_call": _ratio(hook_ns, total_calls),
        "workloads.fill_ns_per_op": fill_ns_per_op,
        "workloads.share_est": share_est,
        "core_mem.share": 1.0 - hook_share - share_est,
        "trace.overhead_pct": 100.0 * (simulate_s(rec)
                                       / untraced_simulate_s - 1.0),
        "trace.clock_ns": clock_ns,
    }
    for h in HOOKS:
        m[f"garibaldi.calls.{h}"] = calls[h]
    return m


def median_of(dicts):
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def summarize(recs):
    """Metrics of one workload from its checked reps.

    Returns (end_to_end stats, per-layer values, fail_frac).
    """
    good = run_checks(recs)
    fail_frac = (len(recs) - len(good)) / len(recs)
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    e2e = {}
    if untraced:
        per_rep = [dict(end_to_end(r), **{k: v for k, v in modelled(r).items()
                                          if k in E2E_MODELLED})
                   for r in untraced]
        for k in per_rep[0]:
            vals = [p[k] for p in per_rep]
            e2e[k] = {"median": statistics.median(vals), "min": min(vals),
                      "max": max(vals), "n": len(vals)}
    layers = {}
    if untraced and traced:
        layers.update(median_of([untraced_layers(r) for r in untraced]))
        sim = layers["sim.simulate_s"]
        layers.update(median_of([traced_layers(r, sim) for r in traced]))
        layers.update(modelled(traced[0]))
    return e2e, layers, fail_frac


# ---- outputs ---------------------------------------------------------------

def chrome_trace(rec):
    """Chrome trace-event JSON of a traced rep's spans."""
    spans, children = span_tree(rec)
    rep_id = f"{rec['workload']}-seed{rec['seed']}-traced"
    events = [{"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
               "args": {"name": rep_id}}]
    for s in spans:
        self_ns = (s["end_ns"] - s["start_ns"]) - sum(
            c["end_ns"] - c["start_ns"] for c in children[s["id"]])
        events.append({
            "ph": "X", "pid": 0, "tid": 0, "name": s["name"],
            "ts": s["start_ns"] / 1000.0,
            "dur": (s["end_ns"] - s["start_ns"]) / 1000.0,
            "args": dict(s["args"], id=s["id"], parent=s["parent"],
                         rep=rep_id, self_us=self_ns / 1000.0),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def manifest(build_info, seed, recs):
    def git(*args):
        # Without its own .git, git would report an enclosing repository.
        if not (ROOT / ".git").exists():
            return None
        try:
            p = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
            return p.stdout.strip() if p.returncode == 0 else None
        except OSError:
            return None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    status = git("status", "--porcelain")
    workloads = {}
    for r in recs:
        if "jobs" in r and r["workload"] not in workloads:
            workloads[r["workload"]] = {
                "cores": r["cores"], "warmup": r["warmup"],
                "detailed": r["detailed"], "scale_div": r["scale_div"],
                "jobs": [f"{j['policy']} on {j['mix']}: {j['config']}"
                         for j in r["jobs"]],
            }
    return {
        "git_revision": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": build_info["compiler_version"],
        "flags": build_info["flags"],
        "seed": seed,
        "workloads": workloads,
    }


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


def units(spec):
    """Units of BENCHMARK.json's metrics and of the fig11_sweep extras."""
    u = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    u["fail_frac"] = "fraction"
    u["sweep.solo_s"] = "s"
    for policy in ["lru", "hawkeye", "hawkeye_g", "mockingjay",
                   "mockingjay_g"]:
        u[f"mem.policy.s_per_minstr.{policy}"] = "s/Minstr"
    return u


def fmt(v):
    return f"{v:.6g}"


# ---- schema validation (--smoke) ----------------------------------------

def _require(cond, what):
    if not cond:
        raise BenchError("schema: " + what)


def validate_record(rec):
    for key, kind in [("workload", str), ("seed", (int, float)),
                      ("traced", bool), ("cores", (int, float)),
                      ("warmup", (int, float)), ("detailed", (int, float)),
                      ("peak_rss_mb", (int, float)), ("digest", str),
                      ("jobs", list), ("spans", list)]:
        _require(isinstance(rec.get(key), kind), f"record.{key}")
    _require(rec["spans"][0]["name"] == "rep", "first span is the rep")
    for s in rec["spans"]:
        _require(s["end_ns"] >= s["start_ns"] >= 0, f"span {s['name']}")
    for j in rec["jobs"]:
        for key in ["policy", "mix", "garibaldi", "metric", "cores", "cpi",
                    "mem", "gari", "setup_s", "simulate_s"]:
            _require(key in j, f"job.{key}")
        if rec["traced"] and j["garibaldi"]:
            _require(set(j["hooks"]) == set(HOOKS), "job.hooks")


def validate_trace(trace):
    _require(isinstance(trace.get("traceEvents"), list), "traceEvents")
    for e in trace["traceEvents"]:
        _require(e["ph"] in ("M", "X"), "event ph")
        if e["ph"] == "X":
            for key in ["name", "ts", "dur", "pid", "tid", "args"]:
                _require(key in e, f"event.{key}")


def validate_result(result, names):
    _require(set(result) == {"correct", "attempted", "failed", "metrics"},
             "result keys")
    _require(isinstance(result["correct"], bool), "correct")
    _require(isinstance(result["attempted"], int) and result["attempted"] >= 1,
             "attempted")
    _require(isinstance(result["failed"], int), "failed")
    _require(set(result["metrics"]) == set(names), "metric names")
    for v in result["metrics"].values():
        _require(set(v) == {"value", "unit"}, "metric keys")
        _require(isinstance(v["value"], (int, float))
                 and math.isfinite(v["value"]), "metric value")


# ---- modes ---------------------------------------------------------------

def workload_run(args, spec):
    """One workload for about --seconds; one JSON result line."""
    build_info = build()
    traced_phase = args.trace == 1
    # Untraced reps first (half the time when a traced phase follows);
    # a rep starts only if it is expected to end within the time.
    phases = ([(False, args.seconds / 2), (True, args.seconds)]
              if traced_phase else [(False, args.seconds)])
    recs = []
    t0 = time.monotonic()
    for traced, until in phases:
        start, n = time.monotonic(), 0
        while True:
            recs.append(run_rep(args.workload, args.seed, traced))
            n += 1
            now = time.monotonic()
            if now - t0 + (now - start) / n > until:
                break
    e2e, layers, fail_frac = summarize(recs)
    names = [m["name"] for m in
             spec["per_layer" if traced_phase else "end_to_end"]]
    u = units(spec)
    values = layers if traced_phase else {k: v["median"]
                                          for k, v in e2e.items()}
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError("no passing rep measured " + ", ".join(missing))
    failed = sum(1 for r in recs if r["problems"])
    for r in recs:
        for p in r["problems"]:
            log(f"FAILED rep: {p}")
    write_json(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"manifest": manifest(build_info, args.seed, recs),
                "end_to_end": e2e, "per_layer": layers,
                "fail_frac": fail_frac,
                "partition": [partition(r) for r in recs if "spans" in r]})
    traced = [r for r in recs if r["traced"] and not r["problems"]]
    if traced:
        write_json(OUT / "trace" / f"{args.workload}.json",
                   chrome_trace(traced[0]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u[n]} for n in names},
    }))
    return 0


def full_run(args, spec):
    """Every workload: --reps untraced reps, then one traced rep."""
    scale_div = SMOKE_SCALE_DIV if args.smoke else 1
    build_info = build()
    u = units(spec)
    all_recs, results = [], {}
    for w in WORKLOADS:
        recs = [run_rep(w, args.seed, False, scale_div)
                for _ in range(args.reps)]
        recs.append(run_rep(w, args.seed, True, scale_div))
        if args.selftest_corrupt and w == WORKLOADS[0] and "digest" in recs[0]:
            recs[0]["digest"] = "corrupt-" + recs[0]["digest"]
        if args.smoke:
            for r in recs:
                if "error" not in r:
                    validate_record(r)
        e2e, layers, fail_frac = summarize(recs)
        all_recs += recs
        results[w] = {"end_to_end": e2e, "per_layer": layers,
                      "fail_frac": fail_frac,
                      "partition": [partition(r) for r in recs
                                    if "spans" in r and not r["problems"]]}
        traced = [r for r in recs if r["traced"] and not r["problems"]]
        if traced:
            trace = chrome_trace(traced[0])
            if args.smoke:
                validate_trace(trace)
            write_json(OUT / "trace" / f"{w}.json", trace)
        if args.smoke and not args.selftest_corrupt:
            for trace_mode, kind in [(0, "end_to_end"), (1, "per_layer")]:
                names = [m["name"] for m in spec[kind]]
                vals = layers if trace_mode else {k: v["median"]
                                                  for k, v in e2e.items()}
                validate_result({
                    "correct": True, "attempted": len(recs), "failed": 0,
                    "metrics": {n: {"value": vals[n], "unit": u[n]}
                                for n in names}}, names)

        print(f"== {w}: seed {args.seed}, {args.reps} untraced + 1 traced "
              f"rep(s), scale 1/{scale_div} ==")
        for r in recs:
            for p in r["problems"]:
                print(f"  FAILED rep ({'traced' if r['traced'] else 'untraced'}"
                      f"): {p}")
        print(f"  {'fail_frac':34s} {fmt(fail_frac):>12s} fraction")
        for k, v in e2e.items():
            print(f"  {k:34s} {fmt(v['median']):>12s} {u.get(k, ''):10s} "
                  f"median of n={v['n']}, min {fmt(v['min'])}, "
                  f"max {fmt(v['max'])}")
        for k, v in layers.items():
            if k not in e2e:
                print(f"  {k:34s} {fmt(v):>12s} {u[k]}")
        parts = results[w]["partition"]
        if traced:
            p = partition(traced[0])
            print(f"  traced wall {p['wall']:.4f} s = setup {p['setup']:.4f}"
                  f" + simulate {p['simulate']:.4f} + stats {p['stats']:.4f}"
                  f" + other {p['other']:.4f} (uncovered "
                  f"{p['uncovered']:+.5f}); {len(parts)} rep(s) partitioned")
    write_json(OUT / ("smoke.json" if args.smoke else "results.json"),
               {"manifest": manifest(build_info, args.seed, all_recs),
                "workloads": results})
    failed = any(r["fail_frac"] > 0 for r in results.values())
    if args.selftest_corrupt:
        caught = results[WORKLOADS[0]]["fail_frac"] > 0
        print("selftest-corrupt: the corrupted digest was "
              + ("caught (fail_frac > 0)" if caught else "NOT caught"))
        return 0 if caught else 1
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at 1/50 length, with schema checks")
    ap.add_argument("--selftest-corrupt", action="store_true",
                    help="perturb one rep's digest; passes if it is caught")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload for --seconds (one JSON line)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    try:
        spec = load_spec()
        if args.workload:
            return workload_run(args, spec)
        return full_run(args, spec)
    except (BenchError, OSError) as e:
        log(f"benchmark: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
