#!/usr/bin/env python3
"""Campaign benchmark for ccfuzz: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-sim --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload triage-corpus --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py compare a.json b.json   # results saved with --save

It builds the CLI and perfbench_tracer from source (perfbench/CMakeLists.txt,
into .bench_build), generates the workload's inputs from --seed, times the
workload through the shipped entry points (`ccfuzz run`, `ccfuzz triage`,
`ccfuzz replay`) for --seconds, checks every output, and prints one JSON
object as the last line of stdout. --trace 0 reports the end-to-end metrics;
--trace 1 additionally drives the same matrices through perfbench_tracer and
reports the per-layer metrics. perfbench/README.md documents every metric.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_work")
PROC_TIMEOUT_S = 150.0
NPROC = len(os.sched_getaffinity(0))

# Three distinct cells per mode: every cell has its own CCA x mode, so no two
# cells share an evaluation-cache key whether or not a CCA decorator is set.
CCAS = "reno,cubic,bbr"
# The planned crash: this cell's owner dies at this generation, once per run
# (latched), so the same shard dies at the same point at every seed.
CRASH_CELL = "cubic.link.low-utilization"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def ccfuzz_bin():
    return os.path.join(build_dir(), "tools", "ccfuzz")


def tracer_bin():
    return os.path.join(build_dir(), "perfbench_tracer")


# --- Workloads ------------------------------------------------------------------


def workload_spec(name, seed, smoke=False):
    """The workload's matrix flags and run shape, generated from the seed."""
    if name == "campaign-sim":
        matrix = dict(ccas=CCAS, modes="traffic,link", score="low-utilization",
                      population=48, generations=12, islands=2,
                      duration_ms=5000)
        spec = dict(kind="campaign", workers=0, checkpoint_every=0,
                    threads=NPROC, inputs=4)
        if smoke:
            matrix.update(population=8, generations=2, duration_ms=1000)
    elif name == "campaign-crashsafe":
        matrix = dict(ccas=CCAS, modes="traffic,link", score="low-utilization",
                      population=48, generations=30, islands=2, duration_ms=500)
        spec = dict(kind="campaign", workers=2, checkpoint_every=1,
                    threads=max(1, min(2, NPROC // 2)), crash_generation=10,
                    inputs=4)
        if smoke:
            matrix.update(population=8, generations=4)
            spec["crash_generation"] = 2
    elif name == "triage-corpus":
        matrix = dict(ccas=CCAS, modes="traffic",
                      presets="incast,late_starter,rtt_unfair",
                      score="jain-unfairness", population=24, generations=6,
                      islands=2, duration_ms=2000)
        # A minimization budget most candidates exhaust keeps the work per
        # candidate nearly independent of the seed. What a corpus costs to
        # triage still varies by about 11% from one GA trajectory to the
        # next, so a run triages eight corpora.
        spec = dict(kind="triage", workers=0, checkpoint_every=0,
                    threads=NPROC, confirm=3, minimize_evals=50, inputs=8)
        if smoke:
            matrix.update(population=8, generations=2, duration_ms=1000)
            spec["inputs"] = 2
    else:
        raise SystemExit(f"unknown workload {name!r}")
    matrix.update(seed=seed, winners=3, max_events=50_000_000)
    spec["matrix"] = matrix
    spec["seed"] = seed
    return spec


def matrix_flags(matrix):
    flags = []
    for key, value in matrix.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags


def workload_env(spec, fault_plan=None):
    env = dict(os.environ)
    env["CCFUZZ_THREADS"] = str(spec["threads"])
    env.pop("CCFUZZ_FAULT_PLAN", None)
    if fault_plan:
        env["CCFUZZ_FAULT_PLAN"] = fault_plan
    return env


# --- Build and fingerprint ------------------------------------------------------


def build():
    """Configures (once) and builds the CLI and the tracer; output to stderr."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit(f"perfbench: {need} missing at {ROOT}: not a ccfuzz checkout")
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(NPROC)],
                   stdout=sys.stderr, check=True)


def cmake_cache_value(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """git revision when available, else a digest of the built sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return rev.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def fingerprint(load_at_start):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    compiler_id = "unknown"
    for d, _, files in os.walk(os.path.join(build_dir(), "CMakeFiles")):
        if "CMakeCXXCompiler.cmake" in files:
            text = read_bytes(os.path.join(d, "CMakeCXXCompiler.cmake")).decode()
            m_id = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
            m_ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
            compiler_id = m_id.group(1) if m_id else compiler_id
            compiler = f"{compiler_id} {m_ver.group(1) if m_ver else '?'}"
            break
    return {
        "nproc": NPROC,
        "cpu_model": model,
        "compiler": compiler,
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "revision": source_revision(),
        "loadavg_start": list(load_at_start),
    }


# Fields that must agree before two results may be compared.
HOST_FIELDS = ("nproc", "cpu_model", "compiler", "build_type")


def compare(paths):
    """Prints per-metric medians of two saved results; refuses foreign hosts."""
    a, b = (json.loads(read_bytes(p)) for p in paths)
    fa, fb = a["fingerprint"], b["fingerprint"]
    diff = [k for k in HOST_FIELDS if fa.get(k) != fb.get(k)]
    if diff:
        for k in diff:
            print(f"compare: {k} differs: {fa.get(k)!r} vs {fb.get(k)!r}",
                  file=sys.stderr)
        print("compare: refusing to compare results from different hosts or builds",
              file=sys.stderr)
        return 3
    if a["workload"] != b["workload"]:
        print("compare: different workloads", file=sys.stderr)
        return 3
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:28s} {ma['value']:14.6g} {mb['value']:14.6g} "
              f"{ratio:8.4f}  {ma['unit']}")
    return 0


# --- Processes ------------------------------------------------------------------


class Proc:
    """One finished process: exit status, wall, CPU (itself and every process
    it waited for) and the largest resident set among them."""

    def __init__(self, rc, wall, cpu, rss_mb, setup, log):
        self.rc, self.wall, self.cpu, self.rss_mb = rc, wall, cpu, rss_mb
        self.setup, self.log = setup, log


def run_proc(argv, env, log_path, watch=None, on_line=None):
    """Runs argv in its own session to completion, stdout+stderr to log_path.

    `watch`: a progress feed polled until a campaign_begin record lands in
    it; the time from launch to then is the process's setup time. `on_line(t, line)` additionally sees
    every line appended to `watch`, with its arrival time.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, setsid=True, file_actions=[
            (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 2)])
    deadline = t0 + PROC_TIMEOUT_S

    def kill():
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    setup = None
    status = ru = None
    done = 0
    if watch is not None:
        seen, partial = 0, b""
        while True:
            done, status, ru = os.wait4(pid, os.WNOHANG)
            now = time.perf_counter()
            try:
                size = os.path.getsize(watch)
            except OSError:
                size = 0
            if size > seen:
                with open(watch, "rb") as f:
                    f.seek(seen)
                    chunk = partial + f.read(size - seen)
                seen = size
                *lines, partial = chunk.split(b"\n")
                for line in lines:
                    if setup is None and b'"campaign_begin"' in line:
                        setup = now - t0
                    if on_line:
                        on_line(now - t0, line)
            if done:
                break
            if (setup is not None and on_line is None) or now > deadline:
                break
            time.sleep(0.0005)
    if not done:
        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill)
        timer.start()
        _, status, ru = os.wait4(pid, 0)
        timer.cancel()
    wall = time.perf_counter() - t0
    kill()  # anything the process left behind in its session
    with open(log_path, "rb") as f:
        text = f.read().decode(errors="replace")
    rc = os.waitstatus_to_exitcode(status)
    return Proc(rc, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                setup, text)


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_digest(path):
    """sha256 over every file under path (relative names and bytes)."""
    h = hashlib.sha256()
    for d, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            p = os.path.join(d, name)
            h.update(os.path.relpath(p, path).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# --- Output checks --------------------------------------------------------------


def check_summary(tree, reference):
    """Violations of a campaign report: summary.json must equal `reference`
    (the bytes of the first run at this seed) and every cell must account
    for its evaluations as simulations plus cache hits."""
    errors = []
    path = os.path.join(tree, "summary.json")
    raw = read_bytes(path)
    try:
        summary = json.loads(raw)
    except (TypeError, ValueError) as e:
        return [f"{path}: unreadable ({e})"], None
    if reference is not None and raw != reference:
        errors.append(f"{path}: differs from the first run at this seed")
    if summary.get("interrupted"):
        errors.append(f"{path}: campaign interrupted")
    for cell in summary.get("cells", []):
        if cell["simulations"] + cell["cache_hits"] != cell["evaluations"]:
            errors.append(f"{cell['name']}: simulations + cache_hits != evaluations")
    if not summary.get("cells"):
        errors.append(f"{path}: no cells")
    return errors, summary


def feed_events(tree):
    events = []
    with open(os.path.join(tree, "progress.jsonl")) as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def check_restarts(tree):
    """(violations, unplanned restarts) for a crash-safe run: exactly one
    planned worker death (the injected crash) must show in the feed."""
    events = feed_events(tree)
    restarts = sum(e["event"] == "worker_restart" for e in events)
    crashes = sum(e["event"] == "worker_exit" and e.get("code") == 86
                  for e in events)
    errors = []
    if crashes != 1:
        errors.append(f"expected 1 planned worker crash, saw {crashes}")
    return errors, max(0, restarts - 1)


# What a campaign logs when neither checkpoint can be restored.
FRESH_START = "starting the campaign fresh"

TRIAGE_RE = re.compile(
    r"triage: (\d+) candidate\(s\): (\d+) confirmed, (\d+) flaky, "
    r"(\d+) unreproduced, (\d+) simulator bug\(s\); (\d+) bundle\(s\)")
REPLAY_RE = re.compile(r"replay: (\d+) bundle\(s\): (\d+) ok, (\d+) drifted, (\d+) broken")


def check_replay(proc, bundles_on_disk):
    """(violations, failed) for a `ccfuzz replay`: every bundle must replay ok."""
    m = REPLAY_RE.search(proc.log)
    if not m:
        return [f"replay: no summary line (exit {proc.rc})"], 0
    total, ok, drifted, broken = map(int, m.groups())
    errors = []
    if proc.rc != 0 or ok != total or total != bundles_on_disk:
        errors.append(f"replay: {ok}/{total} ok ({drifted} drifted, {broken} "
                      f"broken, {bundles_on_disk} on disk, exit {proc.rc})")
    return errors, drifted + broken


# --- Campaign workloads ---------------------------------------------------------


def run_campaign(spec, out, fault_latch=None, on_line=None):
    """One `ccfuzz run` of the workload into `out` (which the caller empties)."""
    argv = [ccfuzz_bin(), "run", "--output", out,
            "--workers", str(spec["workers"]),
            "--checkpoint-every", str(spec["checkpoint_every"])]
    argv += matrix_flags(spec["matrix"])
    plan = None
    if fault_latch is not None:
        plan = (f"latch={fresh_dir(fault_latch)};"
                f"worker:cell_crash={CRASH_CELL}@{spec['crash_generation']}")
    return run_proc(argv, workload_env(spec, plan), out + ".log",
                    watch=os.path.join(out, "progress.jsonl"), on_line=on_line)


class Rep:
    """One checked repetition of a workload's timed phase."""

    def __init__(self, wall, cpu, rss_mb, setup, evals, sims_s, attempted,
                 failed, errors):
        self.wall, self.cpu, self.rss_mb, self.setup = wall, cpu, rss_mb, setup
        self.evals, self.sims_s = evals, sims_s
        self.attempted, self.failed, self.errors = attempted, failed, errors
        self.input = 0
        self.fallbacks = 0  # restarts that could not resume their checkpoint


def campaign_rep(spec, out, reference):
    crashsafe = spec["workers"] > 0
    fresh_dir(out)
    proc = run_campaign(spec, out, fault_latch=out + ".latch" if crashsafe else None)
    errors = [] if proc.rc == 0 else [f"ccfuzz run exited {proc.rc}: {proc.log[-400:]}"]
    summary_errors, summary = check_summary(out, reference)
    errors += summary_errors
    failed = 0
    evals = sims = 0
    if summary:
        failed += summary.get("quarantined", 0)
        evals = sum(c["evaluations"] for c in summary["cells"])
        sims = sum(c["simulations"] for c in summary["cells"])
    if crashsafe and proc.rc == 0:
        restart_errors, unplanned = check_restarts(out)
        errors += restart_errors
        failed += unplanned
        doctor = run_proc([ccfuzz_bin(), "doctor", "--output", out],
                          workload_env(spec), out + ".doctor.log")
        if doctor.rc != 0:
            errors.append(f"ccfuzz doctor exited {doctor.rc}: {doctor.log[-400:]}")
    if proc.setup is None:
        errors.append("campaign_begin never reached progress.jsonl")
    sim_s = sims * spec["matrix"]["duration_ms"] / 1000.0
    rep = Rep(proc.wall, proc.cpu, proc.rss_mb, proc.setup or 0.0, evals,
              sim_s, max(1, evals), failed, errors)
    rep.fallbacks = proc.log.count(FRESH_START)
    return rep


# --- Triage workload ------------------------------------------------------------


def generate_corpus(spec, out):
    fresh_dir(out)
    proc = run_campaign(spec, out)
    errors = [] if proc.rc == 0 else [f"corpus run exited {proc.rc}: {proc.log[-400:]}"]
    return proc, errors


def refused_winners(spec, corpus):
    """Winner traces of a corpus that the library's trace reader refuses."""
    return tracer("refused", spec, corpus)["refused"]


def copy_corpus(corpus, out, refused):
    """Copies a corpus to `out` without the `refused` winner traces. The
    winners left in a cell are renumbered from 0, since triage reads
    winner_0, winner_1, ... up to the first gap; a bundle does not record
    the index it came from."""
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(corpus, out)
    cells = set()
    for rel in refused:
        os.remove(os.path.join(out, rel))
        cells.add(os.path.dirname(rel))
    for cell in cells:
        cell_dir = os.path.join(out, cell)
        ks = sorted(int(m.group(1)) for m in
                    map(re.compile(r"winner_(\d+)\.trace$").match, os.listdir(cell_dir))
                    if m)
        for new, old in enumerate(ks):
            os.rename(os.path.join(cell_dir, f"winner_{old}.trace"),
                      os.path.join(cell_dir, f"winner_{new}.trace"))


def triage_rep(spec, corpus, out, reference_findings, refused=()):
    """`ccfuzz triage` then `ccfuzz replay` on a fresh copy of the corpus,
    without its `refused` winners."""
    copy_corpus(corpus, out, refused)
    flags = matrix_flags(spec["matrix"])
    env = workload_env(spec)
    tri = run_proc([ccfuzz_bin(), "triage", "--output", out,
                    "--confirm", str(spec["confirm"]),
                    "--minimize-evals", str(spec["minimize_evals"])] + flags,
                   env, out + ".triage.log")
    rep = run_proc([ccfuzz_bin(), "replay", "--output", out] + flags, env,
                   out + ".replay.log")
    # A candidate triage cannot read is an errored operation, not a wrong
    # output; triage exits 1 when any candidate errored. The winners the
    # trace reader refuses are set aside beforehand, so none should error.
    errored = tri.log.count("triage: cannot ")
    errors = []
    if tri.rc != 0 and not errored:
        errors.append(f"ccfuzz triage exited {tri.rc}: {tri.log[-400:]}")
    m = TRIAGE_RE.search(tri.log)
    candidates = bundles = 0
    failed = errored
    if m:
        candidates, _, flaky, unrepro, _, bundles = map(int, m.groups())
        failed += flaky + unrepro
    else:
        errors.append("triage: no summary line")
    findings = os.path.join(out, "findings")
    on_disk = len(os.listdir(findings)) if os.path.isdir(findings) else 0
    if on_disk != bundles or bundles == 0:
        errors.append(f"triage: {bundles} bundle(s) reported, {on_disk} on disk")
    replay_errors, replay_failed = check_replay(rep, on_disk)
    errors += replay_errors
    failed += replay_failed
    digest = tree_digest(findings) if on_disk else None
    if reference_findings is not None and digest != reference_findings:
        errors.append("findings differ from the first triage at this seed")
    # Work every correct triage must do: confirm each candidate, replay each
    # bundle. Minimization is algorithm-dependent and counted per layer.
    required = candidates * spec["confirm"] + on_disk
    wall = tri.wall + rep.wall
    return Rep(wall, tri.cpu + rep.cpu, max(tri.rss_mb, rep.rss_mb), 0.0,
               required, required * spec["matrix"]["duration_ms"] / 1000.0,
               max(1, candidates + errored), failed, errors), digest


# --- Timed phase ------------------------------------------------------------------


# A run's inputs are spec["inputs"] campaigns (GA seeds derived from --seed)
# and its repetitions cycle through them. Work varies from one GA trajectory
# to the next by several percent, and so does whether a crashed worker can
# resume its checkpoint, so a median over several trajectories is far
# steadier from seed to seed than any one of them. Every input runs at least
# twice, so each is checked against its first run.


def sub_spec(spec, j):
    """The workload at its j-th input: same shape, derived GA seed."""
    out = dict(spec)
    out["matrix"] = dict(spec["matrix"], seed=spec["seed"] * 16 + j)
    return out


def measure(spec, seconds, work):
    """Warm-up, then repetitions until `seconds` have been measured (at least
    two per input). Every repetition of an input is checked against the
    first. Returns (reps, context); the context holds input 0's reference
    trees for the traced run."""
    ctx = {"errors": []}
    reps = []
    inputs = spec["inputs"]
    if spec["kind"] == "campaign":
        ref_dir = os.path.join(work, "reference")
        warm = campaign_rep(sub_spec(spec, 0), ref_dir, None)
        ctx["errors"] += warm.errors
        ctx["reference"] = ref_dir
        refs = {0: read_bytes(os.path.join(ref_dir, "summary.json"))}
        start = time.perf_counter()
        i = 0
        while i < 2 * inputs or time.perf_counter() - start < seconds:
            j = i % inputs
            out = os.path.join(work, f"rep{i % 2}")
            rep = campaign_rep(sub_spec(spec, j), out, refs.get(j))
            rep.input = j
            refs.setdefault(j, read_bytes(os.path.join(out, "summary.json")))
            reps.append(rep)
            i += 1
        return reps, ctx

    # triage-corpus: generating the corpora is set-up. Input 0's corpus is
    # generated twice, to check that it is deterministic. Winner traces the
    # trace reader refuses (a known defect, see README.md) are set aside and
    # counted, so that no timed operation fails on them.
    setups, corpora, refused = [], [], []
    for j in list(range(inputs)) + [0]:
        out = os.path.join(work, f"corpus{len(setups)}")
        proc, errors = generate_corpus(sub_spec(spec, j), out)
        ctx["errors"] += errors
        reference = (read_bytes(os.path.join(corpora[0], "summary.json"))
                     if len(corpora) == inputs else None)
        ctx["errors"] += check_summary(out, reference)[0]
        setups.append(proc)
        if len(corpora) < inputs:
            corpora.append(out)
            refused.append(refused_winners(sub_spec(spec, j), out) if not errors else [])
    ctx["setups"] = setups
    ctx["reference"] = corpora[0]
    ctx["refused"] = refused
    warm, digest = triage_rep(sub_spec(spec, 0), corpora[0],
                              os.path.join(work, "triaged_ref"), None, refused[0])
    ctx["errors"] += warm.errors
    ctx["findings_digest"] = digest
    refs = {0: digest}
    start = time.perf_counter()
    i = 0
    while i < 2 * inputs or time.perf_counter() - start < seconds:
        j = i % inputs
        rep, digest = triage_rep(sub_spec(spec, j), corpora[j],
                                 os.path.join(work, f"triaged{i % 2}"), refs.get(j),
                                 refused[j])
        rep.input = j
        refs.setdefault(j, digest)
        reps.append(rep)
        i += 1
    return reps, ctx


def med(values):
    return statistics.median(values)


def end_to_end(spec, reps, ctx):
    walls = [r.wall for r in reps]
    if spec["kind"] == "triage":
        setup = med([p.wall for p in ctx["setups"]])
    else:
        setup = med([r.setup for r in reps])
    return {
        "wall_s": (med(walls), "s"),
        "evals_per_s": (med([r.evals / r.wall for r in reps]), "1/s"),
        "sim_s_per_wall_s": (med([r.sims_s / r.wall for r in reps]), "sim_s/s"),
        "cpu_s": (med([r.cpu for r in reps]), "s"),
        "peak_rss_mb": (med([r.rss_mb for r in reps]), "MB"),
        "setup_s": (setup, "s"),
    }


# --- Traced run -------------------------------------------------------------------


PER_LAYER_UNITS = {
    "scenario.us_per_sim_s": "us/sim_s",
    "scenario.ns_per_pkt": "ns",
    "scenario.sim_s": "sim_s",
    "net.pkts_per_sim_s": "pkt/sim_s",
    "scenario.cold_run_ms": "ms",
    "cca.reno.on_ack_ns": "ns",
    "cca.reno.acks_per_sim_s": "ack/sim_s",
    "cca.cubic.on_ack_ns": "ns",
    "cca.cubic.acks_per_sim_s": "ack/sim_s",
    "cca.bbr.on_ack_ns": "ns",
    "cca.bbr.acks_per_sim_s": "ack/sim_s",
    "cca.timer_ns": "ns",
    "cca.share": "ratio",
    "fuzz.score_us": "us",
    "fuzz.score_calls": "count",
    "fuzz.breed_us": "us",
    "fuzz.breed_ops": "count",
    "campaign.evaluations": "count",
    "campaign.cache_hit_ratio": "ratio",
    "campaign.core_util": "ratio",
    "campaign.gen_ms.p50": "ms",
    "campaign.gen_ms.p90": "ms",
    "campaign.gen_ms.samples": "count",
    "campaign.ckpt_writes": "count",
    "campaign.ckpt_bytes": "B",
    "campaign.ckpt_ms": "ms",
    "campaign.restore_ms": "ms",
    "campaign.resume_fallbacks": "count",
    "campaign.jsonl_bytes": "B",
    "campaign.unloadable_winners": "count",
    "dist.worker_s.max": "s",
    "dist.shard_imbalance": "ratio",
    "dist.merge_ms": "ms",
    "dist.supervisor_s": "s",
    "dist.restarts": "count",
    "triage.candidates": "count",
    "triage.confirm_ms": "ms",
    "triage.minimize_share": "ratio",
    "triage.sims": "count",
    "triage.replay_ms": "ms",
    "triage.bundles": "count",
    "triage.unloadable_winners": "count",
    "triage.core_util": "ratio",
    "trace_overhead": "ratio",
}


def tracer(mode, spec, out, extra=(), threads=None):
    """Runs one perfbench_tracer mode; returns its JSON object."""
    env = workload_env(spec)
    if threads:
        env["CCFUZZ_THREADS"] = str(threads)
    argv = [tracer_bin(), mode, "--output", out] + list(extra) + matrix_flags(spec["matrix"])
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=PROC_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"tracer {mode} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_campaign_pair(spec, work, seed, threads):
    """The workload's matrix in-process through the tracer, with
    checkpointing off and on (order alternates with the seed)."""
    runs = {}
    order = (0, 1) if seed % 2 == 0 else (1, 0)
    for every in order:
        out = fresh_dir(os.path.join(work, f"traced_ckpt{every}"))
        runs[every] = tracer("campaign", spec, out,
                             ["--checkpoint-every", str(every)], threads=threads)
        runs[every]["dir"] = out
    return runs[0], runs[1]


def per_layer(spec, reps, ctx, work, seed, e2e):
    """Per-layer metrics, traced on input 0 of the run (the warm-up's)."""
    spec = sub_spec(spec, 0)
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    errors = []
    reference = ctx["reference"]
    ref_summary = read_bytes(os.path.join(reference, "summary.json"))
    summary = json.loads(ref_summary)
    untraced_wall = med([r.wall for r in reps if r.input == 0])
    threads = spec["threads"] * max(1, spec["workers"])

    # Campaign layer: the workload's matrix (the corpus, on triage-corpus)
    # in-process with the score decorated, checkpointing off and on.
    off, on = traced_campaign_pair(spec, work, seed, threads)
    cadence = on if spec["checkpoint_every"] else off
    for run in (off, on):
        if check_summary(run["dir"], ref_summary)[0]:
            errors.append("traced campaign report differs from the untraced one")
        if run["score"]["calls"] != run["simulations"]:
            errors.append("traced score calls != simulations")
        failed_trunc = run["score"]["truncated"]
        if failed_trunc:
            errors.append(f"{failed_trunc} truncated evaluations")
    evaluations = sum(c["evaluations"] for c in summary["cells"])
    hits = sum(c["cache_hits"] for c in summary["cells"])
    if off["cache_hits"] != hits or off["simulations"] + hits != evaluations:
        errors.append("traced cache counts differ from the untraced run")
    m["campaign.evaluations"] = evaluations
    m["campaign.cache_hit_ratio"] = hits / evaluations
    gen_ms = cadence["gen_ms"]
    m["campaign.gen_ms.p50"] = med(gen_ms)
    m["campaign.gen_ms.p90"] = statistics.quantiles(gen_ms, n=10, method="inclusive")[8]
    m["campaign.gen_ms.samples"] = len(gen_ms)
    m["fuzz.score_us"] = cadence["score"]["ns"] / 1e3 / cadence["score"]["calls"]
    m["fuzz.score_calls"] = cadence["score"]["calls"]
    m["campaign.ckpt_ms"] = (on["wall_s"] - off["wall_s"]) * 1e3 / on["ckpt_writes"]
    m["campaign.ckpt_writes"] = on["ckpt_writes"]
    m["campaign.ckpt_bytes"] = on["ckpt_bytes"]
    restore = tracer("restore", spec, on["dir"])
    m["campaign.restore_ms"] = restore["restore_ms"]
    m["campaign.resume_fallbacks"] = 1 - restore["resumed"]
    m["campaign.jsonl_bytes"] = os.path.getsize(os.path.join(reference, "progress.jsonl"))
    if spec["kind"] == "campaign" and spec["workers"] == 0:
        if off["jsonl_bytes"] != m["campaign.jsonl_bytes"]:
            errors.append("traced JSONL bytes differ from the untraced run")
        m["trace_overhead"] = off["wall_s"] / untraced_wall
    if spec["kind"] == "campaign":
        m["campaign.core_util"] = e2e["cpu_s"][0] / (untraced_wall * threads)
    else:
        setups = ctx["setups"]
        m["campaign.core_util"] = med([p.cpu / (p.wall * threads) for p in setups])

    if spec["workers"] > 0:
        dist_layer(spec, work, ctx, m, errors, untraced_wall)

    # Simulate path, CCAs and breeding on the workload's own final genomes.
    probe = tracer("probe", spec, reference)
    sim_s = probe["warm_sim_s"]
    m["scenario.sim_s"] = sim_s
    m["scenario.us_per_sim_s"] = probe["warm_ns"] / 1e3 / sim_s
    m["net.pkts_per_sim_s"] = probe["packets"] / probe["counted_sim_s"]
    m["scenario.ns_per_pkt"] = m["scenario.us_per_sim_s"] * 1e3 / m["net.pkts_per_sim_s"]
    m["scenario.cold_run_ms"] = probe["cold_ms"]
    for name, c in probe["cca"].items():
        m[f"cca.{name}.on_ack_ns"] = c["on_ack_ns"]
        m[f"cca.{name}.acks_per_sim_s"] = c["acks"] / c["sim_s"]
    m["cca.timer_ns"] = probe["timer_ns"]
    m["cca.share"] = probe["cca_share"]
    m["fuzz.breed_us"] = probe["breed_us"]
    m["fuzz.breed_ops"] = probe["breed_ops"]
    m["campaign.unloadable_winners"] = probe["unloadable"]

    if spec["kind"] == "triage":
        triage_layer(spec, work, ctx, reps, m, errors, untraced_wall)
    detail = {"probe_cells_us_per_sim_s": probe["cells_us_per_sim_s"],
              "gen_ms": gen_ms, "ckpt_on_wall_s": on["wall_s"],
              "ckpt_off_wall_s": off["wall_s"]}
    return m, errors, detail


def dist_layer(spec, work, ctx, m, errors, untraced_wall):
    """Supervisor and workers timed from outside: the traced run tails the
    aggregate feed, stamping worker starts and exits as they land."""
    out = os.path.join(work, "traced_dist")
    stamps = {}  # shard -> [first start, last exit]
    restarts = [0]

    def on_line(t, line):
        try:
            e = json.loads(line)
        except ValueError:
            return
        if e.get("event") == "worker_start":
            stamps.setdefault(e["shard"], [t, t])
        elif e.get("event") == "worker_exit":
            stamps[e["shard"]][1] = t
        elif e.get("event") == "worker_restart":
            restarts[0] += 1

    fresh_dir(out)
    watcher = subprocess.Popen([tracer_bin(), "watch", "--output", out,
                                "--workers", str(spec["workers"])],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        if watcher.stdout.readline().strip() != "ready":
            raise RuntimeError("checkpoint watcher did not start")
        proc = run_campaign(spec, out, fault_latch=out + ".latch", on_line=on_line)
    finally:
        watcher.stdin.close()
        counted = json.loads(watcher.stdout.read().strip().splitlines()[-1])
        watcher.wait()
    ref = read_bytes(os.path.join(ctx["reference"], "summary.json"))
    if proc.rc != 0:
        errors.append(f"traced ccfuzz run exited {proc.rc}")
    summary_errors, _ = check_summary(out, ref)
    errors += summary_errors
    ckpt = lambda root, k: os.path.getsize(
        os.path.join(root, "shards", str(k), "checkpoint", "campaign.ckpt"))
    shards = range(spec["workers"])
    traced_bytes = sum(ckpt(out, k) for k in shards)
    if traced_bytes != sum(ckpt(ctx["reference"], k) for k in shards):
        errors.append("traced checkpoint bytes differ from the untraced run")
    walls = [end - start for start, end in stamps.values()]
    merge_ms = tracer("merge", spec, out, ["--workers", str(spec["workers"])])["merge_ms"]
    m["dist.worker_s.max"] = max(walls)
    m["dist.shard_imbalance"] = max(walls) / statistics.mean(walls)
    m["dist.merge_ms"] = merge_ms
    m["dist.supervisor_s"] = proc.wall - max(walls) - merge_ms / 1e3
    m["dist.restarts"] = restarts[0]
    m["campaign.ckpt_writes"] = counted["ckpt_writes"]
    m["campaign.ckpt_bytes"] = traced_bytes
    restore = tracer("restore", spec, out, ["--workers", str(spec["workers"]), "--shard", "0"])
    m["campaign.restore_ms"] = restore["restore_ms"]
    m["campaign.resume_fallbacks"] = (1 - restore["resumed"]) + proc.log.count(FRESH_START)
    m["trace_overhead"] = proc.wall / untraced_wall


def triage_layer(spec, work, ctx, reps, m, errors, untraced_wall):
    out = os.path.join(work, "traced_triage")
    copy_corpus(ctx["reference"], out, ctx["refused"][0])
    t = tracer("triage", spec, out, ["--minimize-evals", str(spec["minimize_evals"])])
    if tree_digest(os.path.join(out, "findings")) != ctx["findings_digest"]:
        errors.append("traced triage bundles differ from the untraced run")
    if t["replay_ok"] != t["replay_bundles"]:
        errors.append("traced replay: not every bundle replayed ok")
    m["triage.candidates"] = t["candidates"]
    m["triage.bundles"] = t["bundles"]
    m["triage.unloadable_winners"] = sum(len(r) for r in ctx["refused"])
    m["triage.sims"] = t["score"]["calls"]
    m["triage.confirm_ms"] = t["confirm_ms"]
    m["triage.minimize_share"] = (t["wall_s"] - t["wall_nomin_s"]) / t["wall_s"]
    m["triage.replay_ms"] = t["replay_s"] * 1e3 / max(1, t["replay_bundles"])
    m["triage.core_util"] = med([r.cpu / (r.wall * NPROC) for r in reps])
    m["trace_overhead"] = (t["wall_s"] + t["replay_s"]) / untraced_wall


# --- Main -------------------------------------------------------------------------


def result_line(correct, attempted, failed, metrics):
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["campaign-sim", "campaign-crashsafe", "triage-corpus"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="also write result, fingerprint and detail here")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny matrices, for the benchmark's own tests")
    args = ap.parse_args(argv)

    load = os.getloadavg()
    build()
    fp = fingerprint(load)
    spec = workload_spec(args.workload, args.seed, args.smoke)
    work = fresh_dir(os.path.join(WORK, args.workload))
    try:
        reps, ctx = measure(spec, args.seconds, work)
        errors = list(ctx["errors"])
        for r in reps:
            errors += r.errors
        e2e = end_to_end(spec, reps, ctx)
        metrics = e2e
        detail = {}
        if args.trace:
            layer, layer_errors, detail = per_layer(spec, reps, ctx, work, args.seed, e2e)
            errors += layer_errors
            metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layer.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"fingerprint: {json.dumps(fp, sort_keys=True)}")
    print(f"repetitions: {len(reps)}  walls_s: "
          + " ".join(f"{r.wall:.4f}" for r in reps)
          + f"  resume fallbacks: {sum(r.fallbacks for r in reps)}")
    if ctx.get("refused") is not None:
        print(f"set aside: {sum(len(r) for r in ctx['refused'])} winner trace(s) "
              "the trace reader refuses: " + " ".join(
                  f"{j}:{rel}" for j, r in enumerate(ctx["refused"]) for rel in r))
    if detail:
        print(f"detail: {json.dumps(detail, sort_keys=True)}")
    result = result_line(not errors, attempted, failed, metrics)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "fingerprint": fp, "result": result,
                       "detail": detail}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
