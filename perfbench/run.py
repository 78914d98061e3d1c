"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` runs each round twice, plain
and traced, and reports the per-layer metrics (see ``spans.py``).  The
report lists every metric with its unit and sample count; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Every verdict is checked against
``goldens.json``; a wrong one makes the exit code 1.

Batch workloads (``la1_flow``, ``zoo_flow``, ``fault_campaign``) run
each round in a fresh process (``batch_round.py``), started one at a
time.  ``serve_jobs`` drives ``python -m repro.serve`` over HTTP from
one closed-loop client.  Results and traces are written to
``.perfbench/`` (``--out``); ``compare.py`` compares two such sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402

#: a round's process may not take longer than this
ROUND_TIMEOUT_S = 170.0
#: start-up probes per run besides the rounds' own start-ups (setup_s
#: is the median of all of them)
SETUP_PROBES = 4
#: server start-ups per serve_jobs run (setup_s is their median)
SERVE_SETUPS = 5
#: earlier specs resubmitted after the computed serve rounds
STORE_HIT_PROBES = 4
#: jobs of the traced serve_jobs phase: the leading seeds, a fixed
#: number, so its per-job counts do not depend on timing
TRACED_SERVE_JOBS = 4


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def git_rev(root: str = ROOT):
    """The checked-out commit, read from ``.git`` (None outside git)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# batch workloads: one process per round
# ---------------------------------------------------------------------------

def _child(args: list) -> dict:
    """Run ``batch_round.py`` with ``args``; returns its JSON line plus
    the spawn time."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "batch_round.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round {args} failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spawned"] = spawned
    return out


def _setups(workload: str) -> list:
    """Start-up probes: processes that only import.  The first one,
    which may compile bytecode, is discarded."""
    _child([workload, "0", "warm"])
    setups = []
    for __ in range(SETUP_PROBES):
        out = _child([workload, "0", "warm"])
        setups.append(out["ready"] - out["spawned"])
    return setups


def run_batch(workload: str, seed: int, seconds: float, traced: bool,
              goldens: dict) -> dict:
    setups = _setups(workload)
    seeds = wl.round_seeds(workload, seed)
    rounds, pairs = [], []
    start = time.monotonic()
    for index, round_seed in enumerate(seeds):
        if index and time.monotonic() - start >= seconds:
            break
        if not traced:
            rounds.append(dict(_child([workload, str(round_seed), "0"]),
                               seed=round_seed))
            continue
        # plain and traced rounds of one seed, alternating which is first
        order = ("0", "1") if index % 2 == 0 else ("1", "0")
        got = {flag: dict(_child([workload, str(round_seed), flag]),
                          seed=round_seed) for flag in order}
        pairs.append((got["0"], got["1"]))
        rounds.extend(got[flag] for flag in order)
    attempted = wrong = 0
    mismatches = []
    for r in rounds:
        a, w = wl.check_round(goldens, workload, r["seed"], r["summaries"])
        r["attempted"], r["wrong"] = a, w
        attempted += a
        wrong += w
        if w:
            mismatches.append(_mismatch(goldens, workload, r["seed"],
                                        r["summaries"]))
    return {"rounds": rounds, "pairs": pairs, "setups": setups,
            "attempted": attempted, "wrong": wrong,
            "mismatches": mismatches}


def _mismatch(goldens: dict, workload: str, seed: int,
              summaries: list) -> dict:
    """What a wrong round returned next to its reference."""
    want = wl.golden_for(goldens, workload, seed) or []
    diff = [{"got": got, "want": ref} for got, ref in
            zip(summaries, want + [None] * len(summaries)) if got != ref]
    print(f"perfbench: {workload} round seed {seed}: wrong verdicts: "
          f"{json.dumps(diff)[:2000]}", file=sys.stderr)
    return {"seed": seed, "diff": diff}


def batch_end_to_end(result: dict) -> dict:
    rounds = result["rounds"]
    walls = [r["end"] - r["start"] for r in rounds]
    verdicts = sum(r["attempted"] for r in rounds)
    setups = result["setups"] + [r["ready"] - r["spawned"] for r in rounds]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "verdicts_per_s": (verdicts / sum(walls), "1/s", len(rounds)),
        "round_s_p50": (statistics.median(walls), "s", len(rounds)),
        "cpu_s_per_verdict": (sum(r["cpu_s"] for r in rounds) / verdicts,
                              "s", len(rounds)),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in rounds) / 1024.0, "MB",
                        len(rounds)),
    }, walls


def _pair_overhead(plain_walls, traced_walls) -> float:
    """Traced versus plain: extra wall time per verdict, as a share."""
    return sum(traced_walls) / sum(plain_walls) - 1.0


def layer_metrics(snapshots: list, walls: list) -> dict:
    """Per-layer metrics from traced rounds: self times are medians of
    per-round values; counts come from the first traced round, so they
    repeat exactly for a fixed seed; rates and ratios are medians."""

    def total(snap, name, field):
        return snap["totals"].get(name, [0, 0.0, 0.0])[field]

    def self_s(name):
        return statistics.median(total(s, name, 1) for s in snapshots)

    def rate(count_of, span, field=2):
        values = [count_of(s) / total(s, span, field)
                  for s in snapshots if total(s, span, field) > 0]
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    first = snapshots[0]
    c = first["counts"]
    return {
        "asm.explore_s": self_s("asm.explore"),
        "asm.explore_states": c.get("asm.explore_states", 0),
        "asm.conformance_s": self_s("asm.conformance"),
        "asm.fire_s": self_s("asm.fire"),
        "asm.conformance_paths": c.get("asm.conformance_paths", 0),
        "asm.conformance_steps": c.get("asm.conformance_steps", 0),
        "asm.steps_per_path": ratio(c.get("asm.conformance_steps", 0),
                                    c.get("asm.conformance_paths", 0)),
        "dsl.elaborate_s": self_s("dsl.elaborate"),
        "dsl.impl_rtl_s": self_s("dsl.impl_rtl"),
        "dsl.impl_sysc_s": self_s("dsl.impl_sysc"),
        "sysc.run_s": self_s("sysc.run"),
        "sysc.units_per_s": rate(
            lambda s: s["counts"].get("sysc.units", 0), "sysc.run"),
        "rtl.elaborate_s": self_s("rtl.elaborate"),
        "rtl.codegen_s": self_s("rtl.codegen"),
        "rtl.builds": total(first, "rtl.codegen", 0),
        "rtl.step_s": self_s("rtl.step"),
        "rtl.edges_per_s": rate(lambda s: total(s, "rtl.step", 0),
                                "rtl.step"),
        "rtl.edges": total(first, "rtl.step", 0),
        "lint.s": self_s("lint"),
        "mc.bdd_s": self_s("mc.bdd"),
        "bdd.peak_nodes": c.get("bdd.peak_nodes", 0),
        "bdd.cache_hit_ratio": ratio(
            c.get("bdd.cache_hits", 0),
            c.get("bdd.cache_hits", 0) + c.get("bdd.cache_misses", 0)),
        "sat.prove_s": self_s("sat.prove"),
        "core.flow_self_s": self_s("core.flow"),
        "fault.run_s": self_s("fault.run"),
        "fault.ppsfp_s": self_s("fault.ppsfp"),
        "fault.lane_passes": c.get("fault.lane_passes", 0),
        "fault.words_evaluated": c.get("fault.words_evaluated", 0),
        "fault.lane_utilization": ratio(
            c.get("fault.occupied_lane_passes", 0),
            c.get("fault.lane_passes", 0)),
        "par.supervise_s": self_s("par.supervise"),
        "par.worker_cpu_s": statistics.median(
            s["counts"].get("par.worker_cpu_s", 0.0) for s in snapshots),
        "par.fanout_efficiency": ratio(
            sum(s["counts"].get("par.worker_cpu_s", 0.0) for s in snapshots),
            sum(s["counts"].get("par.jobs_x_wall_s", 0.0)
                for s in snapshots)),
        "par.shards": c.get("par.shards", 0),
        "par.retries": c.get("par.retries", 0),
        # measured from the client on serve_jobs only
        "serve.submit_s": 0.0,
        "serve.overhead_s": 0.0,
        "serve.store_hit_s": 0.0,
        "serve.store_hits": 0,
        "serve.store_writes": 0,
        "serve.journal_records": 0,
        "trace.coverage": statistics.median(
            spans.covered_share(s["root_s"], s["entry_self_s"], w)
            for s, w in zip(snapshots, walls)),
    }


def batch_trace_output(workload: str, result: dict, out_dir: str,
                       seed: int) -> tuple:
    pairs = result["pairs"]
    traced = [t for __, t in pairs]
    walls = [t["end"] - t["start"] for t in traced]
    layers = layer_metrics([t["trace"] for t in traced], walls)
    layers["trace.overhead"] = _pair_overhead(
        [p["end"] - p["start"] for p, __ in pairs], walls)
    left = sorted({a for t in traced for a in t["left_wrapped"]})
    all_spans, names = [], {}
    for index, t in enumerate(traced):
        pid = index + 1
        names[pid] = f"{workload} round {index} (seed {t['seed']})"
        for span in t["trace"]["spans"]:
            all_spans.append(dict(span, round=index, pid=pid))
    path = os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")
    spans.write_chrome_trace(path, all_spans, names)
    return layers, left, path, len(traced)


# ---------------------------------------------------------------------------
# serve_jobs: one closed-loop client against python -m repro.serve
# ---------------------------------------------------------------------------

def _http(method: str, url: str, payload=None) -> dict:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=ROUND_TIMEOUT_S) as resp:
        return json.loads(resp.read().decode())


def _proc_cpu(pid: int) -> float:
    """User+system CPU of ``pid`` plus its reaped children, seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        data = handle.read()
    fields = data[data.rindex(")") + 2:].split()
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One ``repro.serve`` process with a fresh state directory."""

    def __init__(self, work: str, traced: bool):
        self.spans_path = os.path.join(work, "spans.json")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        serve_args = ["--root", os.path.join(work, "state"), "--port", "0"]
        if traced:
            cmd = [sys.executable, "-u",
                   os.path.join(HERE, "serve_launcher.py"),
                   "--spans", self.spans_path, "--", *serve_args]
        else:
            cmd = [sys.executable, "-u", "-m", "repro.serve", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready = time.monotonic()

    def _wait_ready(self) -> None:
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.base = line.split("listening on ")[1].split()[0]
        deadline = time.monotonic() + 60
        while True:
            try:
                if _http("GET", f"{self.base}/healthz").get("ok"):
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a shell's background jobs inherit an
        # ignored SIGINT.  The plain server just exits; the span
        # launcher turns SIGTERM into a clean shutdown.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        elif self.proc.stdout is not None:
            self.proc.stdout.close()


def _job_round(server: Server, round_seed: int) -> dict:
    spec = {"banks": wl.SMOKE_BANKS, "seed": round_seed, "jobs": 2}
    cpu0 = _proc_cpu(server.proc.pid)
    start = time.monotonic()
    submitted = _http("POST", f"{server.base}/jobs",
                      {"kind": "campaign", "spec": spec})
    posted = time.monotonic()
    with urllib.request.urlopen(
            f"{server.base}/jobs/{submitted['id']}/events",
            timeout=ROUND_TIMEOUT_S) as resp:
        lines = resp.read().decode().splitlines()
    end = time.monotonic()
    cpu = _proc_cpu(server.proc.pid) - cpu0
    record = _http("GET", f"{server.base}/jobs/{submitted['id']}")
    done = json.loads(lines[-1]) if lines else {}
    return {"seed": round_seed, "spec": spec, "key": submitted.get("key"),
            "start": start, "end": end, "submit_s": posted - start,
            "cpu_s": cpu, "status": done.get("status"),
            "result": record.get("result")}


def _serve_summary(job: dict) -> list:
    if job["status"] not in ("done", "cached") or not job.get("result"):
        return [{"outcomes": "", "digest": "", "counts": {}}]
    return [wl.signature_verdict(wl.report_signature(job["result"]))]


def _serve_phase(work: str, traced: bool, seeds: list, seconds: float,
                 goldens: dict, min_jobs: int = 1) -> dict:
    """Run jobs for ``seeds`` in order until ``seconds`` have passed
    and at least ``min_jobs`` are done (all of them when ``seconds`` is
    None), then resubmit the first few as store-hit probes."""
    server = Server(work, traced)
    try:
        jobs = []
        start = time.monotonic()
        for index, round_seed in enumerate(seeds):
            if index >= min_jobs and seconds is not None and \
                    time.monotonic() - start >= seconds:
                break
            jobs.append(_job_round(server, round_seed))
        hits = []
        for job in jobs[:STORE_HIT_PROBES]:
            t0 = time.monotonic()
            again = _http("POST", f"{server.base}/jobs",
                          {"kind": "campaign", "spec": job["spec"]})
            hits.append({"seed": job["seed"], "key_match":
                         again.get("key") == job["key"],
                         "status": again.get("status"),
                         "result": again.get("result"),
                         "latency_s": time.monotonic() - t0})
        health = _http("GET", f"{server.base}/healthz")
        hwm = _proc_hwm_mb(server.proc.pid)
        setup = server.ready - server.spawned
    finally:
        server.stop()
    attempted = wrong = 0
    mismatches = []
    for job in jobs:
        a, w = wl.check_round(goldens, "serve_jobs", job["seed"],
                              _serve_summary(job))
        job["attempted"], job["wrong"] = a, w
        attempted += a
        wrong += w
        if w:
            mismatches.append(_mismatch(goldens, "serve_jobs", job["seed"],
                                        _serve_summary(job)))
    for hit in hits:
        __, w = wl.check_round(goldens, "serve_jobs", hit["seed"],
                               _serve_summary(hit))
        hit["wrong"] = int(w > 0 or hit["status"] != "cached"
                           or not hit["key_match"])
        wrong += hit["wrong"]
        attempted += 1
    out = {"jobs": jobs, "hits": hits, "health": health, "hwm_mb": hwm,
           "setup_s": setup, "attempted": attempted, "wrong": wrong,
           "mismatches": mismatches}
    if traced:
        with open(server.spans_path) as handle:
            out["trace"] = json.load(handle)
    return out


def run_serve(seed: int, seconds: float, traced: bool, goldens: dict,
              out_dir: str) -> dict:
    _child(["serve_jobs", "0", "warm"])  # compile bytecode first
    seeds = wl.round_seeds("serve_jobs", seed)
    work = os.path.join(out_dir, "serve-work")
    setups = []
    for k in range(SERVE_SETUPS - 1):
        server = Server(os.path.join(work, f"setup{k}"), False)
        server.stop()
        setups.append(server.ready - server.spawned)
    budget = seconds / 2 if traced else seconds
    # a traced run pairs the traced jobs with plain jobs of the same seeds
    plain = _serve_phase(os.path.join(work, "plain"), False, seeds, budget,
                         goldens, TRACED_SERVE_JOBS if traced else 1)
    setups.append(plain["setup_s"])
    result = {"plain": plain, "setups": setups,
              "attempted": plain["attempted"], "wrong": plain["wrong"],
              "mismatches": plain["mismatches"]}
    if traced:
        # the leading seeds again, through the span launcher
        result["traced"] = _serve_phase(os.path.join(work, "traced"), True,
                                        seeds[:TRACED_SERVE_JOBS], None,
                                        goldens)
        result["attempted"] += result["traced"]["attempted"]
        result["wrong"] += result["traced"]["wrong"]
        result["mismatches"] += result["traced"]["mismatches"]
    shutil.rmtree(work, ignore_errors=True)
    return result


def serve_end_to_end(result: dict) -> tuple:
    plain = result["plain"]
    jobs = plain["jobs"]
    walls = [j["end"] - j["start"] for j in jobs]
    metrics = {
        "setup_s": (statistics.median(result["setups"]), "s",
                    len(result["setups"])),
        "verdicts_per_s": (len(jobs) / sum(walls), "1/s", len(jobs)),
        "round_s_p50": (statistics.median(walls), "s", len(jobs)),
        "cpu_s_per_verdict": (sum(j["cpu_s"] for j in jobs) / len(jobs),
                              "s", len(jobs)),
        "peak_rss_mb": (plain["hwm_mb"], "MB", 1),
    }
    return metrics, walls


def serve_trace_output(result: dict, out_dir: str, seed: int) -> tuple:
    plain, traced = result["plain"], result["traced"]
    snap = traced["trace"]
    jobs = traced["jobs"]
    n = len(jobs)
    walls = [j["end"] - j["start"] for j in jobs]
    runs = sorted((s for s in snap["spans"] if s["name"] == "fault.run"),
                  key=lambda s: s["start"])
    # one snapshot covers every job: divide it into per-job means
    per_job = {
        "totals": {k: [v[0] / n, v[1] / n, v[2] / n]
                   for k, v in snap["totals"].items()},
        "counts": {k: v / n for k, v in snap["counts"].items()},
        "root_s": snap["root_s"], "entry_self_s": snap["entry_self_s"],
    }
    layers = layer_metrics([per_job], [sum(walls)])
    par = [j["result"]["engine_stats"].get("par", {}) for j in jobs]
    layers["par.shards"] = statistics.mean(p.get("shards", 0) for p in par)
    layers["par.retries"] = statistics.mean(p.get("retries", 0) for p in par)
    fanout = sum(p.get("jobs", 0) * p.get("wall_s", 0.0) for p in par)
    layers["par.fanout_efficiency"] = (
        snap["counts"].get("par.worker_cpu_s", 0.0) / fanout
        if fanout else 0.0)
    layers["serve.submit_s"] = statistics.median(j["submit_s"] for j in jobs)
    layers["serve.overhead_s"] = statistics.median(
        w - (r["end"] - r["start"]) for w, r in zip(walls, runs))
    layers["serve.store_hit_s"] = statistics.median(
        h["latency_s"] for h in traced["hits"])
    store = traced["health"]["store"]
    layers["serve.store_hits"] = store.get("hits", 0)
    layers["serve.store_writes"] = store.get("writes", 0) / n
    layers["serve.journal_records"] = traced["health"]["journal_records"] / n
    layers["trace.overhead"] = _pair_overhead(
        [j["end"] - j["start"] for j in plain["jobs"][:n]], walls)
    client = [{"id": -i - 1, "name": "serve.job", "start": j["start"],
               "end": j["end"], "parent": None, "round": i,
               "self": 0.0, "pid": 1, "tid": 0}
              for i, j in enumerate(jobs)]
    server = [dict(s, pid=2) for s in snap["spans"]]
    path = os.path.join(out_dir, f"serve_jobs-seed{seed}.trace.json")
    spans.write_chrome_trace(path, client + server,
                             {1: "client", 2: "repro.serve"})
    return layers, [], path, n


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="layered benchmark of the verification stack")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench"),
                        help="directory for result and trace files")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so servers and rounds get stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    goldens = wl.load_goldens()
    os.makedirs(args.out, exist_ok=True)
    prov = provenance(args.seed)
    wall0 = time.monotonic()

    if args.workload == "serve_jobs":
        result = run_serve(args.seed, seconds, bool(args.trace), goldens,
                           args.out)
        e2e, walls = serve_end_to_end(result)
        rounds_cpu = [j["cpu_s"] for j in result["plain"]["jobs"]]
        hits = result["plain"]["hits"]
        extra = {"store_hit_s_p50": (
            statistics.median(h["latency_s"] for h in hits), "s",
            len(hits))} if hits else {}
    else:
        result = run_batch(args.workload, args.seed, seconds,
                           bool(args.trace), goldens)
        plain = [r for r in result["rounds"] if "trace" not in r]
        e2e, walls = batch_end_to_end(dict(result, rounds=plain))
        rounds_cpu = [r["cpu_s"] for r in result["rounds"]]
        extra = {}
    attempted, wrong = result["attempted"], result["wrong"]
    extra["error_rate"] = (wrong / attempted, "ratio", attempted)
    found = stats.tail(walls)
    prov["loadavg_after"] = list(os.getloadavg())
    prov["round_cpu_s"] = rounds_cpu
    prov["run_wall_s"] = time.monotonic() - wall0

    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"seconds={seconds:g} trace={args.trace} "
             f"cpus={prov['cpu_count']} python={prov['python']} "
             f"rev={(prov['git_rev'] or 'unknown')[:12]}"]
    metrics = {}
    if args.trace:
        if args.workload == "serve_jobs":
            layers, left, path, n = serve_trace_output(result, args.out,
                                                       args.seed)
        else:
            layers, left, path, n = batch_trace_output(
                args.workload, result, args.out, args.seed)
        if left:
            print(f"perfbench: wrappers left installed: {left}",
                  file=sys.stderr)
            wrong += 1
        for m in spec["per_layer"]:
            value = float(layers[m["name"]])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            note = "not exercised" if value == 0 else f"traced rounds={n}"
            lines.append(f"  {m['name']:<24} {_fmt(value):>14} "
                         f"{m['unit']:<8} ({note})")
        lines.append(f"  chrome trace: {os.path.relpath(path, ROOT)}")
    else:
        for m in spec["end_to_end"]:
            value, unit, n = e2e[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            lines.append(f"  {m['name']:<24} {_fmt(value):>14} "
                         f"{unit:<8} (n={n})")
        if found is None:
            lines.append(f"  {'round_s_tail':<24} {'absent':>14} "
                         f"{'s':<8} ({len(walls)} rounds; needs 20)")
        else:
            p, value, n = found
            lines.append(f"  {'round_s_tail':<24} {_fmt(value):>14} "
                         f"{'s':<8} (p{p:g}, n={n})")
    for name, (value, unit, n) in extra.items():
        lines.append(f"  {name:<24} {_fmt(value):>14} {unit:<8} (n={n})")
    lines.append(f"  load average {prov['loadavg_before'][0]:.2f} -> "
                 f"{prov['loadavg_after'][0]:.2f}; run wall "
                 f"{prov['run_wall_s']:.1f}s")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "provenance": prov,
        "metrics": {k: dict(v, samples=(e2e.get(k) or (0, 0, None))[2])
                    for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in extra.items()},
        "round_s_tail": found,
        "attempted": attempted, "failed": wrong,
        "mismatches": result["mismatches"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for line in lines:
        print(line)
    correct = wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": wrong, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
