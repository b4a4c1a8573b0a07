#!/usr/bin/env python3
"""tdat benchmark: one run of one workload.

    python3 perfbench/run.py --workload fullfeed|manypeers|livetail \
        --seed N --seconds S --trace 0|1 [--wrong-oracle]

Run from the root of a tdat source tree. Builds tdat and the benchmark's
generator and drive program into $CARGO_TARGET_DIR (default .bench_build), generates
the workload's capture and ground-truth oracle from --seed in separate
generator processes (the set-up), then runs perfbench_drive for S seconds:
untraced (--trace 0) it reports the end-to-end metrics, traced (--trace 1)
the per-layer ones. Every operation is checked against the oracle and the
two byte-identity properties (jobs=J JSON == jobs=1 JSON; drained live
JSON/.tdagg == batch). The last line of stdout is one JSON object with
correct, attempted, failed and metrics. --wrong-oracle adds one to the first
peer's prefix count, to show that the checks catch a wrong answer.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Per workload: how many of each operation one round holds, as
# (jobs=J analyze processes, jobs=1 analyze processes, live replays); how
# many times the inputs are generated (setup_s is the median); the bytes of
# each live append; and the appends between live snapshots. Whole rounds
# only, so every run attempts the same mix.
WORKLOADS = {
    "fullfeed": {"round": (3, 3, 1), "setups": 9,
                 "live_chunk": 256 * 1024, "snapshot_every": 4},
    "manypeers": {"round": (4, 4, 1), "setups": 3,
                  "live_chunk": 64 * 1024, "snapshot_every": 16},
    "livetail": {"round": (4, 4, 1), "setups": 25,
                 "live_chunk": 8 * 1024, "snapshot_every": 32},
}
DRIVE_TIMEOUT = 150  # seconds; a hung perfbench_drive fails the run


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def jobs_j():
    """J = min(4, half the usable cores): the other half is headroom for
    whatever else the host runs, so jobs=J work is not timed against it."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(4, cores // 2))


def build(build_dir, jobs):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs), "--target",
                    "tdat", "perfbench_gen", "perfbench_drive"],
                   check=True, stdout=sys.stderr)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def setup(gen, workload, seed, jobs, work):
    """Generates the inputs the workload's "setups" times; returns (median seconds, dir,
    whether every generation gave the same capture)."""
    walls, digests, out = [], set(), None
    count = WORKLOADS[workload]["setups"]
    for k in range(count):
        out = os.path.join(work, "setup%d" % k)
        os.makedirs(out)
        t0 = time.perf_counter()
        subprocess.run([gen, "--workload", workload, "--seed", str(seed),
                        "--jobs", str(jobs), "--out", out], check=True)
        walls.append(time.perf_counter() - t0)
        digests.add(sha256(os.path.join(out, "capture.pcap")))
        if k + 1 < count:
            shutil.rmtree(out)
    return statistics.median(walls), out, len(digests) == 1


def conn_key(peer):
    """The connection string tdat prints: the smaller (ip, port) first."""
    def ip_num(ip):
        return tuple(int(x) for x in ip.split("."))
    a = (ip_num(peer["sender_ip"]), peer["sender_port"], peer["sender_ip"])
    b = (ip_num(peer["receiver_ip"]), peer["receiver_port"], peer["receiver_ip"])
    lo, hi = sorted([a, b])
    return "%s:%d <-> %s:%d" % (lo[2], lo[1], hi[2], hi[1])


def pathology_problems(peer, c):
    """What the single-session analyzer tests expect for each pathology."""
    kind = peer["pathology"]
    rep = c["report"]
    f, g = rep["factors"], rep["groups"]
    checks = {
        "clean": [],
        "timer": [g["Sender-side"]["major"],
                  g["Sender-side"]["dominant"] == "BGP sender app",
                  f["BGP sender app"] > 0.5,
                  not g["Network"]["major"]],
        "small-window": [g["Receiver-side"]["major"],
                         g["Receiver-side"]["dominant"] == "TCP advertised window"],
        "slow-collector": [g["Receiver-side"]["major"],
                           g["Receiver-side"]["dominant"] == "BGP receiver app",
                           f["BGP receiver app"] > 0.3],
        # Random loss may spare every segment of a transfer; then there is
        # nothing to attribute.
        "upstream-loss": [f["Network packet loss"] > 0
                          or peer["transfer_upstream_drops"] == 0],
        "receiver-local-loss": [f["Receiver local packet loss"] > 0],
        "narrow-pipe": [f["Bandwidth limited"] > 0.3, g["Network"]["major"]],
        "probe-bug": [c["detectors"]["zero_window_bug"]["detected"]],
    }[kind]
    return [] if all(checks) else ["%s not attributed as expected" % kind]


def oracle_problems(text, oracle):
    """Checks one JSON report against the generator's ground truth."""
    try:
        doc = json.loads(text)
        conns = doc["connections"]
    except (ValueError, KeyError, TypeError) as e:
        return ["unparseable report: %s" % e]
    problems = []
    if "ingest" in doc:
        problems.append("ingest errors reported")
    peers = {conn_key(p): p for p in oracle["peers"]}
    if len(conns) != len(peers):
        problems.append("%d connections for %d peers" % (len(conns), len(peers)))
    seen = set()
    for c in conns:
        key = c.get("connection")
        p = peers.get(key)
        if p is None or key in seen:
            problems.append("unexpected connection %s" % key)
            continue
        seen.add(key)
        if "quarantined" in c:
            problems.append("%s quarantined" % key)
            continue
        t = c["transfer"]
        if t["prefixes"] != p["prefixes"] or t["updates"] != p["updates"]:
            problems.append("%s: %d prefixes / %d updates, generated %d / %d" % (
                key, t["prefixes"], t["updates"], p["prefixes"], p["updates"]))
        if not p["finished"] or not (p["finished_at"] - 1_000_000 <= t["end"]
                                     <= p["finished_at"] + 30_000_000):
            problems.append("%s: transfer end %d vs finished_at %d" % (
                key, t["end"], p["finished_at"]))
        ratios = list(c["report"]["factors"].values()) + [
            grp["ratio"] for grp in c["report"]["groups"].values()]
        if any(not (0 <= r <= 1 + 1e-9) for r in ratios):
            problems.append("%s: ratio outside [0, 1]" % key)
        problems += ["%s: %s" % (key, s)
                     for s in pathology_problems(p, c)]
    return problems


class Checker:
    """Decides each operation's pass/fail from perfbench_drive's records."""

    def __init__(self, oracle, out_dir):
        self.oracle = oracle
        self.out_dir = out_dir
        self.size = oracle["capture_bytes"]
        self.good = {}
        self.ref_json = None
        self.ref_agg = None
        self.problems = []

    def json_ok(self, digest):
        if digest not in self.good:
            with open(os.path.join(self.out_dir, digest + ".json")) as f:
                probs = oracle_problems(f.read(), self.oracle)
            self.good[digest] = not probs
            self.problems += probs[:5]
        return self.good[digest]

    def stats_ok(self, op):
        """Capture accounting: in-process ops see PipelineStats, spawned
        ones the --stats line analyze prints."""
        peers = len(self.oracle["peers"])
        if op["kind"].startswith("batch"):
            return (op["exit"] == 0 and op["stats_line"]
                    and op["records"] == self.oracle["records"]
                    and op["connections"] == peers
                    and op["mb"] == "%.2f" % (self.size / 1e6))
        return (op["bytes_ingested"] == self.size
                and op["records"] == self.oracle["records"]
                and op["connections"] == peers and op["quarantined"] == 0
                and not op["ingest_errors"] and not op.get("source_failed"))

    def ok(self, op):
        kind = op["kind"]
        if kind in ("batch_agg", "inproc_agg"):
            if self.ref_agg is None:
                self.ref_agg = op["agg"]
            return self.stats_ok(op)
        if kind == "sweep":
            return (op["matches_reference"]
                    and op["connections"] == len(self.oracle["peers"]))
        if kind in ("batch_1", "inproc_1") and self.ref_json is None:
            self.ref_json = op["json"]
        same = op["json"] == self.ref_json
        if kind == "render":
            return same and op["agg"] == self.ref_agg and self.json_ok(op["json"])
        if kind == "live":
            same = same and op["agg"] == self.ref_agg
        return same and self.stats_ok(op) and self.json_ok(op["json"])


def ordered(ops):
    """References first: the agg op, then the first jobs=1 op."""
    first = [o for o in ops if o["kind"] in ("batch_agg", "inproc_agg")]
    ones = [o for o in ops if o["kind"] in ("batch_1", "inproc_1")][:1]
    taken = {id(o) for o in first + ones}
    rest = [o for o in ops if id(o) not in taken]
    return first + ones + rest


def percentile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-oracle", action="store_true")
    args = ap.parse_args()

    jobs = jobs_j()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir, jobs)
    tdat = os.path.join(build_dir, "tdat_tools", "tdat")
    gen = os.path.join(build_dir, "perfbench_gen")
    drive = os.path.join(build_dir, "perfbench_drive")

    work = os.path.join(build_dir, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    setup_s, inputs, deterministic = setup(gen, args.workload, args.seed,
                                           jobs, work)
    capture = os.path.join(inputs, "capture.pcap")
    with open(os.path.join(inputs, "oracle.json")) as f:
        oracle = json.load(f)
    if args.wrong_oracle:
        oracle["peers"][0]["prefixes"] += 1
    log("%s seed %d: %d peers, %.2f MB, J=%d, setup %.2fs" % (
        args.workload, args.seed, len(oracle["peers"]),
        oracle["capture_bytes"] / 1e6, jobs, setup_s))

    out_dir = os.path.join(work, "drive")
    conf = WORKLOADS[args.workload]
    cmd = [drive, "trace" if args.trace else "measure", "--capture", capture,
           "--jobs", str(jobs), "--seconds", str(args.seconds),
           "--out", out_dir, "--chunk", str(conf["live_chunk"]),
           "--snapshot-every", str(conf["snapshot_every"])]
    if not args.trace:
        cmd += ["--tdat", tdat, "--round", "%d,%d,%d" % conf["round"]]
    # Own process group, so a hung perfbench_drive and its children die
    # together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVE_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench_drive timed out after %ds" % DRIVE_TIMEOUT)
        return 1
    if proc.returncode != 0:
        log("perfbench_drive failed with exit code %d" % proc.returncode)
        return 1
    result = json.loads(stdout.decode().strip().splitlines()[-1])

    checker = Checker(oracle, os.path.join(out_dir, "out"))
    ops = ordered(result["ops"])
    failed = sum(1 for op in ops if not checker.ok(op))
    for p in checker.problems:
        log("check failed:", p)
    log("%d rounds, %d operations, %d failed" % (result["rounds"], len(ops), failed))

    if args.trace:
        metrics = result["metrics"]
        log("spans: %d in %s" % (result["spans"], os.path.join(out_dir, "spans.json")))
    else:
        def of(kind, key):
            return [op[key] for op in ops
                    if op["kind"] == kind and not op["warmup"]]
        upd = result["update_ms"]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "analyze_mb_s": metric(statistics.median(of("batch_j", "mb_s")), "MB/s"),
            "analyze_mb_s_j1": metric(statistics.median(of("batch_1", "mb_s")), "MB/s"),
            "peak_rss_mb": metric(max(of("batch_j", "maxrss_kb")) * 1024 / 1e6, "MB"),
            "live_replay_mb_s": metric(statistics.median(of("live", "mb_s")), "MB/s"),
            "live_update_p50_ms": metric(percentile(upd, 0.5), "ms"),
            "live_update_p90_ms": metric(percentile(upd, 0.9), "ms"),
        }
        log("live update samples: %d" % len(upd))
    print(json.dumps({"correct": deterministic and len(ops) > 0 and failed == 0,
                      "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
