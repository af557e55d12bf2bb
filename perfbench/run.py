#!/usr/bin/env python3
"""The NGPC model's benchmark: one command, three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

It builds the release `dse` binary and the in-process harness
(`perfbench/harness`), runs the workload closed loop with one client,
checks every output, prints each metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones. The metric names and units come from BENCHMARK.json. See
perfbench/README.md.
"""

import argparse
import filecmp
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("exhaustive", "paper-iterate", "nfp-stream")
HARNESS_MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
# Set-ups measured per run; `setup_s` is their median. Cheap set-ups
# are repeated more, since one cold `dse --preset paper` run is ~15 ms.
SETUP_REPEATS = {"exhaustive": 3, "paper-iterate": 21}
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
# Consecutive requests per block of the tail statistic (see `tail`).
TAIL_BLOCK = 100

# The Fig. 12 cross-app average speedups published in the paper, as
# pinned by tests/paper_reproduction.rs: NGPC-8/16/32/64 per encoding.
FIG12 = {
    "hashgrid": (12.94, 20.85, 33.73, 39.04),
    "densegrid": (9.05, 14.22, 22.57, 26.22),
    "lowres": (9.37, 14.66, 22.97, 26.4),
}
FIG12_UNITS = (8, 16, 32, 64)
# The paper NFP at 1 MB / 8 banks, 1 GHz, FHD: CSV columns 5..12.
FIG12_NFP = ("1", "1024", "8", "16", "64", "64", "1", "64")
FHD_PIXELS = str(1920 * 1080)


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def load_contract():
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    if not os.path.isfile("BENCHMARK.json"):
        raise BenchError("BENCHMARK.json not found; run from the repository root")
    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    return contract["end_to_end"], contract["per_layer"]


def build():
    """Builds `dse` and the harness; returns their paths."""
    for required in ("Cargo.toml", os.path.join("crates", "dse", "Cargo.toml"), HARNESS_MANIFEST):
        if not os.path.isfile(required):
            raise BenchError(f"{required} not found; run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ng-dse", "--bin", "dse"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", HARNESS_MANIFEST],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.abspath(os.path.join(target, "release"))
    return os.path.join(release, "dse"), os.path.join(release, "ngpc-perfbench")


class Workspace:
    """Fresh directories under the checkout's .bench_work, removed at exit."""

    def __init__(self):
        os.makedirs(".bench_work", exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=".bench_work")
        self.count = 0

    def fresh(self, name):
        self.count += 1
        path = os.path.abspath(os.path.join(self.root, f"{self.count:03d}-{name}"))
        os.makedirs(path)
        return path

    def env(self, calib_dir):
        """A child environment whose calibration store is `calib_dir` and
        which inherits no trace ledger or fault plan."""
        env = {k: v for k, v in os.environ.items() if not k.startswith(("NG_DSE_", "NGPC_CALIB"))}
        env["NGPC_CALIB_CACHE_DIR"] = calib_dir
        return env

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass


def run_child(argv, cwd, env, log_path):
    """Runs one process to completion. Returns (exit code, wall seconds,
    peak RSS in MiB, stdout bytes)."""
    with open(log_path, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out


def harness_json(harness, args, ws, env):
    """Runs a harness subcommand and parses its last stdout line."""
    log_path = os.path.join(ws.root, "harness.log")
    code, _, rss, out = run_child([harness] + args, ws.root, env, log_path)
    if code != 0:
        with open(log_path, errors="replace") as f:
            raise BenchError(f"harness {args[0]} failed (exit {code}): {f.read()[-2000:]}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result.setdefault("peak_rss_mb", rss)
    return result


def constraints(rng):
    """Seeded report budgets. Neither is part of the cache key, and both
    stay above the paper's NGPC-64 point (~36% area, ~22% power), so
    --check-headline holds on every draw."""
    return ["--max-area", f"{rng.uniform(40, 120):.1f}", "--max-power", f"{rng.uniform(25, 120):.1f}"]


def fig12_error_pct(csv_path):
    """Largest relative error (%) of the 12 Fig. 12 cross-app bars in a
    points CSV against the published values."""
    sums = {}
    with open(csv_path) as f:
        next(f)
        for line in f:
            c = line.split(",", 13)
            if c[3] != FHD_PIXELS or tuple(c[5:13]) != FIG12_NFP or int(c[4]) not in FIG12_UNITS:
                continue
            key = (c[2], int(c[4]))
            total, n = sums.get(key, (0.0, 0))
            sums[key] = (total + float(c[13].split(",", 1)[0]), n + 1)
    worst = 0.0
    for enc, published in FIG12.items():
        for units, want in zip(FIG12_UNITS, published):
            total, n = sums.get((enc, units), (0.0, 0))
            if n != 4:
                raise BenchError(f"CSV lacks the four Fig. 12 apps for {enc} NGPC-{units}")
            worst = max(worst, abs(total / n - want) / want * 100.0)
    return worst


def tail(samples):
    """The tail latency: (value, label). Its unit is the highest
    percentile with TAIL_BEYOND samples beyond it, taken per block of
    TAIL_BLOCK consecutive requests (the p90) and reported as the median
    over blocks. One whole-run percentile 10 samples from the top of
    ~2,000 would follow a handful of host stalls, not the program. A run
    of fewer than two blocks uses its own highest such percentile.
    Below 2 * TAIL_BEYOND samples that would sit under the median, so
    the run's interpolated p90 stands in for it: the blocks' percentile,
    and one that a single stalled request does not move."""
    n = len(samples)
    if n >= 2 * TAIL_BLOCK:
        blocks = [sorted(samples[i:i + TAIL_BLOCK]) for i in range(0, n - TAIL_BLOCK + 1, TAIL_BLOCK)]
        value = statistics.median(b[-TAIL_BEYOND - 1] for b in blocks)
        pct = 100.0 * (TAIL_BLOCK - TAIL_BEYOND) / TAIL_BLOCK
        return value, f"median over {len(blocks)} blocks of {TAIL_BLOCK} of each block's p{pct:.0f}; n={n}"
    s = sorted(samples)
    if n < 2:
        return s[-1], "the only request"
    if n < 2 * TAIL_BEYOND:
        value = statistics.quantiles(s, n=10, method="inclusive")[-1]
        return value, f"p90 of n={n}, interpolated; {TAIL_BEYOND} beyond needs {2 * TAIL_BEYOND} samples"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return s[n - TAIL_BEYOND - 1], f"p{pct:.1f} of n={n}, {TAIL_BEYOND} beyond"


def throughput(walls, points):
    """Points delivered per host second: the median over blocks of
    TAIL_BLOCK consecutive requests of each block's points over its
    summed walls, so a few host stalls move one block, not the figure. A
    run of fewer than two blocks uses its whole total."""
    n = len(walls)
    per_request = points / n
    if n < 2 * TAIL_BLOCK:
        return points / sum(walls)
    return statistics.median(per_request * TAIL_BLOCK / sum(walls[i:i + TAIL_BLOCK])
                             for i in range(0, n - TAIL_BLOCK + 1, TAIL_BLOCK))


class Tally:
    """Requests attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed, why):
        self.attempted += attempted
        self.failed += failed
        if failed:
            log(f"perfbench: FAILED ({failed} of {attempted}): {why}")

    def record(self, ok, why):
        self.add(1, 0 if ok else 1, why)


def dse_workload(name, seed, seconds, dse, harness, ws, tally, threads):
    """exhaustive / paper-iterate, untraced: set-up, timed loop, checks.
    Returns the raw figures the metrics are computed from."""
    rng = random.Random(seed)
    if name == "exhaustive":
        base = ["--preset", "guided-lanes", "--no-cache", "--csv", "out.csv", "--json", "out.json"]
    else:
        base = ["--preset", "paper", "--csv", "out.csv", "--check-headline"]
    base += ["--threads", str(threads)]

    # The reference CSV, computed outside every timed span.
    ref_dir = ws.fresh("reference")
    ref_csv = os.path.join(ref_dir, "ref.csv")
    ref_env = ws.env(os.path.join(ref_dir, "calib"))
    if name == "exhaustive":
        harness_json(harness, ["reference-csv", "--preset", "guided-lanes", "--threads",
                               str(threads), "--out", ref_csv], ws, ref_env)
    else:
        code, _, _, _ = run_child([dse, "--preset", "paper", "--no-cache", "--csv", ref_csv],
                                  ref_dir, ref_env, os.path.join(ref_dir, "dse.log"))
        if code != 0:
            raise BenchError(f"reference `dse --no-cache` run failed (exit {code})")

    def request(cwd, env):
        code, wall, rss, _ = run_child([dse] + base + constraints(rng), cwd, env,
                                       os.path.join(cwd, "dse.log"))
        out_csv = os.path.join(cwd, "out.csv")
        ok = code == 0 and os.path.isfile(out_csv) and filecmp.cmp(out_csv, ref_csv, shallow=False)
        return ok, wall, rss, f"dse {name} exit {code}, CSV identical to reference: {ok}"

    def cold_run():
        """A set-up: a run with an empty calibration store (and, for
        paper-iterate, an empty point store). Returns its directory and
        environment."""
        cwd = ws.fresh("cold")
        env = ws.env(os.path.join(cwd, "calib"))
        ok, wall, _, why = request(cwd, env)
        tally.record(ok, "set-up " + why)
        setup.append(wall)
        return cwd, env

    # The first set-up leaves the directory the timed requests run in,
    # its stores warm. The other set-ups are spread evenly through the
    # timed loop, so their median samples the host over the whole run;
    # the loop's deadline moves past the time they take.
    setup = []
    warm_cwd, warm_env = cold_run()
    walls, rss_max = [], 0.0
    repeats = SETUP_REPEATS[name]
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        due = started + seconds * len(setup) / repeats
        if len(setup) < repeats and time.perf_counter() >= due:
            cold_started = time.perf_counter()
            cold_run()
            deadline += time.perf_counter() - cold_started
            continue
        ok, wall, rss, why = request(warm_cwd, warm_env)
        tally.record(ok, why)
        if ok:
            walls.append(wall)
        rss_max = max(rss_max, rss)
    while len(setup) < repeats:
        cold_run()
    if not walls:
        raise BenchError(f"{name}: no request succeeded")
    points = sum(1 for _ in open(ref_csv)) - 1
    extra = {"paper_fig12_err_pct": (fig12_error_pct(os.path.join(warm_cwd, "out.csv")), "%")}
    timing = (statistics.median(walls), tail(walls), throughput(walls, points * len(walls)))
    return setup, timing, rss_max, extra


def by_pair(values, pairs):
    """Groups `values` by the (field, config) pair each one belongs to."""
    groups = {}
    for value, pair in zip(values, pairs):
        groups.setdefault(int(pair), []).append(value)
    return groups


def pair_balanced(r):
    """The nfp-stream timing figures, each pair weighted equally.

    Batch cost varies ~3x across the 108 (field, config) pairs and a 30 s
    run visits each pair only about twice, so a plain statistic over the
    batches follows which pairs the seed happened to repeat. Weighting
    every pair alike gives each run the same cost mix:
    - p50: the mean over pairs of each pair's median batch wall;
    - tail: the percentile of the pair-weighted batch walls with
      TAIL_BEYOND batches' weight beyond it;
    - points/s: visits per second at the mean over pairs of each pair's
      median visit wall.
    Returns (p50, (tail, label), points per second)."""
    walls, pairs = r["walls_s"], r["wall_pairs"]
    groups = by_pair(walls, pairs)
    p50 = statistics.fmean(statistics.median(g) for g in groups.values())
    weighted = sorted((w, 1.0 / len(groups[int(p)])) for w, p in zip(walls, pairs))
    beyond = len(groups) * TAIL_BEYOND / len(walls)
    acc, tail_value = 0.0, weighted[-1][0]
    for w, weight in reversed(weighted):
        acc += weight
        if acc > beyond:
            tail_value = w
            break
    pct = 100.0 * (1.0 - TAIL_BEYOND / len(walls))
    label = f"p{pct:.1f} of n={len(walls)} batch walls over {len(groups)} pairs, pairs weighted alike"
    visits = by_pair(r["visit_walls_s"], r["visit_pairs"]).values()
    points_per_s = 1.0 / statistics.fmean(statistics.median(v) for v in visits)
    return p50, (tail_value, label), points_per_s


def nfp_workload(seed, seconds, harness, ws, tally):
    """nfp-stream, untraced: the harness streams in-process."""
    cwd = ws.fresh("nfp-stream")
    r = harness_json(harness, ["stream", "--seed", str(seed), "--seconds", str(seconds)],
                     ws, ws.env(os.path.join(cwd, "calib")))
    tally.add(r["attempted"], r["failed"],
              "nfp-stream batch refused, wrong, or with unrepeatable cycles")
    if "nfp_model_gap_pct" not in r:
        tally.record(False, "nfp-stream: some (field, config) pair never ran")
        r["nfp_model_gap_pct"] = float("nan")
    if not r["visit_walls_s"]:
        raise BenchError("nfp-stream: no visit succeeded")
    timing = pair_balanced(r)
    extra = {
        "queries_per_s": (timing[2] * r["queries_per_visit"], "1/s"),
        "nfp_model_gap_pct": (r["nfp_model_gap_pct"], "%"),
        "cycles_digest": (r.get("cycles_digest", "none"), "fnv64"),
    }
    return r["setup_s"], timing, r["peak_rss_mb"], extra


def untraced_p50(name, dse, ws, tally, threads, seconds):
    """The untraced request wall the traced run is compared against."""
    rng = random.Random(0)
    cwd = ws.fresh("untraced")
    env = ws.env(os.path.join(cwd, "calib"))
    if name == "exhaustive":
        args = ["--preset", "guided-lanes", "--no-cache", "--csv", "out.csv", "--json", "out.json"]
        min_runs, seconds = 4, 0.0
    else:
        args = ["--preset", "paper", "--csv", "out.csv", "--check-headline"]
        min_runs = TAIL_BEYOND + 1
    walls = []
    started = time.perf_counter()
    # The first run warms the stores and is not counted.
    while len(walls) < min_runs or time.perf_counter() - started < seconds:
        code, wall, _, _ = run_child([dse] + args + ["--threads", str(threads)] + constraints(rng),
                                     cwd, env, os.path.join(cwd, "dse.log"))
        tally.record(code == 0, f"untraced dse {name} exit {code}")
        walls.append(wall)
    return statistics.median(walls[1:])


def main():
    args = parse_args()
    end_to_end, per_layer = load_contract()
    dse, harness = build()
    threads = max(1, min(2, os.cpu_count() or 1))
    ws = Workspace()
    tally = Tally()
    try:
        if args.trace == 0:
            if args.workload == "nfp-stream":
                setup, timing, rss, extra = nfp_workload(
                    args.seed, args.seconds, harness, ws, tally)
            else:
                setup, timing, rss, extra = dse_workload(
                    args.workload, args.seed, args.seconds, dse, harness, ws, tally, threads)
            p50, (tail_value, tail_label), points_per_s = timing
            values = {
                "setup_s": statistics.median(setup),
                "wall_p50_s": p50,
                "wall_tail_s": tail_value,
                "points_per_s": points_per_s,
                "peak_rss_mb": rss,
            }
            notes = {"wall_tail_s": tail_label, "setup_s": f"median of {len(setup)}"}
            metrics = end_to_end
        else:
            cwd = ws.fresh("layers")
            layer_args = ["layers", "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--threads", str(threads),
                          "--work", cwd] + constraints(random.Random(args.seed))
            r = harness_json(harness, layer_args, ws, ws.env(os.path.join(cwd, "calib")))
            tally.add(r["attempted"], r["failed"],
                      "engine layer refused or differs from the software model")
            if args.workload == "nfp-stream":
                untraced = r["obs.untraced_request_s"]
            else:
                untraced = untraced_p50(args.workload, dse, ws, tally, threads, args.seconds / 4)
            traced, layer_sum = r["obs.traced_request_s"], r["obs.layer_sum_s"]
            values = dict(r)
            values["obs.trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced
            values["obs.unattributed_pct"] = 100.0 * (traced - layer_sum) / traced
            extra = {
                "untraced_request_s": (untraced, "s"),
                "traced_request_s": (traced, "s"),
                "layer_calls_s": (layer_sum, "s"),
            }
            notes = {}
            metrics = per_layer
    finally:
        ws.close()

    failed_ratio = tally.failed / max(tally.attempted, 1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"dse threads {threads}  requests {tally.attempted}")
    out = {}
    for m in metrics:
        value = values[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"  {m['name']:36} {value:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for name, (value, unit) in extra.items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:36} {shown} {unit}")
    print(f"  {'failed_ratio':36} {failed_ratio:.6g} ratio")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
