#!/usr/bin/env python3
"""End-to-end benchmark for mvrcd: seeded analysis traffic over loopback TCP.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Builds `mvrcd` and the in-process replayer from the checkout into
`.bench_build/`, starts an unmodified `mvrcd --listen=127.0.0.1:0` with its
default serial settings, loads the workload's base sessions (timed as
`setup_s`, from this process's start, the build excluded), sends whole
rounds of the seeded request sequence for `--seconds`, then checks every
answer against facts computed apart from the daemon. Each round step is
timed by its best latency over the rounds (see `end_to_end_metrics`). The
last stdout line is the result object.

`--trace 1` runs the same untraced daemon pass (for the network split),
then replays the same inputs in-process with a span around every call into
a layer and prints the per-layer metrics instead of the end-to-end ones.

`--steadiness N` runs the workload N times with seeds 1..N in fresh
processes and prints each end-to-end metric's spread against its bound.
"""

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import client  # noqa: E402
import workloads  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_ROOT = os.path.join(ROOT, ".bench_run")
KINDS = ["load", "mutate", "check", "subsets", "counterexample"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds mvrcd and the replayer (incremental)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no mvrc sources beside perfbench/ (%s)" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "mvrcd",
                    "perfbench_trace"], check=True, stdout=sys.stderr)
    return (os.path.join(BUILD_DIR, "mvrc", "mvrcd"),
            os.path.join(BUILD_DIR, "perfbench_trace"))


def process_age_s():
    """Seconds since this process started (/proc/self/stat, clock ticks)."""
    with open("/proc/self/stat") as stat:
        start_ticks = int(stat.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail(values):
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.90):
        if len(values) * (1 - q) >= 10:
            return "p%d=%.3f" % (round(q * 100), percentile(values, q))
    return "no tail (n=%d)" % len(values)


class Recorder:
    """Every timed response, by round, plus each round step's latencies."""

    def __init__(self, plan):
        self.rounds = []      # [[response, ...] per round]
        self.step_ms = [[] for _ in plan.round]  # per round step: its latency in each round
        self.side_ms = []     # certify: connection B's checks, from when each was due
        self.net_wait = []    # checks: client latency minus server elapsed_us, seconds
        self.side = []        # certify: connection B's responses
        self.attempted = 0
        self.failed = 0

    def record(self, step, response, seconds, position=None):
        """`position` is the step's index in the round; None for certify's
        side stream."""
        self.attempted += 1
        if not response.get("ok"):
            self.failed += 1
            log("request failed: %s -> %s" % (step.request.get("cmd"), response))
        if position is None:
            self.side_ms.append(seconds * 1e3)
        else:
            self.step_ms[position].append(seconds * 1e3)
        if step.request["cmd"] == "check":
            self.net_wait.append(seconds - response.get("elapsed_us", 0) / 1e6)


def run_setup(conn, plan):
    responses = []
    for step in plan.setup:
        response, _ = conn.call(step.request)
        if not response.get("ok"):
            raise RuntimeError("setup request failed: %s" % response)
        responses.append(response)
    return responses


def run_closed_loop(conn, plan, seconds, rec):
    start = time.perf_counter()
    while True:
        responses = []
        for position, step in enumerate(plan.round):
            response, latency = conn.call(step.request)
            rec.record(step, response, latency, position)
            responses.append(response)
        rec.rounds.append(responses)
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def run_certify(conn_a, conn_b, plan, seconds, rec):
    """Connection A: closed-loop rounds. Connection B: one cached `check`
    every 1/rate s, open loop, each timed from when it was due."""
    period = 1.0 / plan.side_rate_hz
    side_request = {"cmd": "check", "session": plan.side_session}
    side_step = workloads.Step(side_request, plan.side_session)
    sel = selectors.DefaultSelector()
    sel.register(conn_a.sock, selectors.EVENT_READ, conn_a)
    sel.register(conn_b.sock, selectors.EVENT_READ, conn_b)
    start = time.perf_counter()
    next_due = start + period
    due_queue = []
    lateness = []
    index, responses, a_sent, a_open = 0, [], start, True
    conn_a.send(plan.round[0].request)
    while a_open or due_queue:
        now = time.perf_counter()
        if a_open and now >= next_due:
            lateness.append(now - next_due)
            conn_b.send(side_request)
            due_queue.append(next_due)
            next_due += period
            continue
        timeout = max(0.0, next_due - now) if a_open else None
        for key, _ in sel.select(timeout):
            conn = key.data
            for response in conn.poll():  # readable: returns without blocking
                done = time.perf_counter()
                if conn is conn_b:
                    rec.record(side_step, response, done - due_queue.pop(0))
                    rec.side.append(response)
                    continue
                rec.record(plan.round[index], response, done - a_sent, index)
                responses.append(response)
                index += 1
                if index == len(plan.round):
                    rec.rounds.append(responses)
                    index, responses = 0, []
                    if done - start >= seconds:
                        a_open = False
                        continue
                a_sent = time.perf_counter()
                conn_a.send(plan.round[index].request)
    sel.close()
    elapsed = time.perf_counter() - start
    log("certify side stream: %d checks, generator lateness p50=%.3f ms max=%.3f ms"
        % (len(lateness), statistics.median(lateness) * 1e3 if lateness else 0,
           max(lateness) * 1e3 if lateness else 0))
    return elapsed


def run_daemon_pass(binary, plan, seconds, run_dir, build_s=0.0):
    """Setup + timed window on a fresh daemon; returns what the checks need.
    `setup_s` runs from the process's start to the base sessions being
    loaded and warm, less the `build_s` spent building."""
    state_dir = os.path.join(run_dir, "state") if plan.workload == "session_mix" else None
    if state_dir:
        os.makedirs(state_dir)
    rec = Recorder(plan)
    with client.Daemon(binary, state_dir) as daemon:
        conn = client.Connection(daemon.port)
        setup_responses = run_setup(conn, plan)
        setup_s = process_age_s() - build_s
        if plan.side_session:
            side = client.Connection(daemon.port)
            window = run_certify(conn, side, plan, seconds, rec)
            wire = conn.bytes_sent + conn.bytes_received + side.bytes_sent + side.bytes_received
            side.close()
        else:
            window = run_closed_loop(conn, plan, seconds, rec)
            wire = conn.bytes_sent + conn.bytes_received
        peak_rss_mb = daemon.peak_rss_mb()
        check_start = time.perf_counter()
        failures = checks.run_all(plan, rec, conn.call)
        log("output checks: %.2f s, %d failure(s)" % (time.perf_counter() - check_start,
                                                    len(failures)))
        conn.close()
        for failure in failures:
            log("CHECK FAILED: " + failure)
    return {
        "rec": rec, "setup_s": setup_s, "window_s": window, "peak_rss_mb": peak_rss_mb,
        "wire_bytes": wire, "failures": failures, "setup_responses": setup_responses,
    }


def end_to_end_metrics(plan, result):
    """Each round step is timed by its best latency over the run's rounds:
    every round is the same work, and the host's noise only ever adds time.
    A `*_p50_ms` is the median of those best times over the command's steps;
    `requests_per_s` is a round's closed-loop requests over the sum of their
    best times. Certify's side-stream checks are open loop, so
    `check_p50_ms` there is the median of all of them, each timed from when
    it was due. Every request's own latency goes to stderr."""
    rec = result["rec"]
    best = [min(values) for values in rec.step_ms]
    metrics = {
        "requests_per_s": (len(best) / (sum(best) / 1e3), "req/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (result["setup_s"], "s"),
    }
    log("%d rounds; %.1f req/s over the whole window" % (len(rec.rounds),
                                                       rec.attempted / result["window_s"]))
    for kind in KINDS:
        positions = [i for i, step in enumerate(plan.round)
                     if workloads.KIND_OF.get(step.request["cmd"]) == kind]
        if kind == "check" and plan.side_session:
            every = rec.side_ms
            value = statistics.median(every)
        else:
            every = [ms for i in positions for ms in rec.step_ms[i]]
            value = statistics.median(best[i] for i in positions)
        metrics["%s_p50_ms" % kind] = (value, "ms")
        log("%-15s %.3f ms; every request: n=%d p50=%.3f ms %s"
            % (kind, value, len(every), statistics.median(every), tail(every)))
    return metrics


def trace_metrics(trace_binary, plan, result, seconds, run_dir):
    """In-process replay of the same inputs with spans; per-layer metrics."""
    requests_path = os.path.join(run_dir, "requests.ndjson")
    with open(requests_path, "w") as out:
        for step in plan.setup:
            out.write(json.dumps({"setup": True, "request": step.request}) + "\n")
        for step in plan.round:
            out.write(json.dumps({"request": step.request}) + "\n")
            if plan.side_session:  # certify: one side-stream check per request
                side = {"cmd": "check", "session": plan.side_session}
                out.write(json.dumps({"side": True, "request": side}) + "\n")
    spans_path = os.path.join(ROOT, ".bench_traces", "%s.spans.json" % plan.workload)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    args = [trace_binary, "--requests=" + requests_path, "--spans=" + spans_path,
            "--min-seconds=%g" % max(1.0, seconds / 2),
            "--state-dir=" + os.path.join(run_dir, "trace_state")]
    if plan.workload == "session_mix":
        args.append("--daemon-state")  # the daemon ran with --state-dir
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_trace failed: " + proc.stderr[-2000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    failures = checks.compare_trace_totals(plan, result, out["totals"])
    for failure in failures:
        log("TRACE MISMATCH: " + failure)
    rec = result["rec"]
    metrics = {name: (value["value"], value["unit"]) for name, value in out["metrics"].items()}
    metrics["trace.overhead_pct"] = (out["tracing_overhead_pct"], "%")
    metrics["net.wait_ms"] = (statistics.median(rec.net_wait) * 1e3, "ms")
    metrics["net.bytes_per_request"] = (result["wire_bytes"] / max(1, rec.attempted), "B")
    return metrics, failures, out["totals"]


def run_once(args):
    plan = workloads.WORKLOADS[args.workload](args.seed)
    build_start = time.perf_counter()
    mvrcd, tracer = build()
    build_s = time.perf_counter() - build_start
    run_dir = os.path.join(RUN_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = run_daemon_pass(mvrcd, plan, args.seconds, run_dir, build_s)
        failures = list(result["failures"])
        if args.trace:
            metrics, trace_failures, _ = trace_metrics(tracer, plan, result, args.seconds,
                                                       run_dir)
            failures += trace_failures
        else:
            metrics = end_to_end_metrics(plan, result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    rec = result["rec"]
    print(json.dumps({
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }), flush=True)
    return 0


def steadiness(args):
    """Runs the workload `args.steadiness` times with seeds 1..N in fresh
    processes and prints each metric's quartile spread against its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for seed in range(1, args.steadiness + 1):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d" % (seed, result["correct"], result["failed"]))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (n, values[n][-1]) for n in bounds)),
              flush=True)
    worst = 0.0
    for name, bound in bounds.items():
        q1, q2, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / q2
        worst = max(worst, spread / bound)
        print("%-24s median=%-12.5g spread=%6.2f%%  bound=%4.1f%%  %s"
              % (name, q2, 100 * spread, 100 * bound,
                 "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")))
    return 0 if worst <= 1.0 else 1


def main():
    # SIGTERM unwinds like an exception, so the daemon is stopped and the
    # run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    args = parser.parse_args()
    if args.steadiness:
        return steadiness(args)
    if args.seconds is None:
        parser.error("--seconds is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
