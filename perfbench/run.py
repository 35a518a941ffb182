#!/usr/bin/env python3
"""MIRAGE transpiler benchmark: builds the program from source and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build)/perfbench. The last line of standard output is one JSON object
with correct/attempted/failed/metrics; see perfbench/README.md for what each
workload and metric means.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
CMAKE_DIR = os.path.join(BUILD, "cmake")
HARNESS = os.path.join(CMAKE_DIR, "perfbench_harness")
MIRAGE = os.path.join(CMAKE_DIR, "mirage", "tools", "mirage")
CATALOG = os.path.join(ROOT, "FIT_CATALOG.bin")
INPUTS = os.path.join(HERE, "inputs")

WORKLOADS = ("oneshot", "suite-route", "lower-cold")
END_TO_END = {
    "setup_s": "s", "oneshot_ms": "ms", "circuits_per_s": "1/s",
    "lowered_circuits_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p99_ms": "ms", "depth_pulses": "pulses", "swaps": "count",
    "peak_rss_mb": "MB",
}

# Routing options of the fit catalog's mirror-RB target set, so lowering
# those inputs is answered from FIT_CATALOG.bin.
CATALOG_MIRROR = dict(trials=4, swap_trials=2, fwd_bwd=1, seed=0x9000,
                      vf2=False)
SUITE_TOPOLOGIES = ("heavyhex57", "grid6x6", "heavyhex433")
SUITE_OPTIONS = dict(trials=4, swap_trials=2, fwd_bwd=2, seed=20240229,
                     vf2=True)
SERVE_OPTIONS = dict(trials=4, swap_trials=2, fwd_bwd=2, seed=20240229,
                     vf2=True)
# A fixed 2-qubit interaction point needing 3 sqrt(iSWAP) pulses directly
# and mirrored, so lower-cold routing does not depend on the seed while
# every block's unitary (and so its fit) does.
GENERIC_COORDS = (0.55, 0.40, 0.25)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(1)


# --- build -----------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        die("no program sources next to the benchmark (run from the "
            "repository root)")
    os.makedirs(CMAKE_DIR, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(logf, "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                      "--target", "perfbench_harness", "mirage"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(logf) as f:
                    log(f.read()[-3000:])
                die("build failed: " + " ".join(cmd))


# --- inputs ------------------------------------------------------------------

def qasm(n, lines):
    return ("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n" % n +
            "".join(l + ";\n" for l in lines))


def qft(n):
    lines = []
    for j in range(n):
        lines.append("h q[%d]" % j)
        for k in range(j + 1, n):
            lines.append("cp(pi/%d) q[%d],q[%d]" % (2 ** (k - j), k, j))
    for j in range(n // 2):
        lines.append("swap q[%d],q[%d]" % (j, n - 1 - j))
    return qasm(n, lines)


def mirror(width, layers, twist):
    """C then C^-1 after an X twist on `twist`. C's structure and angles come
    from a fixed stream: the twist is a local gate on the first blocks, so
    routing is the same for every twist while the output bitstring is not."""
    rng = random.Random(1000 + width)
    half = []
    for _ in range(layers):
        qs = list(range(width))
        rng.shuffle(qs)
        for a, b in zip(qs[0::2], qs[1::2]):
            t, p, l = (round(rng.uniform(-3, 3), 6) for _ in range(3))
            half.append(("u3", (t, p, l), (a,)))
            half.append(("cx", (), (a, b)))
    inverse = []
    for name, p, q in reversed(half):
        if name == "u3":
            inverse.append(("u3", (-p[0], -p[2], -p[1]), q))
        else:
            inverse.append((name, p, q))
    lines = ["x q[%d]" % q for q in sorted(twist)]
    for name, p, q in half + inverse:
        args = ",".join("q[%d]" % x for x in q)
        lines.append("%s(%s) %s" % (name, ",".join(repr(v) for v in p), args)
                     if p else "%s %s" % (name, args))
    return qasm(width, lines)


def twisted(rng, width):
    k = rng.randint(1, width - 1)
    return rng.sample(range(width), k)


def generic_layers(rng, width, layers):
    """Random 2-qubit layers: every block is CAN(GENERIC_COORDS) between
    single-qubit gates drawn from a fixed stream and nudged by the seed, so
    routing is the same for every seed while every block's unitary is new
    (outside the catalog) and of like fitting difficulty."""
    shape = random.Random(7 + width)
    ca, cb, cc = (c * math.pi / 4 for c in GENERIC_COORDS)
    lines = []
    for _ in range(layers):
        qs = list(range(width))
        shape.shuffle(qs)
        for a, b in zip(qs[0::2], qs[1::2]):
            for q in (a, b):
                lines.append("u3(%r,%r,%r) q[%d]" % tuple(
                    [shape.uniform(0, 3) + rng.uniform(-0.05, 0.05)] +
                    [shape.uniform(-3, 3) + rng.uniform(-0.05, 0.05)
                     for _ in range(2)] + [q]))
            lines.append("rxx(%r) q[%d],q[%d]" % (-2 * ca, a, b))
            lines.append("ryy(%r) q[%d],q[%d]" % (-2 * cb, a, b))
            lines.append("rzz(%r) q[%d],q[%d]" % (-2 * cc, a, b))
    return qasm(width, lines)


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    return path


def plan_line(name, path, topology, opts, lower=False, fmt="json"):
    return "\t".join([name, path, topology, str(opts["trials"]),
                      str(opts["swap_trials"]), str(opts["fwd_bwd"]),
                      str(opts["seed"]), "1" if opts["vf2"] else "0",
                      "1" if lower else "0", fmt])


def write_plan(path, lines):
    write(path, "\n".join(lines) + "\n")
    return path


def cli_args(path, topology, opts, lower=False, fmt="json"):
    args = [MIRAGE, "transpile", path, "--topology", topology,
            "--trials", str(opts["trials"]),
            "--swap-trials", str(opts["swap_trials"]),
            "--fwd-bwd", str(opts["fwd_bwd"]), "--seed", str(opts["seed"]),
            "--catalog", CATALOG, "--format", fmt]
    if not opts["vf2"]:
        args.append("--no-vf2")
    if lower:
        args.append("--lower")
    return args


# --- workload definitions ------------------------------------------------------

CLI_DEFAULTS = dict(trials=8, swap_trials=4, fwd_bwd=2, seed=20240229,
                    vf2=True)


def oneshot_items(work, rng):
    """One round of one-shot invocations: (name, path, topology, opts, lower,
    format). Trivial inputs, qft8, twisted mirror circuits and the catalog's
    mirror-RB circuits lowered."""
    d = os.path.join(work, "in")
    trivial1 = write(os.path.join(d, "trivial1.qasm"), qasm(1, ["h q[0]",
                                                               "x q[0]"]))
    trivial2 = write(os.path.join(d, "trivial2.qasm"), qasm(2, ["cx q[0],q[1]"]))
    qft8 = write(os.path.join(d, "qft8.qasm"), qft(8))
    m6 = write(os.path.join(d, "mirror6.qasm"), mirror(6, 4, twisted(rng, 6)))
    m8 = write(os.path.join(d, "mirror8.qasm"), mirror(8, 4, twisted(rng, 8)))
    rb8 = os.path.join(INPUTS, "mirror_rb", "w8.qasm")
    rb10 = os.path.join(INPUTS, "mirror_rb", "w10.qasm")
    return [
        ("trivial1", trivial1, "line2", CLI_DEFAULTS, False, "json"),
        ("trivial2", trivial2, "line2", CLI_DEFAULTS, False, "json"),
        ("qft8", qft8, "heavyhex57", CLI_DEFAULTS, False, "json"),
        ("mirror6", m6, "heavyhex57", CLI_DEFAULTS, False, "qasm"),
        ("mirror8", m8, "heavyhex57", CLI_DEFAULTS, False, "json"),
        ("rb8-lowered", rb8, "heavyhex57", CATALOG_MIRROR, True, "qasm"),
        ("rb10-lowered", rb10, "heavyhex57", CATALOG_MIRROR, True, "json"),
    ]


def suite_plan(work):
    lines = []
    t3 = os.path.join(INPUTS, "table3")
    for topo in SUITE_TOPOLOGIES:
        for f in sorted(os.listdir(t3)):
            lines.append(plan_line(topo + "/" + f[:-5], os.path.join(t3, f),
                                   topo, SUITE_OPTIONS))
    return write_plan(os.path.join(work, "suite.plan"), lines)


def lower_cold_plan(work, rng):
    lines = []
    for i in range(48):
        p = write(os.path.join(work, "in", "layers%d.qasm" % i),
                  generic_layers(rng, 6, 3))
        lines.append(plan_line("layers%d" % i, p, "heavyhex57",
                               CATALOG_MIRROR, lower=True))
    return write_plan(os.path.join(work, "lower.plan"), lines)


def serve_plan(work, rng):
    d = os.path.join(work, "in")
    items = [
        ("setup/trivial2", write(os.path.join(d, "s_trivial2.qasm"),
                                 qasm(2, ["cx q[0],q[1]"])),
         "line2", SERVE_OPTIONS, False, "json"),
        ("hot/trivial1", write(os.path.join(d, "s_trivial1.qasm"),
                               qasm(1, ["h q[0]", "x q[0]"])),
         "line2", SERVE_OPTIONS, False, "json"),
        ("hot/qft8", write(os.path.join(d, "s_qft8.qasm"), qft(8)),
         "heavyhex57", SERVE_OPTIONS, False, "json"),
        ("hot/mirror6", write(os.path.join(d, "s_mirror6.qasm"),
                              mirror(6, 4, twisted(rng, 6))),
         "heavyhex57", SERVE_OPTIONS, False, "qasm"),
        ("hot/mirror8", write(os.path.join(d, "s_mirror8.qasm"),
                              mirror(8, 4, twisted(rng, 8))),
         "heavyhex57", SERVE_OPTIONS, False, "json"),
        ("fresh/qft8", os.path.join(d, "s_qft8.qasm"), "heavyhex57",
         SERVE_OPTIONS, False, "json"),
        ("lowered/rb8", os.path.join(INPUTS, "mirror_rb", "w8.qasm"),
         "heavyhex57", CATALOG_MIRROR, True, "json"),
        ("lowered/rb10", os.path.join(INPUTS, "mirror_rb", "w10.qasm"),
         "heavyhex57", CATALOG_MIRROR, True, "json"),
    ]
    # One-shot CLI references for the hot pool, made untimed and in
    # parallel before the server starts.
    procs = []
    for name, path, topo, opts, lower, fmt in items:
        if name.startswith("hot/"):
            procs.append(subprocess.Popen(
                cli_args(path, topo, opts, lower, fmt) +
                ["--output", path + ".ref"], stderr=subprocess.DEVNULL))
    for p in procs:
        if p.wait() != 0:
            die("one-shot reference run failed")
    return write_plan(os.path.join(work, "serve.plan"),
                      [plan_line(n, p, t, o, l, f)
                       for n, p, t, o, l, f in items])


# --- runners -------------------------------------------------------------------

def host_probe():
    """(probe ms now, the reference host's probe ms): see hostProbeMs in
    harness/common.hh."""
    out = subprocess.run([HARNESS, "probe"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.split()
    return float(out[0]), float(out[1])


def run_harness(args, timed_setup):
    """Run the harness; returns (result dict, or None if it printed none;
    set-up seconds or None). Set-up is timed from spawn to the harness's
    READY line and scaled to the reference host speed by the probes just
    before the spawn and just after READY (the harness's PROBE line); of
    two probes the smaller counts, as in steadyProbes (harness/common.cc)."""
    before, ref = host_probe() if timed_setup else (None, None)
    start = time.monotonic()
    proc = subprocess.Popen([HARNESS] + args, stdout=subprocess.PIPE,
                            text=True)
    setup = after = None
    last = None
    for line in proc.stdout:
        line = line.strip()
        if line == "READY" and setup is None:
            setup = time.monotonic() - start
        elif line.startswith("PROBE ") and after is None:
            after = float(line.split()[1])
        elif line:
            last = line
    if proc.wait() != 0:
        die("harness %s failed" % args[0])
    result = json.loads(last) if last else None
    for p in (result or {}).pop("problems", []):
        log("check failed: " + p)
    if timed_setup:
        if setup is None or after is None:
            die("harness never reported set-up done")
        log("set-up %.4f s raw, probes %.3f/%.3f ms" % (setup, before, after))
        setup *= ref / min(before, after)
    return result, setup


def check_report(name, text, lowered, problems):
    rep = json.loads(text)
    res = rep["result"]
    if lowered:
        low = rep["lowered"]
        for k in ("depthPulses", "totalPulses"):
            if res["metrics"][k] != low["metrics"][k]:
                problems.append("%s: estimated %s %s != measured %s" %
                                (name, k, res["metrics"][k],
                                 low["metrics"][k]))
        if low["newFits"] != 0:
            problems.append("%s: %d fits outside the catalog" %
                            (name, low["newFits"]))
        return low["metrics"]["depthPulses"], res["swapsAdded"]
    return res["metrics"]["depthPulses"], res["swapsAdded"]


def run_oneshot(work, seed, seconds):
    rng = random.Random(seed)
    items = oneshot_items(work, rng)
    problems = []

    outf = os.path.join(work, "cli.out")
    errf = os.path.join(work, "cli.err")
    peak_kb = [0]

    raw_ms = []

    def once(item):
        """One process, timed fork to exit by the harness, which scales the
        time to the reference host speed by host probes just before and
        after, and reads the process's own peak RSS."""
        name, path, topo, opts, lower, fmt = item
        p = subprocess.run([HARNESS, "run-timed", outf, errf] +
                           cli_args(path, topo, opts, lower, fmt),
                           stdout=subprocess.PIPE, text=True, check=True)
        ms, raw, kb, code = p.stdout.split()
        raw_ms.append(float(raw))
        peak_kb[0] = max(peak_kb[0], int(kb))
        with open(outf) as f:
            out = f.read()
        if code != "0":
            with open(errf) as f:
                problems.append("%s: exit %s: %s" % (name, code,
                                                     f.read()[-300:]))
        return float(ms), out, code == "0"

    attempted = failed = 0
    first = {}
    all_ms, trivial_ms, nontrivial_ms, lowered_ms = [], [], [], []
    depth = swaps = 0
    t0 = time.monotonic()
    while True:
        order = list(range(len(items)))
        rng.shuffle(order)
        for i in order:
            name, path, topo, opts, lower, fmt = items[i]
            ms, out, ok = once(items[i])
            attempted += 1
            if not ok:
                failed += 1
                continue
            all_ms.append(ms)
            if name.startswith("trivial"):
                trivial_ms.append(ms)
            else:
                nontrivial_ms.append(ms)
            if lower:
                lowered_ms.append(ms)
            if name not in first:
                first[name] = out
                if fmt == "json":
                    d, s = check_report(name, out, lower, problems)
                    depth += d
                    swaps += s
                else:
                    write(os.path.join(work, "out", name + ".qasm"), out)
            elif out != first[name]:
                problems.append(name + ": output differs between runs")
        if time.monotonic() - t0 >= seconds:
            break
    rss_mb = peak_kb[0] / 1024.0
    log("%d processes, raw median %.1f ms, scaled median %.1f ms" %
        (len(raw_ms), statistics.median(raw_ms), statistics.median(all_ms)))

    listing = [os.path.join(work, "out", name + ".qasm") + "\t" + path +
               "\t" + topo
               for name, path, topo, _, _, fmt in items if fmt == "qasm"]
    write(os.path.join(work, "qasm.list"), "\n".join(listing) + "\n")
    chk = subprocess.run([HARNESS, "check-qasm", "--list",
                          os.path.join(work, "qasm.list")],
                         stdout=subprocess.PIPE, text=True)
    if chk.returncode != 0:
        problems.append("QASM output checks: " + chk.stdout.strip())
    for p in problems:
        log("check failed: " + p)
    metrics = {
        # Set-up: fresh processes on the trivial inputs, spawn to exit.
        "setup_s": statistics.median(trivial_ms) / 1000.0,
        "oneshot_ms": statistics.median(nontrivial_ms),
        "circuits_per_s": len(all_ms) / (sum(all_ms) / 1000),
        "lowered_circuits_per_s": len(lowered_ms) / (sum(lowered_ms) / 1000),
        "latency_p50_ms": quantile(all_ms, 0.5),
        "latency_p99_ms": quantile(all_ms, 0.99),
        "depth_pulses": depth,
        "swaps": swaps,
        "peak_rss_mb": rss_mb,
    }
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": {k: {"value": v, "unit": u}
                                          for k, v, u in
                                          ((k, metrics[k], END_TO_END[k])
                                           for k in END_TO_END)}}


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def workload_plan(workload, work, seed):
    rng = random.Random(seed)
    if workload == "suite-route":
        return suite_plan(work)
    if workload == "lower-cold":
        return lower_cold_plan(work, rng)
    return write_plan(os.path.join(work, "oneshot.plan"),
                      [plan_line(n, p, t, o, l, f) for n, p, t, o, l, f in
                       oneshot_items(work, rng)])


# Cold set-ups timed besides the measured run's own, half before it and
# half after; setup_s is the median of all of them.
EXTRA_SETUPS = 4


def run_untraced(workload, work, seed, seconds):
    if workload == "oneshot":
        return run_oneshot(work, seed, seconds)
    if workload == "suite-route":
        plan = suite_plan(work)
        setup_args = ["--plan", plan, "--catalog", CATALOG]
        args = ["suite-route"] + setup_args + ["--lower-topology",
                                               "heavyhex57"]
    else:
        plan = lower_cold_plan(work, random.Random(seed))
        setup_args = ["--plan", plan]
        args = ["lower-cold"] + setup_args
    args += ["--seed", str(seed), "--seconds", str(seconds)]

    def cold_setup():
        return run_harness(["setup"] + setup_args, True)[1]

    setups = [cold_setup() for _ in range(EXTRA_SETUPS // 2)]
    result, setup = run_harness(args, True)
    if result is None:
        die("harness %s printed no result" % args[0])
    setups.append(setup)
    setups += [cold_setup() for _ in range(EXTRA_SETUPS - EXTRA_SETUPS // 2)]
    result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                    "unit": "s"}
    return result


def check_trace_file(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    if not events:
        return "trace file has no events"
    for e in events:
        for k in ("name", "ph", "ts", "dur", "pid", "tid"):
            if k not in e:
                return "trace event without %r" % k
    return ""


def run_traced(workload, work, seed, seconds):
    trace_out = os.path.join(BUILD, "trace-%s-%d.json" % (workload, seed))
    plan = workload_plan(workload, work, seed)
    # Relative: a Unix socket path must stay under ~100 characters.
    sock = os.path.relpath(os.path.join(work, "serve.sock"), ROOT)
    args = ["trace", "--plan", plan, "--catalog", CATALOG,
            "--library", "cold" if workload == "lower-cold" else "catalog",
            "--trace-out", trace_out, "--seconds", str(seconds),
            "--seed", str(seed), "--mirage", MIRAGE,
            "--serve-plan", serve_plan(work, random.Random(seed)),
            "--socket", sock, "--log", os.path.join(work, "serve.log")]
    result, _ = run_harness(args, False)
    if result is None:
        die("harness trace printed no result")
    why = check_trace_file(trace_out)
    if why:
        log("check failed: " + why)
        result["correct"] = False
    log("trace written to " + trace_out)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    work = os.path.join(BUILD, "work", "%s-%d" % (a.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        if a.trace:
            result = run_traced(a.workload, work, a.seed, a.seconds)
        else:
            result = run_untraced(a.workload, work, a.seed, a.seconds)
    finally:
        subprocess.call(["rm", "-rf", work])
    want = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    names = [m["name"] for m in want["per_layer" if a.trace else "end_to_end"]]
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        die("metrics missing: " + ", ".join(missing))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": {n: metrics[n] for n in names}}))


if __name__ == "__main__":
    main()
