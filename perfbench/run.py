#!/usr/bin/env python3
"""Benchmark of the stabsim CLI at its shipped defaults.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. The script builds stabsim and the
traced replay harness with dune, then drives the CLI as a closed loop with
one client: one child process at a time, each op's commands in sequence,
the next op only after the previous one ended. Every op's output is checked
against the oracle below. With --trace 0 it prints the end-to-end metrics;
with --trace 1 it replays the op in-process through perfbench/ocaml/harness, with
spans around every library call, and prints the per-layer metrics. The last
line of standard output is the result object; the line before it holds the
details (samples, percentiles, exact counters, oracle verdicts).

See perfbench/README.md for the workloads and the metric-to-layer map.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "_perfbench_work")
# The benchmark's own dune project (perfbench/ocaml) is built in this
# staging tree, next to a copy of lib/, so the repository's build never
# compiles it. It is kept between runs so that dune rebuilds only what
# changed.
STAGE = os.path.join(ROOT, "_perfbench_build")
STABSIM = os.path.join(ROOT, "_build", "default", "bin", "stabsim.exe")
HARNESS = os.path.join(STAGE, "_build", "default", "harness", "harness.exe")
CALIBRATE = os.path.join(STAGE, "_build", "default", "calibrate", "calibrate.exe")
COUNTERS_FILE = os.path.join(ROOT, "perfbench", "exact_counters.json")

CHILD_TIMEOUT_S = 150
# End-to-end times are reported in calibrated seconds: raw times scaled by
# CAL_REF_S over the mean duration of a fixed reference kernel
# (perfbench/ocaml/calibrate) sampled between the commands around them (see
# Calibration). On a shared host the speed of one fixed computation drifts
# by up to +-25 % over tens of seconds, and by half over tens of minutes;
# the kernel drifts with it, and the ratio much less.
# CAL_REF_S is the kernel's typical duration on a 2-core x86-64 VM at
# 2.1 GHz, so a calibrated second is close to a second there. Raw medians
# are in the detail line.
CAL_REF_S = 0.17
# An op is scaled by the kernel samples taken after its own commands and
# the AROUND samples before and after those, about +-7 s of the run.
AROUND = 5
# Set-up ops run in rounds of SETUP_ROUND: two before the first op and one
# after every op, so that their median spans the whole run rather than one
# moment of it.
SETUP_ROUND = 7
# The Monte-Carlo oracle uses a fixed seed: a 99.9 % interval misses the
# true mean for one seed in a thousand, and an oracle must not flake.
ORACLE_SEED = 2008
Z_ORACLE = 3.2905  # two-sided 99.9 % normal quantile
MEAN_RTOL = 1e-4  # the CLI prints means with 4 decimals
# trace.overhead_share is the median over at most this many pairs.
OVERHEAD_PAIRS = 5

# Expected verdicts from the paper. Dijkstra's three-state protocol is
# self-stabilizing; Algorithm 1 (token-ring) is weak-stabilizing but not
# self-stabilizing under the unfair, weakly fair or strongly fair daemon
# (Theorem 2). Every chain below converges with probability 1 (Theorem 7).
VERDICTS = {
    "dijkstra-3state": {"weak": True, "self": True, "self_weakly_fair": True, "self_strongly_fair": True},
    "token-ring": {"weak": True, "self": False, "self_weakly_fair": False, "self_strongly_fair": False},
}

# Exact expected stabilization times under the randomized daemon, pinned
# when the benchmark was defined; each is also checked against an
# independent Engine-based Monte-Carlo estimate.
MEANS = {
    ("dijkstra-3state", 11, "distributed-random"): 7.0612,
    ("token-ring", 10, "distributed-random"): 25.8486,
    ("herman", 11, "central-random"): 684.1572,
    ("dijkstra-3state", 6, "distributed-random"): 2.7108,
    ("token-ring", 6, "distributed-random"): 11.5558,
    ("herman", 5, "central-random"): 5.6705,
}

# An exact workload is one `check` and/or `markov` invocation on one
# instance; `smoke` is the ring size used by --smoke, `mc_runs` the size of
# the Monte-Carlo oracle sample.
WORKLOADS = {
    "self-d3-ring11": dict(protocol="dijkstra-3state", ring=11, smoke=6, commands=["check", "markov"],
                           randomization="distributed-random", quotient=False, mc_runs=20000),
    "weak-tokenring-ring10": dict(protocol="token-ring", ring=10, smoke=6, commands=["check", "markov"],
                                  randomization="distributed-random", quotient=True, mc_runs=20000),
    "solve-herman-ring11": dict(protocol="herman", ring=11, smoke=5, commands=["markov"],
                                randomization="central-random", quotient=False, mc_runs=5000),
}

CLASS_OF = {"distributed-random": "distributed", "central-random": "central"}


class OracleError(Exception):
    """An op whose output contradicts the oracle."""


# --- child processes -------------------------------------------------------

ENV = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=WORK)


def spawn(argv):
    """Run one child to completion. Returns wall seconds, CPU seconds and
    peak RSS (MB) from its own wait4 rusage, exit code and output."""
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return dict(argv=argv, wall=wall, cpu=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0,
                code=proc.returncode, stdout=stdout, stderr=stderr)


def run_ok(argv):
    r = spawn(argv)
    if r["code"] != 0:
        raise OracleError("%s exited %d: %s" % (" ".join(argv[1:]), r["code"], r["stderr"].strip()[-300:]))
    return r


def harness(args):
    r = run_ok([HARNESS] + args)
    r["json"] = json.loads(r["stdout"].strip().splitlines()[-1])
    return r


def dune_build(root, targets):
    r = subprocess.run(["dune", "build", "--root", root] + targets, cwd=root, env=ENV,
                       capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit("perfbench: build failed\n" + r.stderr[-2000:])


def stage():
    """Refresh the staging tree: perfbench/ocaml's project and a copy of lib/."""
    os.makedirs(STAGE, exist_ok=True)
    shutil.copy2(os.path.join(ROOT, "perfbench", "ocaml", "dune-project"), STAGE)
    for src in ("perfbench/ocaml/harness", "perfbench/ocaml/calibrate", "lib"):
        dst = os.path.join(STAGE, os.path.basename(src))
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, src), dst)


def build():
    if not all(os.path.exists(os.path.join(ROOT, p)) for p in ("dune-project", "bin/stabsim.ml", "lib")):
        sys.exit("perfbench: no stabsim sources under %s; run from the root of a source checkout" % ROOT)
    dune_build(ROOT, ["bin/stabsim.exe"])
    stage()
    dune_build(STAGE, ["harness/harness.exe", "calibrate/calibrate.exe"])


# --- oracle ----------------------------------------------------------------

def close(got, want):
    return abs(got - want) <= MEAN_RTOL * max(1.0, abs(want))


def expected_mean(protocol, ring, randomization):
    key = (protocol, ring, randomization)
    if key not in MEANS:
        raise OracleError("no expected mean for %s ring:%d %s" % key)
    return MEANS[key]


def check_verdicts(protocol, got, where):
    want = VERDICTS[protocol]
    if got != want:
        raise OracleError("%s: verdicts %s, expected %s" % (where, got, want))


def parse_cli_check(out):
    verdicts, counters = {}, {}
    names = {"weak-stabilizing": "weak", "self-stabilizing (unfair)": "self",
             "self-stabilizing (weakly fair)": "self_weakly_fair",
             "self-stabilizing (strongly fair)": "self_strongly_fair"}
    for line in out.splitlines():
        line = line.strip()
        key, _, value = line.partition(": ")
        if key in names:
            verdicts[names[key]] = value == "true"
        elif "configurations)" in line:
            counters["configs"] = int(line.rsplit("(", 1)[1].split()[0])
        elif line.startswith("symmetry quotient: group order"):
            counters["orbits"] = int(line.split(", ")[1].split()[0])
    return verdicts, counters


def parse_cli_markov(out):
    counters, mean = {}, None
    for line in out.splitlines():
        if "NONCONVERGED" in line or "does NOT converge" in line:
            raise OracleError("markov: " + line.strip())
        if line.startswith("sparse solve:"):
            parts = line.split(":")[1].split(",")
            counters["blocks"] = int(parts[0].split()[0])
            counters["sweeps"] = int(parts[1].split()[0])
        elif line.startswith("expected stabilization time:"):
            mean = float(line.split("mean ")[1].split()[0])
        elif line.startswith("orbit-lumped chain:"):
            counters["orbits"] = int(line.split(":")[1].split()[0])
    if mean is None or "converges with probability 1" not in out:
        raise OracleError("markov: no probability-1 verdict in output")
    return mean, counters


def mc_agrees(exact, mean, stddev, runs):
    return abs(exact - mean) <= Z_ORACLE * stddev / runs ** 0.5


# --- workloads -------------------------------------------------------------

class Workload:
    def __init__(self, name, spec, seed, smoke):
        self.name, self.spec, self.seed = name, spec, seed
        self.protocol = spec["protocol"]
        self.ring = spec["smoke"] if smoke else spec["ring"]
        self.mc_runs = 2000 if smoke else spec["mc_runs"]

    def argv(self, command, ring, cli=True):
        args = [command, "-p", self.protocol, "-t", "ring:%d" % ring]
        if command == "check":
            args += ["--class", CLASS_OF[self.spec["randomization"]]]
        else:
            args += ["-r", self.spec["randomization"]]
        if self.spec["quotient"]:
            args.append("--quotient")
        return ([STABSIM] if cli else [HARNESS]) + args

    def op_argvs(self, cli=True, ring=None):
        return [self.argv(c, ring or self.ring, cli) for c in self.spec["commands"]]

    def setup_argvs(self):
        return self.op_argvs(ring=3)

    def mean(self):
        return expected_mean(self.protocol, self.ring, self.spec["randomization"])

    def oracle(self):
        """Independent Engine-based estimate; the exact mean must lie in its
        99.9 % interval. Runs once per invocation, outside every timing."""
        mc = harness(["montecarlo", "-p", self.protocol, "-t", "ring:%d" % self.ring,
                      "-r", self.spec["randomization"], "--runs", str(self.mc_runs),
                      "--seed", str(ORACLE_SEED)])
        res = mc["json"]["result"]
        ok = mc_agrees(self.mean(), res["mean"], res["stddev"], res["runs"])
        detail = dict(exact=self.mean(), mc_mean=res["mean"], mc_stderr=res["stddev"] / res["runs"] ** 0.5,
                      runs=res["runs"], seed=ORACLE_SEED, agrees=ok)
        if not ok:
            raise OracleError("exact mean %.4f outside the 99.9%% interval of %s" % (self.mean(), detail))
        return detail, [mc]

    def check_cli(self, procs):
        counters = {}
        for p in procs:
            command = p["argv"][1]
            if command == "check":
                verdicts, c = parse_cli_check(p["stdout"])
                check_verdicts(self.protocol, verdicts, "check")
            else:
                mean, c = parse_cli_markov(p["stdout"])
                if not close(mean, self.mean()):
                    raise OracleError("markov mean %.4f, expected %.4f" % (mean, self.mean()))
            counters.update(c)
        return counters

    def check_traced(self, outs):
        for o in outs:
            res = o["json"]["result"]
            if o["json"]["cmd"] == "check":
                check_verdicts(self.protocol, {k: res[k] for k in VERDICTS[self.protocol]}, "traced check")
            else:
                if not res.get("prob1") or res.get("solver") == "max-sweeps":
                    raise OracleError("traced markov: %s" % res)
                if not close(res["mean"], self.mean()):
                    raise OracleError("traced markov mean %r, expected %.4f" % (res["mean"], self.mean()))

    def instance(self, ring):
        return ["-p", self.protocol, "-t", "ring:%d" % ring, "--class", CLASS_OF[self.spec["randomization"]]]

    def probe_campaign(self):
        """A one-cell campaign on the ring:3 set-up instance, for the
        campaign layer. Its seed, from which the cell's Monte-Carlo seed
        would derive, is drawn from --seed."""
        cell = dict(protocol=self.protocol, topology="ring:3",
                    analysis="check" if "check" in self.spec["commands"] else "markov",
                    sched=CLASS_OF[self.spec["randomization"]])
        doc = dict(name="probe", seed=random.Random(self.seed).randrange(1 << 30), runs=100,
                   max_steps=1000000, retries=2, backoff_ms=10, cells=[cell])
        path = os.path.join(WORK, "probe.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
        return path


# --- measurement -----------------------------------------------------------

class Calibration:
    """The reference kernel, sampled between measured commands: once, plus
    once per 2 s of the command before it, at most five times, so that long
    commands get about as many samples per second as short ones, about one
    per 1.5 s of the run.

    Each op is scaled by the samples taken around it (around()), not by
    those of the whole run: the host's speed drifts within a run as well,
    and the slowest ops of a run are mostly those that met a slow spell,
    which a factor for the whole run leaves in. The kernel's own noise is
    as large as an op's, so the window spans several samples, and their
    mean, not their median, is taken: an op's time integrates the host's
    speed over the whole op, and a median would discount a slow spell the
    op did feel. Wall times are scaled by the kernel's wall time and CPU
    times by its CPU time: on a virtual machine the wall time also counts
    time the host gave to other guests, which CPU time does not."""

    def __init__(self):
        self.samples, self.cpu_samples = [], []
        self.after(0.0)

    def after(self, wall):
        for _ in range(1 + min(4, int(wall // 2))):
            wall_s, cpu_s, _ = run_ok([CALIBRATE])["stdout"].split()
            self.samples.append(float(wall_s))
            self.cpu_samples.append(float(cpu_s))

    def factor(self):
        """The wall factor of the whole run, for set-up ops, which run
        between every two ops."""
        return CAL_REF_S / statistics.fmean(self.samples)

    def around(self, first, end):
        """The wall and CPU factors of an op whose own commands were
        followed by samples[first:end]: the mean over those and the AROUND
        samples before and after them."""
        near = slice(max(0, first - AROUND), end + AROUND)
        return (CAL_REF_S / statistics.fmean(self.samples[near]),
                CAL_REF_S / statistics.fmean(self.cpu_samples[near]))


def run_op(w, cli=True, cal=None):
    procs = []
    first = len(cal.samples) if cal else 0
    for argv in w.op_argvs(cli):
        p = run_ok(argv) if cli else harness(argv[1:])
        if cal:
            cal.after(p["wall"])
        procs.append(p)
    counters = w.check_cli(procs) if cli else w.check_traced(procs)
    return dict(wall=sum(p["wall"] for p in procs), cpu=sum(p["cpu"] for p in procs),
                rss_mb=max(p["rss_mb"] for p in procs), procs=procs, counters=counters,
                kernels=(first, len(cal.samples) if cal else 0))


def tail(samples):
    """The tail of the samples, with its percentile and the number of
    samples beyond it. From 100 samples on, the highest percentile with at
    least ten samples beyond it (the 90th or above). Below 100, where that
    percentile would be under the 90th, the 90th percentile interpolated
    between the two samples around it (statistics.quantiles, inclusive
    method). The value moves smoothly with the sample count and meets the
    first rule at 100, so host speed moving the op count of a run cannot
    switch the statistic."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 100:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    if n == 1:
        return xs[0], 90.0, 0
    return statistics.quantiles(xs, n=10, method="inclusive")[-1], 90.0, n - 1 - 9 * (n - 1) // 10


def setup_round(w, reps, walls):
    walls += [sum(run_ok(a)["wall"] for a in w.setup_argvs()) for _ in range(reps)]


def measure(w, seconds, reps):
    cal = Calibration()
    setup_walls = []
    setup_round(w, 2 * reps, setup_walls)
    cal.after(0.0)
    ops, failures = [], []
    t0 = time.perf_counter()
    while True:
        try:
            ops.append(run_op(w, cal=cal))
        except OracleError as e:
            failures.append(str(e))
        setup_round(w, reps, setup_walls)
        if time.perf_counter() - t0 >= seconds:
            break
    setup_s = statistics.median(setup_walls)
    attempted = len(ops) + len(failures)
    median = lambda key: statistics.median([o[key] for o in ops]) if ops else float("nan")
    factors = [cal.around(*o["kernels"]) for o in ops]
    walls = [o["wall"] * fw for o, (fw, _) in zip(ops, factors)]
    cpus = [o["cpu"] * fc for o, (_, fc) in zip(ops, factors)]
    tail_value, pct, beyond = tail(walls or [float("nan")])
    f = cal.factor()
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_tail_s": (tail_value, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (median("rss_mb"), "MB"),
        "setup_s": (setup_s * f, "s"),
        "ok_share": (len(ops) / attempted, "share"),
    } if ops else {}
    detail = dict(samples=len(ops), tail_percentile=pct, tail_samples_beyond=beyond,
                  raw_wall_s=median("wall"), raw_cpu_s=median("cpu"), raw_setup_s=setup_s,
                  setup_calibration_factor=f, op_calibration_factors=factors,
                  op_walls=[o["wall"] for o in ops], op_cpus=[o["cpu"] for o in ops],
                  op_kernel_samples=[o["kernels"] for o in ops],
                  calibration_s=cal.samples, calibration_cpu_s=cal.cpu_samples,
                  setup_walls=setup_walls, failures=failures,
                  exact_counters=ops[0]["counters"] if ops else {})
    return metrics, attempted, len(failures), detail


# --- traced run ------------------------------------------------------------

LAYER_TIMES = {
    "statespace.build_s": "statespace.build",
    "symmetry.quotient_s": "symmetry.quotient",
    "checker.expand_s": "checker.expand",
    "checker.analyze_s": "checker.analyze",
    "checker.fairness_s": "checker.fairness",
    "markov.of_space_s": "markov.of_space",
    "markov.solve_s": "markov.solve",
    "montecarlo.estimate_s": "montecarlo.estimate",
}


def spans_of(outs):
    return [s for o in outs for s in o["json"]["spans"]]


def layer(sources, name):
    """Spans of one layer from the first source that called it: the op's
    own replay, then the oracle's estimate, then a probe."""
    for outs in sources:
        found = [s for s in spans_of(outs) if s["name"] == name]
        if found:
            return found
    return []


def results_of(outs):
    return [o["json"]["result"] for o in outs]


def first_results(sources, key):
    for outs in sources:
        found = [r[key] for r in results_of(outs) if r.get(key) is not None]
        if found:
            return found
    return [0]


def flight_share(w, pairs):
    """Median over alternating pairs of (flight on) / (--no-flight) wall - 1,
    on the workload's set-up op."""
    argvs = w.setup_argvs()
    ratios = []
    for i in range(pairs):
        walls = {}
        for flight in ((True, False) if i % 2 == 0 else (False, True)):
            walls[flight] = sum(run_ok(a if flight else a + ["--no-flight"])["wall"] for a in argvs)
        ratios.append(walls[True] / walls[False])
    return statistics.median(ratios) - 1.0


def overhead_pairs(w, seconds):
    """Alternating pairs of the op through the CLI and through the traced
    replay: at least one pair, further ones while less than `seconds` has
    passed, at most OVERHEAD_PAIRS. Returns the first traced op, whose
    spans give the layer metrics, and every traced / CLI wall ratio."""
    ratios, first = [], None
    t0 = time.perf_counter()
    while not ratios or (len(ratios) < OVERHEAD_PAIRS and time.perf_counter() - t0 < seconds):
        order = (True, False) if len(ratios) % 2 == 0 else (False, True)
        walls = {}
        for cli in order:
            op = run_op(w, cli=cli)
            walls[cli] = op["wall"]
            if not cli and first is None:
                first = op
        ratios.append(walls[False] / walls[True])
    return first, ratios


def traced(w, oracle_outs, seconds, smoke):
    op, overhead = overhead_pairs(w, seconds)
    # Layers the op does not call are probed on the workload's ring:3 set-up
    # instance, so that every per-layer metric is a measurement.
    called = {s["name"] for s in spans_of(op["procs"])}
    probes = []
    if "symmetry.quotient" not in called:
        probes.append(harness(["quotient"] + w.instance(3)[:4]))
    if "checker.analyze" not in called:
        probes.append(harness(["check"] + w.instance(3)))
    campaign_out = harness(["campaign", w.probe_campaign(), "--checkpoint",
                            os.path.join(WORK, "probe.checkpoint.jsonl")])
    probes.append(campaign_out)
    campaign = campaign_out["json"]["result"]
    if campaign["done"] != 1 or campaign["resume_executed"] != 0 or not campaign["reports_identical"]:
        raise OracleError("probe campaign: %s" % campaign)
    campaign_span = lambda name: next(s for s in spans_of([campaign_out]) if s["name"] == name)["dur_ns"] / 1e9
    nproc = len(os.sched_getaffinity(0))
    expand = {wd: harness(["expand"] + w.instance(w.ring) + ["--width", str(wd)]) for wd in range(1, nproc + 1)}
    expand_s = {wd: sum(s["dur_ns"] for s in spans_of([o]) if s["name"] == "checker.expand") / 1e9
                for wd, o in expand.items()}
    widest = expand[nproc]["json"]

    sources = [op["procs"], oracle_outs, probes]
    metrics = {}
    for metric, name in LAYER_TIMES.items():
        metrics[metric] = (sum(s["dur_ns"] for s in layer(sources, name)) / 1e9, "s")
    words = lambda name: sum(s["minor_words"] for s in layer(sources, name))
    own = results_of(op["procs"])
    transitions = sum(r.get("transitions", 0) for r in own)
    sampled = next(s for s in sources if layer([s], "montecarlo.estimate"))
    steps = sum(r.get("steps", 0) for r in results_of(sampled))
    markov = [r for r in own if "blocks" in r]
    procs = op["procs"]
    covered = sum(s["dur_ns"] for s in spans_of(procs) if not s["name"].startswith("op.")) / 1e9
    metrics.update({
        "statespace.configs": (max(r.get("configs", 0) for r in own), "count"),
        "symmetry.orbits": (max(first_results(sources, "orbits")), "count"),
        "symmetry.minor_words": (words("symmetry.quotient"), "words"),
        "checker.expand_minor_words": (words("checker.expand"), "words"),
        "checker.transitions": (transitions, "count"),
        "checker.words_per_transition": (words("checker.expand") / max(1, transitions), "words"),
        "checker.expand_scaling": (expand_s[1] / expand_s[nproc], "ratio"),
        "markov.of_space_minor_words": (words("markov.of_space"), "words"),
        "markov.solve_sweeps": (sum(r["sweeps"] for r in markov), "count"),
        "markov.solve_blocks": (sum(r["blocks"] for r in markov), "count"),
        "montecarlo.steps": (steps, "count"),
        "montecarlo.steps_per_s": (steps / metrics["montecarlo.estimate_s"][0], "1/s"),
        "montecarlo.minor_words_per_step": (words("montecarlo.estimate") / steps, "words"),
        "campaign.cell_busy_s": (campaign["cell_busy_ns"] / 1e9, "s"),
        "campaign.overhead_s": (campaign_span("campaign.run") - campaign["cell_busy_ns"] / 1e9, "s"),
        "campaign.resume_s": (campaign_span("campaign.resume"), "s"),
        "campaign.retries": (campaign["retries"], "count"),
        "pool.busy_share": (widest["pool_busy_ns"] / (expand_s[nproc] * 1e9 * widest["width"]), "share"),
        "gc.minor_words": (sum(p["json"]["gc_minor_words"] for p in procs), "words"),
        "gc.major_collections": (sum(p["json"]["gc_major_collections"] for p in procs), "count"),
        "obs.flight_share": (flight_share(w, 1 if smoke else 7), "share"),
        "trace.overhead_share": (statistics.median(overhead) - 1.0, "share"),
        "trace.uncovered_share": (1.0 - covered / op["wall"], "share"),
    })
    detail = dict(
        trace_overhead_ratios=overhead, traced_op_wall=op["wall"],
        layer_self_s={n: sum(s["dur_ns"] for s in spans_of(procs) if s["name"] == n) / 1e9
                      for n in sorted({s["name"] for s in spans_of(procs)})},
        expand_s_by_width=expand_s, probes=[p["json"]["cmd"] for p in probes],
    )
    return metrics, 2 * len(overhead), detail


def counter_drift(workload, seed, metrics, smoke):
    """Counters recorded by perfbench/counters.py as exact that moved since.
    Reported, not judged: a change may move them on purpose."""
    if smoke or not os.path.exists(COUNTERS_FILE):
        return {}
    with open(COUNTERS_FILE) as f:
        rec = json.load(f).get(workload, {})
    expected = dict(rec.get("exact", {}), **(rec.get("exact_for_seed", {}) if rec.get("seed") == seed else {}))
    return {k: dict(recorded=v, now=metrics[k][0]) for k, v in expected.items()
            if k in metrics and metrics[k][0] != v}


# --- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at ring <= 6, in a few seconds")
    a = ap.parse_args()

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    build()
    w = Workload(a.workload, WORKLOADS[a.workload], a.seed, a.smoke)
    detail = dict(workload=a.workload, seed=a.seed, smoke=a.smoke,
                  meta=dict(cores=os.cpu_count(), nproc=len(os.sched_getaffinity(0)), client="closed loop, 1"))
    try:
        detail["oracle"], oracle_outs = w.oracle()
        if a.trace:
            metrics, attempted, d = traced(w, oracle_outs, a.seconds, a.smoke)
            failed = 0
            detail["counter_drift"] = counter_drift(a.workload, a.seed, metrics, a.smoke)
        else:
            metrics, attempted, failed, d = measure(w, a.seconds, 1 if a.smoke else SETUP_ROUND)
        detail.update(d)
    except OracleError as e:
        detail["error"] = str(e)
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
