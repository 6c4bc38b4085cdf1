#!/usr/bin/env python3
"""The rvacheck benchmark.

    python3 rvabench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rvabench/run.py --smoke

Run from the root of a checkout; the program is imported from its
``src``.  Set-up generates the workload's inputs from the seed and
writes them to ``.rvabench_work/``; it runs nine times and ``setup_s``
is the median.  A *pass* runs the workload's job list once: CLI jobs
(``python3 -m rvacheck.cli check FILE --mode M --json`` or ``oracle FILE
--json``), each a guarded child (address-space cap, timeout, process
group killed on expiry, peak RSS from ``os.wait4``), and for ``corpus`` a
library sweep in one more guarded child.  With ``--trace 0`` passes repeat
until ``--seconds`` have elapsed (at least once per corpus chunk); job
and pass times are trimmed means over passes, scaled to the speed of a
reference job run between the jobs (see :func:`end_to_end`).  With
``--trace 1`` one untraced and one traced pass run, followed by the
doubling report, and the per-layer metrics are printed.

Every output is checked: verdicts against references that follow from
the inputs' construction (or from ``saturation_oracle`` on the corpus),
witnesses by acceptance and exact value.  A verdict that differs from a
construction reference sets ``correct`` to false; on the corpus the
reference is the oracle, itself under test, so a disagreement there only
counts as failed.  Every failed operation, a differing verdict, a
missing or unverifiable witness, a traceback, an unexpected exit code,
the timeout or the memory cap, counts in ``failed``, once per distinct
operation however often passes repeat it.  The last stdout line is the
JSON result; ``--smoke`` runs all of this at small sizes and also
confirms the generators against ``saturation_oracle``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

from paths import BENCH, ROOT, WORK, child_env, use_checkout_source

MODES = ("parallel", "sequential", "dim1", "complement")
SETUP_REPEATS = 9
# the reference job's time (reference.py, trimmed mean over a run) on the
# 2-vCPU shared machine the benchmark was tuned on; times are scaled to it
REF_NOMINAL_S = 0.43
CORPUS_CHUNK = 400  # automata swept per pass
CORPUS_CHUNKS = 4   # distinct chunks per run; pass i sweeps chunk i % 4
SMOKE_CORPUS_CHUNK = 12

# (family, mode, small size, doubled size) for the doubling report
SCALING = (
    ("residue", "parallel", 40017, 80001),
    ("residue", "dim1", 4007, 8057),
    ("interval", "parallel", 80000, 160000),
)
SMOKE_SCALING = (
    ("residue", "parallel", 67, 131),
    ("residue", "dim1", 67, 131),
    ("interval", "parallel", 100, 200),
)
# layers each doubled check calls, whose own ratios are reported too
SCALED_LAYERS = {
    "parallel": ("automaton.sccs", "minimize.refine_partition", "minimize.joint_equivalence"),
    "dim1": ("automaton.sccs", "minimize.refine_partition"),
}


@dataclass
class Job:
    name: str
    mode: str       # a check mode, or "oracle" for the word-level search
    aut: object
    expect: object  # reference answer, or None where only witnesses are checked
    by_construction: bool = True  # False: expect comes from saturation_oracle
    path: str = ""


@dataclass
class Setup:
    jobs: list
    chunks: list = field(default_factory=list)  # corpus chunks, [(label, automaton)] each
    chunk_paths: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# workloads: each builds its inputs from a seeded rng


def reducible(rng, small):
    """Interval automata: large input, 38-state minimal form."""
    from rvacheck.oracle import gen_interval_rva

    from inputs import as_sequential, interval_mutant

    aut = gen_interval_rva(rng.randrange(200, 220) if small else rng.randrange(24750, 25250))
    mutant = interval_mutant(gen_interval_rva(rng.randrange(50, 60) if small
                                              else rng.randrange(1000, 1100)))
    return Setup([
        Job("interval-parallel", "parallel", aut, True),
        Job("interval-sequential", "sequential", as_sequential(aut), True),
        Job("interval-dim1", "dim1", aut, True),
        Job("interval-complement", "complement", aut, False),
        Job("interval-mutant-oracle", "oracle", mutant, False),
    ])


def incompressible(rng, small):
    """Full-orbit residue automata: minimization keeps every state."""
    from rvacheck.oracle import gen_residue_rva

    from inputs import (pick_full_orbit, pick_product_pair, product_rva, residue_mutant,
                        sequential_product_rva)

    def residue(low, high, small_low, small_high):
        return gen_residue_rva(pick_full_orbit(rng, *((small_low, small_high) if small
                                                      else (low, high))))

    big = residue(6900, 7000, 100, 140)
    orbit = residue(1450, 1460, 60, 90)
    left, right = (gen_residue_rva(n) for n in pick_product_pair(rng, 255 if small else 4550))
    compl = residue(270, 276, 30, 45)
    small_mutant = residue_mutant(residue(380, 394, 30, 45))
    return Setup([
        Job("residue-parallel", "parallel", big, True),
        Job("residue-mutant-parallel", "parallel", residue_mutant(big), False),
        Job("residue-dim1", "dim1", orbit, True),
        Job("residue-mutant-dim1", "dim1", residue_mutant(orbit), False),
        Job("product-parallel", "parallel", product_rva(left, right), True),
        Job("product-sequential", "sequential", sequential_product_rva(left, right), True),
        Job("residue-complement", "complement", compl, False),
        Job("residue-mutant-oracle", "oracle", small_mutant, False),
    ])


def corpus(rng, small):
    """Thousands of tiny library calls, plus one small CLI job per mode."""
    from rvacheck.oracle import parallelize_automaton, saturation_oracle

    from inputs import corpus_stream

    stream = corpus_stream(rng.randrange(1 << 30))
    size = SMOKE_CORPUS_CHUNK if small else CORPUS_CHUNK
    chunks = [list(itertools.islice(stream, size)) for _ in range(CORPUS_CHUNKS)]
    shaped = next(a for label, a in stream
                  if label.endswith("sequential") and a.alphabet.dim == 1)
    par = parallelize_automaton(shaped)
    seq_ref = saturation_oracle(shaped).answer
    par_ref = saturation_oracle(par).answer
    return Setup([
        Job("shaped-sequential", "sequential", shaped, seq_ref, by_construction=False),
        Job("shaped-parallel", "parallel", par, par_ref, by_construction=False),
        Job("shaped-dim1", "dim1", par, par_ref, by_construction=False),
        Job("shaped-complement", "complement", par, None),
    ], chunks=chunks)


WORKLOADS = {"reducible": reducible, "incompressible": incompressible, "corpus": corpus}


def build_inputs(workload, seed, small):
    """Generate and write every input of one run."""
    from rvacheck.aut_io import serialize_automaton

    setup = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), small)
    folder = WORK / workload
    folder.mkdir(parents=True, exist_ok=True)
    for job in setup.jobs:
        job.path = str(folder / f"{job.name}.rva")
        with open(job.path, "w", encoding="utf-8") as fh:
            fh.write(serialize_automaton(job.aut))
    for i, chunk in enumerate(setup.chunks):
        setup.chunk_paths.append(str(folder / f"corpus-{i}.json"))
        with open(setup.chunk_paths[-1], "w", encoding="utf-8") as fh:
            json.dump([{"label": label, "text": serialize_automaton(a)} for label, a in chunk],
                      fh)
    return setup


# ---------------------------------------------------------------------------
# one pass


@dataclass
class Tally:
    """Outcomes per distinct operation.  Later passes repeat the same
    operations; each counts once in ``attempted`` and once in ``failed``
    if any of its runs failed, so a seed gives the same counts however
    many passes fit into ``--seconds``."""
    ops: dict = field(default_factory=dict)       # operation group -> operations in it
    failures: dict = field(default_factory=dict)  # operation -> first reason
    wrong: int = 0
    peak_rss_mb: float = 0.0

    @property
    def attempted(self):
        return sum(self.ops.values())

    @property
    def failed(self):
        return len(self.failures)

    def attempt(self, group, ops=1):
        self.ops[group] = ops

    def fail(self, what, reason, wrong=False):
        if what not in self.failures:
            self.failures[what] = reason
            self.wrong += wrong


def cli_argv(job, traced, stats_path):
    args = ["oracle", job.path, "--json"] if job.mode == "oracle" else [
        "check", job.path, "--mode", job.mode, "--json"]
    if traced:
        return [sys.executable, str(BENCH / "tracing.py"), stats_path, repr(time.time()),
                "--", *args]
    return [sys.executable, "-m", "rvacheck.cli", *args]


def judge_cli(job, result, tally):
    from inputs import check_cli_witness

    tally.attempt(job.name)
    tally.peak_rss_mb = max(tally.peak_rss_mb, result.peak_rss_mb)
    problem = result.problem()
    if problem is None:
        try:
            payload = json.loads(result.stdout)
            answer = payload["answer"]
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc}"
    if problem is None:
        if result.returncode != (0 if answer else 1):
            problem = f"exit code {result.returncode} for answer {answer}"
        elif job.expect is not None and answer != job.expect:
            tally.fail(job.name, f"verdict {answer}, reference {job.expect}",
                       wrong=job.by_construction)
            return
        elif not answer:
            problem = check_cli_witness(job.aut, payload.get("witness"), job.mode)
    if problem is not None:
        tally.fail(job.name, problem)


def judge_sweep(index, chunk, result, tally):
    from inputs import modes_for

    tally.peak_rss_mb = max(tally.peak_rss_mb, result.peak_rss_mb)
    ops = [f"chunk {index}: {label} {mode}" for label, a in chunk for mode in modes_for(a)]
    tally.attempt(f"chunk {index}", len(ops))
    problem = result.problem(allowed_codes=(0,))
    if problem is None:
        try:
            report = json.loads(result.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            problem = f"unreadable sweep output: {exc}"
    if problem is not None:
        for op in ops:
            tally.fail(op, problem)
        return []
    for label, mode, reason in report["failures"]:
        tally.fail(f"chunk {index}: {label} {mode}", reason)
    return report["latency_ms"]


def _collect(stats, path):
    """Merge a traced child's aggregates; a child that died left none."""
    from tracing import merge

    try:
        with open(path, encoding="utf-8") as fh:
            merge(stats, json.load(fh))
    except (OSError, ValueError):
        pass  # the child's failure is judged from its exit status
    finally:
        path.unlink(missing_ok=True)


def run_pass(setup, tally, index, traced=False):
    """Run the job list once, sweeping corpus chunk ``index`` (cyclically);
    returns the pass record and the trace stats."""
    from guard import run_child

    env = child_env()
    out, err, stats_path = (WORK / name for name in ("out.txt", "err.txt", "stats.json"))
    stats = {}
    jobs = []
    ref_s = []
    # untraced passes gauge the machine before the first and the middle child
    gauge_at = set() if traced else {0, (len(setup.jobs) + bool(setup.chunks)) // 2}
    start = time.perf_counter()
    for i, job in enumerate(setup.jobs):
        if i in gauge_at:
            ref_s.append(run_reference(env, out, err))
        result = run_child(cli_argv(job, traced, str(stats_path)), env, out, err)
        jobs.append((job, result))
        if traced:
            _collect(stats, stats_path)
    sweep = None
    if setup.chunks:
        if len(setup.jobs) in gauge_at:
            ref_s.append(run_reference(env, out, err))
        index %= len(setup.chunks)
        argv = [sys.executable, str(BENCH / "sweep.py"), setup.chunk_paths[index]]
        sweep = run_child(argv + ([str(stats_path)] if traced else []), env, out, err)
        if traced:
            _collect(stats, stats_path)
    wall = time.perf_counter() - start - sum(ref_s)

    for job, result in jobs:
        judge_cli(job, result, tally)
    latencies = judge_sweep(index, setup.chunks[index], sweep, tally) if sweep is not None else []
    record = {"wall": wall, "job_s": [r.wall_s for _, r in jobs], "sweep_ms": latencies,
              "ref_s": ref_s}
    return record, stats


def run_reference(env, out, err):
    """Wall time of one run of the reference job (``reference.py``)."""
    from guard import run_child

    from reference import CHECKSUM

    result = run_child([sys.executable, str(BENCH / "reference.py")], env, out, err)
    if result.problem(allowed_codes=(0,)) or result.stdout.strip() != CHECKSUM:
        raise RuntimeError(f"reference job failed: {result.stderr.strip()[-300:]}")
    return result.wall_s


# ---------------------------------------------------------------------------
# metrics


def trimmed_mean(values):
    """Mean without the fastest and slowest tenth (at least one each from
    five values on).  On a shared machine one job's time switches between
    a fast and a slow level from one repetition to the next; the median of
    a dozen such times jumps between the two levels, while the mean moves
    with the share of slow repetitions only, and trimming keeps a single
    stalled repetition out."""
    values = sorted(values)
    cut = max(1, len(values) // 10) if len(values) >= 5 else 0
    return statistics.mean(values[cut:len(values) - cut])


def end_to_end(setup, setup_times, passes, tally):
    """Each CLI job runs once per pass; its time is the trimmed mean over
    passes, and so is the pass wall time.  Latency percentiles are taken
    over every corpus automaton swept on ``corpus``, and over the CLI jobs'
    times elsewhere or when every sweep failed.

    Every time is then scaled to the reference speed: multiplied by
    ``REF_NOMINAL_S`` over the trimmed mean of the reference job's times in
    this run.  A shared machine's speed drifts by a third over minutes,
    and a 36 s run cannot average that out; the reference job, run between
    the jobs of every pass, drifts with it.  The unscaled values are
    printed on a ``#`` line."""
    med = statistics.median
    ref_s = trimmed_mean(t for p in passes for t in p["ref_s"])
    job_s = [trimmed_mean(col) for col in zip(*(p["job_s"] for p in passes))]
    samples = [ms for p in passes for ms in p["sweep_ms"]] or [1000.0 * s for s in job_s]
    raw = {
        "setup_s": (med(setup_times), "s"),
        "wall_s": (trimmed_mean(p["wall"] for p in passes), "s"),
        **{f"cli_{m}_s": (sum(s for job, s in zip(setup.jobs, job_s) if job.mode == m), "s")
           for m in MODES},
        "automata_per_s": (1000.0 * len(samples) / sum(samples), "1/s"),
        "latency_ms.p50": (med(samples), "ms"),
        "latency_ms.p99": (statistics.quantiles(samples, n=100, method="inclusive")[98], "ms"),
    }
    scale = REF_NOMINAL_S / ref_s
    metrics = {name: (value / scale if unit == "1/s" else value * scale, unit)
               for name, (value, unit) in raw.items()}
    metrics["peak_rss_mb"] = (tally.peak_rss_mb, "MB")
    metrics["ok_ratio"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio")
    print(f"# passes={len(passes)} latency_samples={len(samples)} "
          f"attempted={tally.attempted} failed={tally.failed}")
    print(f"# reference job {ref_s:.4f} s (trimmed mean of {sum(len(p['ref_s']) for p in passes)}),"
          f" scale {scale:.4f}; unscaled: "
          + json.dumps({name: value for name, (value, _) in raw.items()}))
    return metrics


LAYER_METRICS = (
    ("aut_io.parse_automaton", ("s",)),
    ("automaton.trim_accessible", ("s", "states_in", "states_out")),
    ("automaton.sccs", ("s", "calls", "states")),
    ("automaton.is_weak", ("s",)),
    ("minimize.normalized_colors", ("s",)),
    ("minimize.refine_partition", ("s", "calls", "blocks")),
    ("minimize.minimize_weak", ("s", "states_in", "states_out")),
    ("minimize.joint_equivalence", ("s", "union_states")),
    ("shape.check_shape", ("s",)),
    ("shape.compute_shape_sets", ("visits",)),
    ("shape.empty_states", ("s",)),
    ("fixing.fix_parallel", ("s", "calls")),
    ("fixing.fix_sequential", ("s", "states_out")),
    ("check.check_rva_parallel", ("self_s", "errors")),
    ("check.check_rva_sequential", ("self_s", "errors")),
    ("check.check_rva_dim1", ("self_s", "errors")),
    ("check.check_rva_complement_parallel", ("self_s", "errors")),
    ("oracle.saturation_oracle", ("s", "calls", "errors")),
    ("oracle.shape_violation_word", ("s",)),
    ("oracle.pad_violation", ("s",)),
    ("oracle.dual_violation", ("s",)),
    ("oracle.expand_witness", ("s", "calls", "errors")),
    ("oracle.distinguishing_lasso", ("s", "calls")),
    ("oracle.CounterexamplePair.verify", ("s", "errors")),
    ("words.value_real", ("s", "calls")),
)


def per_layer(stats, overhead, scaling):
    metrics = {}
    for name, keys in LAYER_METRICS:
        entry = stats.get(name, {})
        for key in keys:
            unit = "s" if key in ("s", "self_s") else "count"
            metrics[f"{name}.{key}"] = (entry.get(key, 0), unit)
    parse = stats.get("aut_io.parse_automaton", {})
    metrics["aut_io.parse_automaton.states_per_s"] = (
        parse.get("states", 0) / parse["s"] if parse.get("s") else 0.0, "states/s")
    startup = stats.get("cli.startup", {})
    metrics["cli.startup.s"] = (
        startup.get("s", 0.0) / startup["calls"] if startup.get("calls") else 0.0, "s")
    expand = stats.get("oracle.expand_witness", {})
    metrics["oracle.expand_witness.verified_ratio"] = (
        expand.get("verified", 0) / expand["produced"] if expand.get("produced") else 0.0,
        "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics.update(scaling)
    return metrics


def doubling_report(sizes, tally):
    """Time each check at n and 2n in process, traced; return the ratios."""
    from rvacheck import check, oracle

    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    checks = {"parallel": "check_rva_parallel", "dim1": "check_rva_dim1"}
    gens = {"residue": oracle.gen_residue_rva, "interval": oracle.gen_interval_rva}
    out = {}
    for family, mode, n_small, n_big in sizes:
        fn_name = checks[mode]
        measured = []
        for n in (n_small, n_big):
            aut = gens[family](n)
            tracer.stats.clear()
            start = time.perf_counter()
            tally.attempt(f"{family}-{n} {mode}")
            if not getattr(check, fn_name)(aut).answer:
                tally.fail(f"{family}-{n} {mode}", "verdict False, reference True", wrong=True)
            layers = {name: tracer.stats.get(name, {}).get("s", 0.0)
                      for name in SCALED_LAYERS[mode]}
            layers["check.self_s"] = tracer.stats[f"check.{fn_name}"]["self_s"]
            measured.append((time.perf_counter() - start, layers))
        (t_small, l_small), (t_big, l_big) = measured
        prefix = f"scaling.{family}.{mode}"
        out[f"{prefix}.ratio"] = (t_big / t_small, "ratio")
        for name in l_small:
            ratio = l_big[name] / l_small[name] if l_small[name] > 0 else 0.0
            out[f"{prefix}.{name}.ratio"] = (ratio, "ratio")
    return out


# ---------------------------------------------------------------------------
# a run


def run(workload, seed, seconds, trace, small=False):
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):  # the traced run reports no setup_s
        gc.collect()  # every repetition starts from the same heap
        start = time.perf_counter()
        setup = build_inputs(workload, seed, small)
        setup_times.append(time.perf_counter() - start)
    tally = Tally()
    if trace:
        plain, _ = run_pass(setup, tally, 0)
        traced, stats = run_pass(setup, tally, 0, traced=True)
        scaling = doubling_report(SMOKE_SCALING if small else SCALING, tally)
        metrics = per_layer(stats, traced["wall"] / plain["wall"], scaling)
    else:
        passes = []
        start = time.perf_counter()
        # every chunk is swept at least once, so every run attempts the same operations
        while len(passes) < max(1, len(setup.chunks)) or time.perf_counter() - start < seconds:
            passes.append(run_pass(setup, tally, len(passes))[0])
        metrics = end_to_end(setup, setup_times, passes, tally)
    for what, reason in itertools.islice(tally.failures.items(), 20):
        print(f"# failed: {what}: {reason}", file=sys.stderr)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke():
    """Every workload at small sizes, plus the generators' known answers."""
    from rvacheck.oracle import gen_interval_rva, gen_residue_rva, saturation_oracle

    import inputs

    problems = []

    def expect(what, got, want):
        print(f"# smoke: {what}: {'ok' if got == want else 'FAILED'}")
        if got != want:
            problems.append(f"{what}: got {got}, want {want}")

    for n, want in ((4007, True), (8057, True), (40017, True), (80001, True), (10001, False)):
        expect(f"full orbit of residue-{n}", inputs.full_orbit(n), want)
    for n in (31, 67):
        res = gen_residue_rva(n)
        expect(f"oracle on residue-{n}", saturation_oracle(res).answer, True)
        expect(f"oracle on residue-{n} mutant",
               saturation_oracle(inputs.residue_mutant(res)).answer, False)
    for left, right in ((7, 9), (13, 11)):
        a, b = gen_residue_rva(left), gen_residue_rva(right)
        expect(f"oracle on product {left}x{right}",
               saturation_oracle(inputs.product_rva(a, b)).answer, True)
        expect(f"oracle on sequential product {left}x{right}",
               saturation_oracle(inputs.sequential_product_rva(a, b)).answer, True)
    interval = gen_interval_rva(60)
    expect("oracle on interval-60", saturation_oracle(interval).answer, True)
    expect("oracle on sequential interval-60",
           saturation_oracle(inputs.as_sequential(interval)).answer, True)
    expect("oracle on interval-60 mutant",
           saturation_oracle(inputs.interval_mutant(interval)).answer, False)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, 1, 1, trace, small=True)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in metrics.items()}
            expect(f"{workload} trace={trace} metric names and units", got, want)
            expect(f"{workload} trace={trace} correct", result["correct"], True)
    for line in problems:
        print(f"smoke: FAILED {line}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at small sizes and check the output")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    use_checkout_source()
    try:
        if args.smoke:
            return smoke()
        result = run(args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
