#!/usr/bin/env python3
"""Benchmark for the atcadet CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_stock --seed 1 --seconds 40 --trace 0

The runner imports ``atcadet.cli`` from the checkout's ``src`` and makes
every CLI call of a workload through its entry point, ``main``, in this
one process, one call at a time. The start-up a fresh ``atcadet``
process pays before a call is measured on its own, in child processes:
set-up includes it, and the traced run reports it per layer. A run
prepares the workload's inputs, makes its measured calls once, then
repeats the read-side calls until ``--seconds`` have passed. Its
times are scaled to a reference host speed (``reference.py``). With
``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` it makes the same untraced pass for the stage times,
replays the calls with spans, and prints the per-layer metrics. The
last line of standard output is the JSON result. Records of each run
(environment, every call, spans) go to ``perfbench/_out``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata

import reference
from procs import child_env, cli_argv, parse_importtime, run_child
from workloads import READ_STAGES, STAGES, WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 3
MIN_READ_PASSES = 5
STEP_REPEATS = 7
STARTUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Counts the program makes; each must repeat exactly between runs of one seed.
COUNT_METRICS = ("cli.process_starts", "corpus.clips", "dsp.frames_per_clip",
                 "text.tokens_per_caption", "autodiff.tape_nodes", "training.epochs",
                 "training.steps_per_epoch", "ensemble.tree_nodes", "ensemble.examples",
                 "ensemble.features")
FAKE_KINDS = ("lowpass_smear", "spectral_quantize", "hum_phase", "blackbox")


class CallFailed(Exception):
    pass


class OutOfTime(BaseException):
    """The run passed its limit; a BaseException, so that no handler in the
    package maps it to an exit code."""

    def __init__(self):
        super().__init__(f"run passed its {RUN_LIMIT_S:.0f} s limit")


@dataclass
class CallResult:
    start: float
    end: float
    exit_code: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Run:
    """Calls made so far, their results, and the problems found."""

    def __init__(self):
        self.env = child_env(ROOT)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.clock = reference.Clock(self.deadline, OutOfTime)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = []

    def _record(self, argv, phase, stage, res, max_rss_kb=None):
        self.attempted += 1
        self.records.append({"phase": phase, "stage": stage, "argv": list(argv),
                             "start": res.start, "end": res.end, "exit": res.exit_code,
                             "max_rss_kb": max_rss_kb})
        if res.exit_code != 0:
            self.failed += 1
            raise CallFailed(f"{' '.join(argv)} exited {res.exit_code}: "
                             f"{res.stderr.strip()[-400:]}")

    def child(self, argv, cwd, phase):
        """A fresh process, for start-up only; the workload's calls run in-process.

        The clock does not sample while the child runs, so that the
        child's time is not cut by samples taken in this process.
        """
        sampling = self.clock.sampling
        self.clock.pause()
        t0 = time.perf_counter()
        try:
            res = run_child(argv, cwd, self.env, self.deadline - time.monotonic())
        finally:
            t1 = time.perf_counter()
            if sampling:
                self.clock.resume()
        out = CallResult(t0, t1, res.exit_code, res.stdout, res.stderr)
        self._record(argv[1:], phase, phase, out, res.max_rss_kb)
        return out

    def calls(self, calls, cwd, phase, main):
        """Make each call through the CLI entry point in this process."""
        done = []
        here = os.getcwd()
        try:
            for call in calls:
                os.chdir(cwd)
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(list(call.args))
                res = CallResult(t0, time.perf_counter(), code, out.getvalue(), err.getvalue())
                self._record(call.args, phase, call.stage, res)
                done.append((call, cwd, res))
        finally:
            os.chdir(here)
        return done


def _digest(workload) -> str:
    blob = json.dumps([workload.inputs, [c.args for c in workload.prepare],
                       [c.args for c in workload.unit], [c.args for c in workload.traced_extra]],
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _code_digest() -> str:
    """sha256 of every file of the package under test, by relative path.

    Stored hashes and counts are compared only between runs of the same
    code: a change may move rounding or counts on purpose.
    """
    top = os.path.join(ROOT, "src", "atcadet")
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, top).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:12]


def _remembered(kind, key, value, problems, label):
    """Store ``value`` on first sight; on later runs under ``key``, report any difference."""
    path = os.path.join(OUT_DIR, kind, f"{key}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        for name in sorted(earlier.keys() | value.keys()):
            if earlier.get(name) != value.get(name):
                before, now = str(earlier.get(name))[:80], str(value.get(name))[:80]
                problems.append(f"{label} {name} differs from an earlier run of this seed and "
                                f"code: {before} vs {now}")
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, sort_keys=True, indent=1)


def set_up(run, workload, work_dir, main):
    """Start-up of a fresh CLI process, then the workload's input preparation.

    Returns the ``SETUP_SAMPLES`` fresh ``--version`` starts, the
    (start, end) of the preparation calls, and those calls.
    """
    starts = [run.child(cli_argv(["--version"]), work_dir, "setup")
              for _ in range(SETUP_SAMPLES)]
    write_inputs(workload, work_dir)
    t0 = time.perf_counter()
    prepared = run.calls(workload.prepare, work_dir, "prepare", main)
    return starts, (t0, time.perf_counter()), prepared


def measure(run, workload, work_dir, seconds, trace, main):
    """Make the unit's calls once, then repeat its read side until ``seconds`` pass.

    Returns the unit's (start, end), its calls, the (start, end) of each
    read-side pass, and this process's peak RSS in MB. A traced run makes
    the workload's ``traced_extra`` calls instead of the read-side passes.
    """
    import checks

    unit_dir = os.path.join(work_dir, "u0")
    os.makedirs(unit_dir)
    t0 = time.perf_counter()
    done = run.calls(workload.unit, unit_dir, "unit", main)
    unit = (t0, time.perf_counter())
    passes = []
    if trace:
        done += run.calls(workload.traced_extra, unit_dir, "traced_extra", main)
    else:
        again = [c.again() for c in workload.unit if c.stage in READ_STAGES]
        outputs = [os.path.join(unit_dir, c.opt("--out")) for c in again if c.opt("--out")]
        first = {p: checks.file_digest(p) for p in outputs}
        while len(passes) < MIN_READ_PASSES or time.perf_counter() - t0 < seconds:
            r0 = time.perf_counter()
            run.calls(again, unit_dir, "read", main)
            passes.append((r0, time.perf_counter()))
        run.problems += checks.diff_hashes("repeated read-side calls", first,
                                           {p: checks.file_digest(p) for p in outputs})
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return unit, done, passes, peak_mb


def check_outputs(run, workload, work_dir, calls):
    """Load every artifact; return the counts found and the artifact hashes."""
    import checks

    unit_dir = os.path.join(work_dir, "u0")
    facts = {}
    checks.check_calls(workload, calls, facts, run.problems)
    hashes = {"prepare": checks.hash_tree(work_dir, {unit_dir}),
              "unit": checks.hash_tree(unit_dir)}
    return facts, hashes


def stage_totals(clock, calls) -> dict:
    """Raw seconds per stage, reference sampling left out."""
    return {s: sum(clock.span(r.start, r.end)[0] for c, _, r in calls if c.stage == s)
            for s in STAGES}


def end_to_end(clock, starts, prepare, unit, passes, peak_mb):
    """Set-up, the unit once, the mean read-side pass, and memory.

    Times are scaled to the reference host speed (``reference.py``);
    the raw seconds are returned as well, for the run's record.
    ``read_s`` is the mean, not the median, of the passes: a shared host
    slows for seconds at a time, so a run's passes fall into a fast and a
    slow level, and their median jumps between the two from run to run.
    Single stages are per-layer metrics (``cli.stage_s.*``) of the traced
    run instead: the stock ensemble fit takes about 4.5 s or about 9 s
    depending on whether the seed's dev scores separate perfectly.
    """
    def both(intervals):
        return [clock.span(a, b) for a, b in intervals]

    start_s = both((r.start, r.end) for r in starts)
    prepare_s = clock.span(*prepare)
    read = both(passes)
    metrics, raw = {}, {}
    for i, out in enumerate((raw, metrics)):
        out["setup_s"] = statistics.median(s[i] for s in start_s) + prepare_s[i]
        out["wall_s"] = clock.span(*unit)[i]
        out["read_s"] = sum(r[i] for r in read) / len(read)
    metrics["peak_rss_mb"] = peak_mb
    return metrics, raw


def traced(run, workload, work_dir, untraced, startup, imports, facts, hashes):
    """Replay the calls with spans; return per-layer metrics and spans."""
    import atcadet.cli
    import checks
    import tracing

    replay_dir = os.path.join(work_dir, "replay")
    os.makedirs(os.path.join(replay_dir, "u0"))
    write_inputs(workload, replay_dir)
    calls = ([(c, replay_dir) for c in workload.prepare]
             + [(c, os.path.join(replay_dir, "u0"))
                for c in workload.unit + workload.traced_extra])
    tracer = tracing.Tracer()
    with tracer.installed():
        codes = tracing.replay(tracer, calls, atcadet.cli.main)
    run.attempted += len(codes)
    run.failed += sum(1 for code in codes if code != 0)
    if len(codes) != len(calls) or any(codes):
        raise CallFailed(f"in-process replay stopped with exit codes {codes}")
    run.problems += checks.diff_hashes(
        "traced vs untraced (set-up)", hashes["prepare"],
        checks.hash_tree(replay_dir, {os.path.join(replay_dir, "u0")}))
    run.problems += checks.diff_hashes("traced vs untraced (unit)", hashes["unit"],
                                       checks.hash_tree(os.path.join(replay_dir, "u0")))

    unit_dir = os.path.join(work_dir, "u0")
    train = next(c for c in workload.unit if c.stage == "train")
    step = tracing.step_metrics(
        *(os.path.join(unit_dir, train.opt(f)) for f in
          ("--corpus", "--features", "--embeddings", "--out-ckpt")),
        STEP_REPEATS, run.problems)

    def med(name, parent=None, scale=1.0):
        samples = tracer.durations(name, parent)
        if not samples:
            run.problems.append(f"trace has no {name} span")
            return None
        return statistics.median(samples) * scale

    n_train = len(tracer.durations("training.train"))
    m = {
        "cli.import_s": imports["atcadet"],
        "cli.import_scipy_s": imports["scipy"],
        "cli.import_numpy_s": imports["numpy"],
        "cli.import_click_s": imports["click"],
        "cli.startup_s": startup,
        "cli.process_starts": len(workload.unit),
        "host.reference_ms": run.clock.median_sample_s() * 1e3,
        "corpus.synth_real_ms": med("corpus.synth_real", scale=1e3),
        "corpus.build_corpus_s": med("corpus.build_corpus"),
        "dsp.load_wav_ms": med("dsp.load_wav", scale=1e3),
        "dsp.stft_logmel_ms": med("dsp.stft_logmel", scale=1e3),
        "dsp.write_features_ms": med("dsp.write_features", scale=1e3),
        "dsp.load_external_features_ms": med("dsp.load_external_features", scale=1e3),
        "text.toy_embed_ms": med("text.toy_embed", scale=1e3),
        "text.write_embeddings_s": med("text.write_embeddings"),
        "text.load_embeddings_s": med("text.load_embeddings"),
        "model.load_checkpoint_ms": med("model.load_checkpoint", scale=1e3),
        "training.train_s": med("training.train"),
        "training.steps_per_epoch": len(tracer.durations("autodiff.backward", "training.train"))
        / max(n_train * facts.get("training.epochs", 1), 1),
        "training.dev_score_ms": med("training.score_protocol", "training.train", 1e3),
        "metrics.compute_eer_ms": med("metrics.compute_eer", scale=1e3),
        "metrics.read_scores_ms": med("metrics.read_scores", scale=1e3),
        "metrics.write_scores_ms": med("metrics.write_scores", scale=1e3),
        "ensemble.build_meta_examples_ms": med("ensemble.build_meta_examples", scale=1e3),
        "ensemble.fit_stacked_s": med("ensemble.fit_stacked"),
        "ensemble.fit_gbm_s": med("ensemble.fit_gbm"),
        "ensemble.fit_forest_s": med("ensemble.fit_forest"),
        "ensemble.fit_ridge_ms": med("ensemble.fit_ridge", scale=1e3),
        "ensemble.predict_stacked_ms": med("ensemble.predict_stacked", scale=1e3),
        "ensemble.save_ms": med("ensemble.save_ensemble", scale=1e3),
        "ensemble.load_ms": med("ensemble.load_ensemble", scale=1e3),
    }
    for kind in FAKE_KINDS:
        m[f"corpus.apply_fake_ms.{kind}"] = med(f"corpus.apply_fake.{kind}", scale=1e3)
    m.update(step)
    m.update(facts)
    if m["training.train_s"] is not None:
        m["training.epoch_s"] = m["training.train_s"] / facts["training.epochs"]
    for stage, wall in stage_totals(run.clock, untraced).items():
        m[f"cli.stage_s.{stage}"] = wall
        m[f"trace.coverage.{stage}"] = tracing.coverage(tracer, stage, wall)
    return {k: v for k, v in m.items() if v is not None}, tracer.to_json()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _declared(trace: bool):
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "atcadet", "cli.py")):
        print(f"no atcadet source under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workload = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    key = f"{workload.name}-s{args.seed}-{_digest(workload)}-{_code_digest()}"
    work_dir = os.path.join(HERE, "_work", f"{key}-{os.getpid()}")
    os.makedirs(work_dir)
    run = Run()
    metrics, raw, spans = {}, {}, None
    try:
        run.clock.start()
        import atcadet.cli

        main_fn = atcadet.cli.main
        starts, prepare, prepared = set_up(run, workload, work_dir, main_fn)
        unit, done, passes, peak_mb = measure(run, workload, work_dir, args.seconds, trace,
                                              main_fn)
        run.clock.pause()
        facts, hashes = check_outputs(run, workload, work_dir, prepared + done)
        # a traced run also writes the traced_extra calls' artifacts
        _remembered("hashes", f"{key}-trace{args.trace}", hashes, run.problems,
                    "artifact hash")
        if trace:
            res = run.child([sys.executable, "-X", "importtime", "-c", "import atcadet.cli"],
                            work_dir, "importtime")
            imports = parse_importtime(res.stderr)
            startup = statistics.median(
                run.child(cli_argv(["--version"]), work_dir, "startup").wall_s
                for _ in range(STARTUP_SAMPLES))
            metrics, spans = traced(run, workload, work_dir, prepared + done, startup,
                                    imports, facts, hashes)
            _remembered("counts", key, {k: metrics[k] for k in COUNT_METRICS}, run.problems,
                        "count")
        else:
            metrics, raw = end_to_end(run.clock, starts, prepare, unit, passes, peak_mb)
    except (CallFailed, OutOfTime) as exc:
        run.problems.append(str(exc))
    except Exception as exc:  # noqa: BLE001 - report any breakage as a failed run
        traceback.print_exc()
        run.problems.append(f"benchmark stopped: {type(exc).__name__}: {exc}")
    finally:
        run.clock.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = _declared(trace)
    if metrics and set(metrics) != set(declared):
        run.problems.append(f"metrics differ from BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ set(declared))}")
    env = environment()
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": trace, "env": env,
              "calls": run.records, "reference_samples": run.clock.samples,
              "problems": run.problems, "metrics": metrics, "raw_seconds": raw}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{key}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
        with open(os.path.join(OUT_DIR, "spans", f"{key}.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not run.problems and run.failed == 0 and bool(metrics)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": declared.get(k, "?")} for k, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
