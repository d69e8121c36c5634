"""Benchmark runner for probedepth.

    python3 perfbench/run.py --workload deep_search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One invocation runs one workload in its own process as a
single-threaded closed loop: it asks each question of a pass in turn, waits
for the answer, then asks the next, and repeats whole passes until
``--seconds`` have gone by.  Answers are checked after the timed loop.
Times are corrected for the host's speed level (see ``hostspeed.py``).

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the public functions of each layer are
wrapped, and it holds per-layer call counts, self times, exact counts and
layer shares instead.  ``--workload all`` runs every workload, each in a
fresh process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
from hostspeed import HostSpeed
from checks import WrongAnswer
from workloads import BUILDERS, CliResult

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 7
MIN_PASSES = 2
TAIL_BEYOND = 5  # questions beyond answer_ms.tail; MIN_PASSES * 5 = 10 answers
MODULES = ("expr", "strategy", "graphdnf", "readonce", "provenance", "families",
           "treegen", "cli")


def import_fresh():
    """Import probedepth from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "probedepth" or n.startswith("probedepth.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"probedepth.{m}") for m in MODULES})


def failure_of(result):
    """Failure class of a returned result, before its answer is checked."""
    if isinstance(result, CliResult):
        if "Traceback" in result.err:
            return "traceback", result.err.strip().splitlines()[-1]
        if result.code != 0:
            return "exit code", f"exit {result.code}: {result.err.strip()[:200]}"
    return None


def ask(op, tracer):
    """One timed answer: (start, seconds, result, failure or None)."""
    if tracer is not None:
        tracer.instance = op.id
        tracer.open(spans.ROOT)
    start = time.perf_counter()
    try:
        result = op.call()
        failure = failure_of(result)
    except Exception as exc:  # the loop must go on; the failure is counted
        result = None
        failure = ("traceback" if op.cli else "exception", f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close()
    return start, elapsed, result, failure


class Loop:
    """The closed loop over whole passes and what it observed."""

    def __init__(self, ops):
        self.ops = ops
        self.speed = HostSpeed()
        self.first = [None] * len(ops)  # first good result per op
        # (op, start, wall seconds, failed) per answer, one list per pass
        self.passes: list[list[tuple[int, float, float, bool]]] = []
        self.pass_times: list[float] = []  # wall time per pass
        self.failures: list[tuple[str, str, str]] = []  # (op id, class, message)
        self.wrong: set[int] = set()  # ops whose first result failed its check

    def run_pass(self, tracer=None):
        start = time.perf_counter()
        answers = []
        for i, op in enumerate(self.ops):
            begun, elapsed, result, failure = ask(op, tracer)
            # Untimed: free the answer's garbage (the search memo sits in a
            # reference cycle) so that each answer meets the memory and the
            # collector state of a fresh CLI call, not its predecessor's.
            gc.collect()
            if failure is None:
                if self.first[i] is None:
                    self.first[i] = result
                elif op.canon(result) != op.canon(self.first[i]):
                    failure = ("wrong answer", "differs from the first answer to the same question")
            if failure is not None:
                self.failures.append((op.id, *failure))
            answers.append((i, begun, elapsed, failure is not None))
        self.passes.append(answers)
        self.pass_times.append(time.perf_counter() - start)

    def corrected(self, answers) -> list[float]:
        """Answer times of a pass in seconds on the reference host."""
        return [self.speed.corrected(begun, begun + t) for _, begun, t, _ in answers]

    @property
    def latencies(self) -> list[float]:
        return [t for answers in self.passes for t in self.corrected(answers)]

    def question_medians(self) -> list[float]:
        """Each question's median answer time over the run."""
        times: dict[int, list[float]] = {}
        for answers in self.passes:
            for (i, *_), t in zip(answers, self.corrected(answers)):
                times.setdefault(i, []).append(t)
        return [statistics.median(ts) for ts in times.values()]

    @property
    def wall_latencies(self) -> list[float]:
        return [t for answers in self.passes for _, _, t, _ in answers]

    def correct(self, answers) -> int:
        return sum(not failed and i not in self.wrong for i, _, _, failed in answers)

    def answers_per_s(self) -> float:
        """Correct answers per second of answering, per pass; the median
        over passes damps bursts of machine noise."""
        return statistics.median(self.correct(a) / sum(self.corrected(a)) for a in self.passes)

    def run(self, seconds: float, tracer=None, after_first_pass=None):
        """Whole passes until ``seconds`` of wall time have gone by, and
        at least ``MIN_PASSES``."""
        start = time.perf_counter()
        self.speed.start()
        try:
            while True:
                self.run_pass(tracer)
                if after_first_pass is not None and len(self.pass_times) == 1:
                    after_first_pass()
                if (len(self.pass_times) >= MIN_PASSES
                        and time.perf_counter() - start >= seconds):
                    return
        finally:
            self.speed.stop()

    def check(self) -> dict:
        """Deep-check each op's first result; every answer equal to a wrong
        first result is a wrong answer too.  Returns the checks' exact counts."""
        counts: dict[str, int] = {}
        for i, op in enumerate(self.ops):
            if self.first[i] is None:
                continue
            found, failure = deep_check(op, self.first[i])
            if failure is not None:
                self.wrong.add(i)
                self.failures.append((op.id, *failure))
            for key, value in found.items():
                counts[key] = counts.get(key, 0) + value
        return counts


def deep_check(op, result) -> tuple[dict, tuple[str, str] | None]:
    """(exact counts, failure or None) of an op's check on ``result``."""
    try:
        return op.check(result), None
    except WrongAnswer as exc:
        return {}, ("wrong answer", str(exc))
    except Exception as exc:  # a check that cannot finish fails the answer
        return {}, ("exception", f"{type(exc).__name__}: {exc}")


def run_probe(op) -> tuple[str, str]:
    _, _, result, failure = ask(op, None)
    if failure is None:
        failure = deep_check(op, result)[1]
    return failure or ("ok", "")


def tail(loop: Loop) -> tuple[float, float, int, int]:
    """(value, percentile over questions, questions beyond, answers beyond)
    of the highest percentile of the questions' median times with at least
    ``TAIL_BEYOND`` questions beyond it.  Every question is asked at least
    ``MIN_PASSES`` times, so at least ten answers lie beyond it.  Counting
    questions rather than answers keeps the tail on the same question
    whether the run made two passes or three; the median keeps an answer
    the host pre-empted from setting it."""
    ordered = sorted(loop.question_medians())
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    beyond = len(ordered) - 1 - k
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond, beyond * len(loop.passes)


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {"seed": seed, "git_revision": git_revision(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg()}


def layer_metrics(tracer, loop: Loop, ids: dict[str, range], pass_counts: dict,
                  check_counts: dict, untraced_pass: float) -> dict:
    """Per-layer metrics from the traced run.  ``calls`` count the first
    pass; ``self_s`` is self time per pass, averaged over the traced passes.
    ``ids`` holds the span id ranges of set-up, the first pass and the loop."""
    passes = len(loop.pass_times)
    in_loop = tracer.self_times(ids["loop"])
    first_pass = tracer.self_times(ids["first_pass"])
    in_setup = tracer.self_times(ids["setup"])
    out = {}
    for group in spans.GROUPS:
        if group.startswith("setup."):
            calls, self_s = in_setup.get(group, (0, 0.0))
        else:
            calls = first_pass.get(group, (0, 0.0))[0]
            self_s = in_loop.get(group, (0, 0.0))[1] / passes
        out[f"{group}.calls"] = (calls, "count")
        out[f"{group}.self_s"] = (self_s, "s")
    for key in ("strategy.explored_states", "strategy.diagram_nodes",
                "strategy.greedy.diagram_nodes", "provenance.rows", "provenance.terms"):
        out[key] = (pass_counts[key], "count")
    out["strategy.greedy.depth_excess"] = (check_counts.get("strategy.greedy.depth_excess", 0),
                                           "count")
    attempted = pass_counts["readonce.attempted"]
    out["readonce.decided_ratio"] = (pass_counts["readonce.decided"] / attempted
                                     if attempted else 0.0, "ratio")
    total = sum(end - start for span_id, name, start, end, *_ in tracer.spans
                if name == spans.ROOT and span_id in ids["loop"])
    share = dict.fromkeys(spans.LAYERS, 0.0)
    for name, (_, self_s) in in_loop.items():
        layer = "bench" if name == spans.ROOT else name.split(".")[0]
        share[layer] = share.get(layer, 0.0) + self_s
    for layer in spans.LAYERS:
        out[f"share.{layer}"] = (share[layer] / total, "ratio")
    out["trace.overhead_ratio"] = (statistics.median(loop.pass_times) / untraced_pass, "ratio")
    return out


def run_workload(args) -> dict:
    work = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    build = BUILDERS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    speed = HostSpeed()
    try:
        setups = []  # (start, end) of each set-up
        speed.start()
        try:
            for _ in range(1 if tracer else SETUP_REPEATS):
                start = time.perf_counter()
                pd = import_fresh()
                if tracer is not None:
                    tracer.install()
                    tracer.enabled = True
                    tracer.open("setup")
                workload = build(pd, args.seed, work)
                if tracer is not None:
                    tracer.close()
                setups.append((start, time.perf_counter()))
        finally:
            speed.stop()
        gc.collect()
        gc.freeze()  # the inputs live for the whole run; keep them out of collections

        loop = Loop(workload.ops)
        pass_counts = {}
        ids = {}
        if tracer is None:
            loop.run(args.seconds)
        else:
            ids["setup"] = range(0, tracer.next_id)
            tracer.counts = dict.fromkeys(spans.COUNTERS, 0)

            def first_pass_done():
                pass_counts.update(tracer.counts)
                ids["first_pass"] = range(ids["setup"].stop, tracer.next_id)

            loop.run(args.seconds, tracer, after_first_pass=first_pass_done)
            ids["loop"] = range(ids["setup"].stop, tracer.next_id)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced_pass = None
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
            overhead = Loop(workload.ops)
            overhead.speed.start()  # sampled like the traced passes
            overhead.run_pass()
            overhead.speed.stop()
            untraced_pass = overhead.pass_times[0]
        check_counts = loop.check()
        probes = [(op.id, *run_probe(op)) for op in workload.probes]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies = loop.latencies
    attempted = len(latencies)
    failed = attempted - sum(loop.correct(answers) for answers in loop.passes)
    timed = sum(loop.wall_latencies)
    known = [p for p in probes if p[1] != "ok"]
    value, percentile, beyond_q, beyond = tail(loop)
    record = {
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed),
        "passes": len(loop.pass_times), "ops_per_pass": len(loop.ops),
        "timed_s": timed, "samples": attempted,
        "tail_percentile": percentile, "tail_questions_beyond": beyond_q,
        "tail_beyond": beyond,
        "setup_runs": len(setups),
        "wall": {"answer_ms.p50": statistics.median(loop.wall_latencies) * 1000,
                 "setup_s": statistics.median(end - start for start, end in setups),
                 "calibration_ms.p50": statistics.median(loop.speed.costs) * 1000},
        "failures": loop.failures[:20], "known_defects": probes,
        "error_rate": (failed + len(known)) / (attempted + len(probes)),
        "inputs_sha256": workload.digest,
    }
    metrics = {
        "answers_per_s": (loop.answers_per_s(), "1/s"),
        "answer_ms.p50": (statistics.median(latencies) * 1000, "ms"),
        "answer_ms.tail": (value * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(speed.corrected(*setup) for setup in setups), "s"),
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, loop, ids, pass_counts, check_counts, untraced_pass)
        metrics["known_defects"] = (len(known), "count")
        metrics["error_rate"] = (record["error_rate"], "ratio")
        record["exact"] = {k: v for k, (v, unit) in metrics.items()
                           if unit == "count" or k == "readonce.decided_ratio"}
        record["answers_sha256"] = answers_digest(loop)
        RUN_DIR.mkdir(exist_ok=True)
        tracer.dump(RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    report(args, record, metrics)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def answers_digest(loop: Loop) -> str:
    h = hashlib.sha256()
    for op, first in zip(loop.ops, loop.first):
        h.update(repr((op.id, op.canon(first) if first is not None else None)).encode())
    return h.hexdigest()


def report(args, record: dict, metrics: dict):
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode}): "
          f"{record['samples']} answers in {record['passes']} passes of "
          f"{record['ops_per_pass']}, {record['timed_s']:.2f} s timed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'(answer_ms.tail percentile)':<34} {record['tail_percentile']:>14.4g} "
              f"p of {record['ops_per_pass']} questions, {record['tail_questions_beyond']} "
              f"beyond; n={record['samples']} answers, {record['tail_beyond']} beyond")
        print(f"  {'error_rate':<34} {record['error_rate']:>14.6g} ratio")
    for probe_id, klass, message in record["known_defects"]:
        print(f"  known defect {probe_id}: {klass} {message[:120]}")
    for op_id, klass, message in record["failures"]:
        print(f"  FAILED {op_id}: {klass}: {message[:160]}")
    print("record: " + json.dumps(record, default=list))


def run_all(args) -> dict:
    """Every workload in a fresh process of its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BUILDERS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*BUILDERS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "probedepth" / "__init__.py").is_file():
        print(f"error: no probedepth sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
