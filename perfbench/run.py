#!/usr/bin/env python3
"""pspinlab benchmark: ``pspinlab run`` driven through its CLI, from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/pspinlab``).
Every launch is a fresh interpreter (``perfbench/runner.py``) that imports
the CLI from ``src`` and runs one closed-loop batch of disorder replicas
back to back; the benchmark passes it only the workload's arguments and
a base seed derived from ``--seed``.

A session first makes one untimed reference launch with ``--threads 1``,
checks its artifacts in full (see ``checks.py``) and keeps their digest;
every later launch must reproduce that digest byte for byte.  Then it
launches until ``--seconds`` have passed:

* ``--trace 0``: untraced launches at the workload's thread count;
  prints the end-to-end metrics (medians over launches).
* ``--trace 1``: the reference launch is traced and supplies the exact
  work counts; then cycles of a traced and an untraced launch (their
  order alternating) and an untraced launch at the other thread count;
  prints the per-layer metrics.

A launch that exits non-zero or fails a check counts as failed and its
timings are discarded.  The last line of stdout is the JSON result; the
lines before it are a readable report, also written with provenance to
``.bench_run/<workload>-seed<seed>-trace<t>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import artifact_paths, digest, full_checks
from layers import LaunchSpans, layer_metrics, self_time_table, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# A launch takes a few seconds; with the deadline below, a session that
# hits both still ends inside 180 s.
LAUNCH_TIMEOUT_S = 45
# No new launch starts after this many seconds of a session.
SESSION_DEADLINE_S = 110


@dataclass(frozen=True)
class Workload:
    mode: str
    n: int
    p: int
    beta: float
    threads: int
    replicas: int

    def cli_args(self, base_seed: int, threads: int, out: Path) -> list:
        return ["run", "--mode", self.mode, "--n", str(self.n), "--p", str(self.p),
                "--beta", repr(self.beta), "--threads", str(threads),
                "--replicas", str(self.replicas), "--seed", str(base_seed), "--out", str(out)]


# Why each workload exists is in BENCHMARK.json and README.md.  Replica
# counts size one CLI call at about 2 s on a 2-core x86 box, so a run
# holds enough launches to take medians over.  The two theorem1 workloads
# share their arguments so their artifacts can be compared byte for byte.
WORKLOADS = {
    "theorem1_n20": Workload("theorem1", 20, 3, 0.4, 1, 12),
    "theorem1_n20_t2": Workload("theorem1", 20, 3, 0.4, 2, 12),
    "jterm_n50": Workload("jterm_clt", 50, 3, 0.5, 1, 3000),
    "identities_n12p4": Workload("identities", 12, 4, 0.3, 1, 60),
}

END_TO_END_UNITS = {"replicas_per_s": "1/s", "cpu_ms_per_replica": "ms",
                    "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "multiindex.sample_ms": "ms", "multiindex.couplings": "count",
    "model.transform_ms": "ms", "model.transforms_per_replica": "count",
    "model.transform_states": "count", "model.fwht_bytes_computed": "B",
    "model.lse_ms": "ms", "model.j_term_ms": "ms", "momentlab.moments_ms": "ms",
    "momentlab.h3_ms": "ms", "momentlab.h4_ms": "ms", "momentlab.h3_hit_ratio": "ratio",
    "momentlab.pair_paths_ms": "ms", "theory.per_run_ms": "ms",
    "harness.self_ms_per_replica": "ms", "harness.summarize_ms": "ms",
    "harness.pool_wait_s": "s", "harness.scaling_efficiency": "ratio",
    "trace.overhead_pct": "%", "trace.unaccounted_pct": "%",
}


def base_seed_for(seed: int) -> int:
    """The pspinlab base seed for a benchmark seed; shared by all workloads."""
    return int.from_bytes(hashlib.sha256(f"perfbench:{seed}".encode()).digest()[:4], "little")


@dataclass
class Launch:
    threads: int
    traced: bool
    replicas: int
    paths: list
    spans_path: Path | None
    rc: int = -1
    problem: str = ""
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kib: int = 0

    @property
    def rate(self) -> float:
        return self.replicas / self.wall_s


class Session:
    """Launches of one workload at one seed, with their checks and tally."""

    def __init__(self, spec: Workload, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.base_seed = base_seed_for(seed)
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reference: str | None = None

    def launch(self, threads: int, traced: bool) -> Launch:
        """Run one launch to completion; no checks yet."""
        self.attempted += 1
        out_dir = self.workdir / f"launch{self.attempted:03d}"
        out_dir.mkdir(parents=True)
        out = out_dir / ("report.json" if self.spec.mode == "identities" else "samples.csv")
        timing_path = out_dir / "timing.json"
        cmd = [sys.executable, str(HERE / "runner.py"), "--src", str(SRC),
               "--timing", str(timing_path)]
        spans_path = out_dir / "spans.json" if traced else None
        if traced:
            cmd += ["--spans", str(spans_path)]
        cmd += ["--", *self.spec.cli_args(self.base_seed, threads, out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        launch = Launch(threads, traced, self.spec.replicas,
                        artifact_paths(self.spec.mode, out), spans_path)
        with open(out_dir / "stdout.txt", "w") as so, open(out_dir / "stderr.txt", "w") as se:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se,
                                    start_new_session=True)
            try:
                launch.rc = proc.wait(timeout=LAUNCH_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                launch.rc = -9
            finally:
                if proc.returncode is None:  # timed out or interrupted: end the whole group
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if launch.rc != 0:
            launch.problem = f"exit code {launch.rc}"
            return launch
        try:
            timing = json.loads(timing_path.read_text())
            launch.setup_s = timing["ready_monotonic"] - t0
            launch.wall_s = timing["wall_s"]
            launch.cpu_s = timing["cpu_s"]
            launch.maxrss_kib = timing["maxrss_kib"]
        except (OSError, ValueError, KeyError) as exc:
            launch.problem = f"no timing record: {exc!r}"
        return launch

    def accept(self, launch: Launch) -> bool:
        """Check one launch's outputs; count it as failed if any check fails."""
        problems = [launch.problem] if launch.problem else []
        if not problems:
            try:
                d = digest(launch.paths)
                if self.reference is None:
                    problems = full_checks(self.spec, self.base_seed, launch.paths, self.rng)
                    if not problems:
                        self.reference = d
                elif d != self.reference:
                    problems.append("artifacts differ from the session reference")
            except Exception as exc:  # any malformed artifact is a failed launch, not a crash
                problems.append(f"artifacts failed to parse: {exc!r}")
        if problems:
            self.failed += 1
            note = f"launch {self.attempted} (threads={launch.threads}, traced={launch.traced}): " + "; ".join(problems)
            self.problems.append(note)
            print("perfbench: FAILED " + note, file=sys.stderr)
        return not problems

    def run(self, threads: int, traced: bool) -> Launch | None:
        launch = self.launch(threads, traced)
        return launch if self.accept(launch) else None

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def spread(values: list) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def src_line_count() -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unresolved ({name})"


def _blas(module) -> str:
    try:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError) as exc:
        return f"unknown ({exc!r})"


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PSPIN_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_lines": src_line_count(),
        "loadavg_before": os.getloadavg(),
    }


def end_to_end(launches: list) -> dict:
    return {
        "replicas_per_s": spread([l.rate for l in launches]),
        "cpu_ms_per_replica": spread([l.cpu_s * 1e3 / l.replicas for l in launches]),
        "setup_s": spread([l.setup_s for l in launches]),
        "peak_rss_mib": spread([l.maxrss_kib / 1024.0 for l in launches]),
    }


class _Budget:
    """Measuring time left: another step starts only if a step of the mean
    length so far still ends within ``seconds``."""

    def __init__(self, seconds: float, started: float):
        self.seconds = seconds
        self.started = started
        self.t0 = time.monotonic()
        self.steps = 0

    def done(self) -> bool:
        now = time.monotonic()
        self.steps += 1
        elapsed = now - self.t0
        return (elapsed * (self.steps + 1) / self.steps > self.seconds
                or now - self.started >= SESSION_DEADLINE_S)


def trace_session(session: Session, seconds: float, started: float):
    """Traced reference, then cycles of a traced and an untraced launch (in
    alternating order) and an untraced launch at the other thread count."""
    spec = session.spec
    ref = session.run(1, traced=True)
    if ref is None:
        return None
    reference = load_spans(ref)
    other = 1 if spec.threads > 1 else 2
    traced, rates = [], {"untraced": [], "traced": [], 1: [], 2: []}
    clock = _Budget(seconds, started)
    cycle = [(spec.threads, True), (spec.threads, False), (other, False)]
    while True:
        for threads, is_traced in cycle:
            launch = session.run(threads, is_traced)
            if launch is None:
                continue
            if is_traced:
                traced.append(load_spans(launch))
                rates["traced"].append(launch.rate)
            else:
                rates[threads].append(launch.rate)
                if threads == spec.threads:
                    rates["untraced"].append(launch.rate)
        if clock.done():
            break
        # alternate which of the traced / untraced pair goes first
        cycle[0], cycle[1] = cycle[1], cycle[0]
    if not (traced and rates["untraced"] and rates[other]):
        return None
    metrics = layer_metrics(reference, traced, rates)
    detail = {
        "rates": {str(k): spread(v) for k, v in rates.items() if v},
        "self_time_table": self_time_table(traced),
        "parent_side_only": spec.threads > 1,
    }
    return metrics, detail


def load_spans(launch: Launch) -> LaunchSpans:
    doc = json.loads(launch.spans_path.read_text())
    return LaunchSpans(doc["spans"], launch.replicas, launch.threads > 1, launch.wall_s)


def timed_session(session: Session, seconds: float, started: float):
    """Untraced reference, then launches at the workload's thread count."""
    session.run(1, traced=False)
    launches = []
    clock = _Budget(seconds, started)
    while True:
        launch = session.run(session.spec.threads, traced=False)
        if launch is not None:
            launches.append(launch)
        if clock.done():
            break
    if not launches:
        return None
    figures = end_to_end(launches)
    return {k: v["median"] for k, v in figures.items()}, figures


def print_report(name: str, session: Session, prov: dict, detail: dict, trace: bool) -> None:
    print(f"# perfbench {name} seed={session.seed} base_seed={session.base_seed} "
          f"trace={int(trace)} replicas/launch={session.spec.replicas}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# launches attempted={session.attempted} failed={session.failed} "
          f"error_rate={session.error_rate:.4f}")
    if not trace:
        for metric, s in detail.items():
            quart = f" q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
            tl = tail(s["values"])
            tail_txt = f"p{tl[0]:g}={tl[1]:.6g}" if tl else "no tail percentile (under 11 launches)"
            print(f"# {metric}: median={s['median']:.6g}{quart} n={s['n']} {tail_txt}")
        return
    if detail["parent_side_only"]:
        print("# spans are parent-side only: pool workers run the replicas unrecorded")
    for key, s in detail["rates"].items():
        print(f"# rate[{key}] replicas/s median={s['median']:.6g} n={s['n']}")
    print("# span                          calls   p50_ms     tail_ms         self_s  share_of_wall")
    for name_, calls, p50, tl, own, share in detail["self_time_table"]:
        tail_txt = f"p{tl[0]:g}={tl[1]:.4g}" if tl else "-"
        print(f"# {name_:30s} {calls:6d} {p50:9.4f} {tail_txt:>15s} {own:9.4f} {share:6.2f}%")
    covered = sum(row[5] for row in detail["self_time_table"])
    print(f"# self times cover {covered:.2f}% of the traced main() wall time; "
          f"remainder {100.0 - covered:.2f}% (argument parsing, printing the report)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pspinlab" / "cli.py").is_file():
        print(f"perfbench: no pspinlab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    prov = provenance()
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    session = Session(WORKLOADS[args.workload], args.seed, workdir)
    try:
        if args.trace:
            outcome = trace_session(session, args.seconds, started)
        else:
            outcome = timed_session(session, args.seconds, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()
    if outcome is None:
        print(f"perfbench: no successful launch to measure ({session.failed} of "
              f"{session.attempted} failed)", file=sys.stderr)
        return 1
    metrics, detail = outcome
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print_report(args.workload, session, prov, detail, bool(args.trace))
    sidecar = {"workload": args.workload, "spec": asdict(session.spec), "seed": args.seed,
               "trace": args.trace, "provenance": prov, "attempted": session.attempted,
               "failed": session.failed, "problems": session.problems,
               "metrics": metrics, "detail": detail}
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(sidecar, indent=2, default=str) + "\n")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
