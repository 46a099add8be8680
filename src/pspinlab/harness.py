"""Disorder-replica experiments with deterministic parallel execution.

Each replica owns a seed derived by a 64-bit mixing hash of
(base_seed, replica_index), so the sample stream is independent of
execution order and thread count.  Every run has one replica loop: its k
workers (at most one per usable CPU) are the parent and k - 1 children it
forks, none when k = 1.  Each claims contiguous index chunks in turn from
one shared queue, the children send their rows back through pipes, and the
parent merges them in index order, which makes CSV output and report
statistics byte-reproducible for a fixed config.  A child that dies or
raises fails the run.

What a mode does is one row of a mode table: the statistic a replica
row contributes to the summary and the normal it is tested against,
whether each replica enumerates 2^N states (and so falls under the
enumeration budget), and the smallest p the mode accepts.  theorem1
summarizes N^{p/2}(F_N - beta^2/2) against the CLT variance and theorem2
N^a (F_N - J_N) against (mu, sigma^2).  jterm_clt summarizes
N^{p/2}(J_N - beta^2/2), touches only the coupling vector and has no size
budget.  identities, the one replica mode without a statistic, recomputes
the combinatorial representations per replica against the quenched
moments and reports worst-case residuals.  Every enumerating replica makes
one pass that gives the free energy and the moments together: folded on
the global flip in the theorem modes, unfolded for identities, so that
E[H^3] = 0 at odd p is checked as a real cancellation.  constants and
tabulate emit theory tables and draw no replicas.

The CSV schema is fixed: replica,f_n,j_n,t_n,scaled_t1,scaled_gap,scaled_t2.
Columns that a mode does not produce are left empty.  The JSON report
carries wallclock_seconds, which is excluded from any reproducibility
comparison; everything else in the report is deterministic.  Every file a
run writes is checked before its first replica and written, atomically,
only once its results have passed their checks: a refused run writes none.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import kolmogorov, ndtr

from .covariance import expansion_approx, exact_covariance, hermite, overlap_grid
from .errors import (InvalidParametersError, NumericalError, PspinError, check_budget, check_count,
                     check_writable, write_atomic)
from .model import check_enumeration_budget, j_term
from .momentlab import (
    BRUTE_PAIR_N,
    check_pair_budget,
    free_energy_and_moments,
    pair_moment_paths,
    pair_plan,
    pair_sums,
)
from .multiindex import (ModelParams, check_coupling_budget, check_seed, derive_seed,
                         sample_disorder)
from .theory import a_exponent, beta_p, clt_variance, limit_constants

__all__ = [
    "ExperimentConfig",
    "FluctuationSample",
    "SummaryStats",
    "ExperimentReport",
    "run_experiment",
    "summarize",
    "tabulate_covariance",
    "tabulate_text",
    "finite_json",
    "MODES",
    "CSV_HEADER",
]


@dataclass(frozen=True)
class _Mode:
    """What one mode does that the others do not.

    ``statistic(sample, params)`` is what a row adds to the summary and
    ``target(params)`` the (mean, variance) it is tested against; a replica
    mode without them is the identity check.
    """

    statistic: Optional[Callable] = None
    target: Optional[Callable] = None
    enumerates: bool = False
    min_p: int = 2


def _clt_target(params: ModelParams) -> tuple:
    return 0.0, clt_variance(params.beta, params.p)


def _theorem2_target(params: ModelParams) -> tuple:
    lim = limit_constants(params.beta, params.p)
    return lim.mu, lim.sigma2


def _scaled_j(sample, params: ModelParams) -> float:
    return params.N ** (params.p / 2.0) * (sample.j_n - params.beta * params.beta / 2.0)


_MODE_TABLE = {
    "theorem1": _Mode(lambda s, params: s.scaled_t1, _clt_target, enumerates=True),
    "theorem2": _Mode(
        lambda s, params: s.scaled_t2, _theorem2_target, enumerates=True, min_p=3
    ),
    "jterm_clt": _Mode(_scaled_j, _clt_target),
    "identities": _Mode(enumerates=True),
    "constants": _Mode(),
    "tabulate": _Mode(),
}
MODES = tuple(_MODE_TABLE)

CSV_HEADER = "replica,f_n,j_n,t_n,scaled_t1,scaled_gap,scaled_t2"

_IDENTITY_TOLERANCES = {
    "h3_enumeration": 1e-10,
    "m3_odd_zero": 1e-10,
    "h4_decomposition": 1e-11,
    "t1_gap_identity": 1e-9,
    "pair_moment_paths": 0.0,
}

# A run keeps every row until it is summarized.  Peak bytes per row (tracemalloc,
# 4,000 replicas on 2 workers), parent / child holding its rows and their pickler:
# jterm_clt 434 / 620 B, theorem1 and theorem2 574 / 741 B, identities 847 / 982 B
# (one worker, N = 8: 346, 419, 618 B); 1,280 B leaves a margin over the largest.
_ROW_BYTES = 1280


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    replicas: int
    base_seed: int
    mode: str
    output_path: Optional[str] = None
    format: str = "csv"
    allow_supercritical: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParametersError(
                f"mode {self.mode!r} not one of {sorted(MODES)}"
            )
        check_count(self.replicas, "replicas")
        check_seed(self.base_seed)
        mode = _MODE_TABLE[self.mode]
        if mode.statistic is not None and self.replicas < 2:
            raise InvalidParametersError(
                f"mode {self.mode} summarizes a sample and needs replicas >= 2"
            )
        if self.params.p < mode.min_p:
            raise InvalidParametersError(
                f"mode {self.mode} needs p >= {mode.min_p}, got p={self.params.p}"
            )
        if self.format not in ("csv", "json"):
            raise InvalidParametersError(f"format {self.format!r} not in {{csv, json}}")


@dataclass(frozen=True)
class FluctuationSample:
    """One replica's row.  Fields a mode does not produce are None."""

    replica_index: int
    f_n: Optional[float]
    j_n: float
    t_n: Optional[float]
    scaled_t1: Optional[float]
    scaled_gap: Optional[float]
    scaled_t2: Optional[float]


@dataclass(frozen=True)
class SummaryStats:
    n_samples: int
    mean: float
    variance: float
    skewness: float
    ks_distance: float
    ks_pvalue: float
    target_mean: float
    target_variance: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    samples: list
    summary: Optional[SummaryStats]
    identities: Optional[dict]
    constants: Optional[dict]
    supercritical: bool
    wallclock_seconds: float

    def to_json_dict(self) -> dict:
        cfg = {
            "mode": self.config.mode,
            "n": self.config.params.N,
            "p": self.config.params.p,
            "beta": self.config.params.beta,
            "replicas": self.config.replicas,
            "base_seed": self.config.base_seed,
            "format": self.config.format,
            "allow_supercritical": self.config.allow_supercritical,
            "supercritical": self.supercritical,
        }
        out = {"config": cfg, "wallclock_seconds": self.wallclock_seconds}
        if self.summary is not None:
            out.update(vars(self.summary))
        if self.identities is not None:
            out["identities"] = {name: dict(v) for name, v in self.identities.items()}
            for v in out["identities"].values():
                if not math.isfinite(v["max_residual"]):
                    v["max_residual"] = None  # JSON has no NaN
            out["all_pass"] = all(v["pass"] for v in self.identities.values())
        if self.constants is not None:
            out["constants"] = self.constants
        return out


def summarize(
    samples: Sequence[float], target_mean: float, target_variance: float
) -> SummaryStats:
    """Moment summary plus KS distance/p-value against the target normal.

    The normal CDF comes from the error function (ndtr); the p-value is
    the asymptotic Kolmogorov survival function at sqrt(n) * D.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 2:
        raise InvalidParametersError(f"need at least 2 samples, got {n}")
    if not (target_variance > 0.0):
        raise InvalidParametersError(
            f"target_variance={target_variance} must be positive"
        )
    if not (math.isfinite(target_mean) and math.isfinite(target_variance)
            and np.all(np.isfinite(x))):
        raise NumericalError(f"a sample or the target (mean {target_mean}, variance "
                             f"{target_variance}) is not finite")
    with np.errstate(over="ignore"):  # a moment past the largest double is refused below
        mean = float(x.mean())
        centered = x - mean
        # einsum, not np.dot: a long BLAS dot splits its sum by thread count
        variance = float(np.einsum("i,i->", centered, centered) / (n - 1))
        cubes = centered**3
    if not (variance < math.inf and np.all(np.isfinite(cubes))):
        raise NumericalError(f"the variance or third moment of the {n} samples is not finite")
    if variance > 0.0:
        skewness = float(np.mean(cubes) / np.mean(centered**2) ** 1.5)
    else:
        skewness = 0.0
    z = np.sort((x - target_mean) / math.sqrt(target_variance))
    cdf = ndtr(z)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    ks_distance = float(max((steps_hi - cdf).max(), (cdf - steps_lo).max()))
    ks_pvalue = float(kolmogorov(math.sqrt(n) * ks_distance))
    return SummaryStats(n, mean, variance, skewness, ks_distance, ks_pvalue, target_mean,
                        target_variance)


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        env = os.environ.get("PSPIN_THREADS", "").strip() or "1"
        if not env.isdecimal():
            raise InvalidParametersError(f"PSPIN_THREADS={env!r} is not a positive integer")
        threads = int(env)
    return check_count(threads, "threads")


def _row(config: ExperimentConfig, idx: int) -> tuple:
    """Replica idx: (its FluctuationSample, identity residuals or None)."""
    params = config.params
    beta = params.beta
    mode = _MODE_TABLE[config.mode]
    disorder = sample_disorder(params, derive_seed(config.base_seed, idx))
    j_n = j_term(disorder, beta)
    if not mode.enumerates:
        return FluctuationSample(idx, None, j_n, None, None, None, None), None
    f_n, moments = free_energy_and_moments(disorder, beta, half=mode.statistic is not None)
    half_p = params.N ** (params.p / 2.0)
    t1 = half_p * (f_n - beta * beta / 2.0)
    gap = half_p * (f_n - j_n)
    if mode.statistic is not None:
        t2 = params.N ** a_exponent(params.p) * (f_n - j_n) if params.p >= 3 else None
        return FluctuationSample(idx, f_n, j_n, moments.t_value, t1, gap, t2), None
    scale3 = max(abs(moments.m3), moments.m2**1.5)
    scale4 = moments.m2**2 / 8.0 + abs(moments.m4) / 24.0 + params.a_n**4 / 12.0 * moments.j4_sum
    gap_rhs = half_p * (j_n - beta * beta / 2.0)
    h3, h4 = pair_sums(disorder)
    residuals = {
        "h3_enumeration": abs(h3 + moments.m3) / scale3,
        "h4_decomposition": abs(moments.h4 - h4) / scale4,
        "t1_gap_identity": abs(t1 - gap - gap_rhs) / max(abs(t1), abs(gap), 1.0),
    }
    if params.p % 2:
        residuals["m3_odd_zero"] = abs(moments.m3) / moments.m2**1.5
    return FluctuationSample(idx, f_n, j_n, moments.t_value, t1, gap, None), residuals


def _csv_lines(samples: list):
    """The CSV text, one line at a time; a field the mode does not produce is empty."""
    yield CSV_HEADER + "\n"
    for s in samples:
        index, *values = vars(s).values()  # in CSV_HEADER order
        yield ",".join([str(index)] + ["" if v is None else repr(float(v)) for v in values]) + "\n"


def _child(fill: Callable[[], dict], out: int):
    """A forked worker: send ``fill()``, or what it raised, through ``out``; never returns."""
    try:
        try:
            result = fill()
        except BaseException as exc:
            result = exc
            try:
                pickle.loads(pickle.dumps(exc))  # the parent must be able to load it
            except Exception:
                result = PspinError(f"a replica worker raised {exc!r}")
        with open(out, "wb") as fh:
            pickle.dump(result, fh)  # in frames: the whole payload is never held here
        os._exit(0)
    finally:
        os._exit(1)  # only if the payload was not sent


def _iter_rows(config: ExperimentConfig, workers: int):
    m = config.replicas
    # about four contiguous chunks per worker, claimed in turn from one queue: a pipe
    # preloaded with the chunk numbers, 4 B each (a 64 KiB pipe holds 4,096 workers')
    size = -(-m // (4 * workers))
    queue, feed = os.pipe()
    os.write(feed, b"".join(c.to_bytes(4, "little") for c in range(-(-m // size))))
    os.close(feed)

    def claim() -> dict:  # {chunk: its rows} for each chunk claimed until the queue is empty
        chunks = {}
        while token := os.read(queue, 4):
            c = int.from_bytes(token, "little")
            chunks[c] = [_row(config, i) for i in range(c * size, min(c * size + size, m))]
        return chunks

    children = {}  # pid -> the read end of its pipe
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            if not (pid := os.fork()):
                _child(claim, w)
            os.close(w)
            children[pid] = open(r, "rb")
        chunks = claim()  # the parent is a worker too
        for pid in list(children):
            with children[pid] as fh:
                payload = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                how = f"signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exit status {code}"
                raise PspinError(f"replica worker {pid} ended by {how} before sending its rows")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            chunks.update(result)
    finally:
        os.close(queue)
        for pid, fh in children.items():  # after a failure: kill and reap the rest
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for c in range(len(chunks)):  # merged back in index order
        yield from chunks.pop(c)


def finite_json(doc: dict) -> str:
    """``doc`` as indented key-sorted JSON; inf and NaN, which JSON lacks, are refused."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        # a huge beta overflows a result to inf without raising
        raise NumericalError(f"a result is not finite: {exc}") from None


def _constants_payload(params: ModelParams) -> dict:
    beta = params.beta
    p = params.p
    payload = dict(p=p, beta=beta, beta_p=beta_p(p), clt_variance=clt_variance(beta, p))
    # the second theorem's constants exist for p >= 3 only; None below that
    lim = limit_constants(beta, p) if p >= 3 else None
    for key in ("mu", "sigma2", "a_exponent", "alpha_exponent"):
        payload[key] = getattr(lim, key, None)
    return payload


def tabulate_covariance(N: int, p: int) -> list:
    """Rows (m, exact f, series approximation, Hermite limit profile)."""
    he = hermite(p)
    scale = N ** (p / 2.0)
    return [(float(m), exact_covariance(N, p, round(N * (1.0 - m) / 2.0)),
             expansion_approx(N, p, float(m)), he(math.sqrt(N) * float(m)) / scale)
            for m in overlap_grid(N).values]


def tabulate_text(N: int, p: int) -> str:
    """The covariance table as CSV text, header m,f_exact,f_series,he_limit."""
    lines = ["m,f_exact,f_series,he_limit"]
    for m, f_exact, f_series, he_limit in tabulate_covariance(N, p):
        lines.append(f"{m!r},{f_exact!r},{f_series!r},{he_limit!r}")
    return "\n".join(lines) + "\n"


def _identity_report(params: ModelParams, rows: list) -> dict:
    # np.max, not max(): a NaN residual must propagate and fail its check
    worst = {name: float(np.max([0.0] + [res[name] for _, res in rows])) for name in rows[0][1]}
    if params.N <= BRUTE_PAIR_N:
        paths = [pair_moment_paths(params.N, params.p, k) for k in (1, 2, 3, 4)]
        gaps = [abs(float(a - b)) for a, b in paths if a != b]
        worst["pair_moment_paths"] = float(np.max([0.0] + gaps))
    return {
        name: {
            "max_residual": residual,
            "tolerance": _IDENTITY_TOLERANCES[name],
            "pass": bool(residual <= _IDENTITY_TOLERANCES[name]),
        }
        for name, residual in worst.items()
    }


def _replica_rows(config: ExperimentConfig, mode: _Mode, threads: int) -> tuple:
    """(rows, supercritical, target) for a replica mode.

    Every refusal comes before the first replica draws its disorder.
    """
    params = config.params
    critical = beta_p(params.p)
    supercritical = params.beta >= critical
    if supercritical and not config.allow_supercritical:
        raise InvalidParametersError(
            f"beta={params.beta} is not below beta_p({params.p})={critical:.6f}; "
            f"pass allow_supercritical to run anyway"
        )
    # the processes that fill rows: at most one per usable CPU, one for a short
    # run; each draws its own disorder and runs its own pass
    workers = min(threads, len(os.sched_getaffinity(0)))
    workers = 1 if config.replicas < 2 * workers else workers
    if mode.enumerates:
        check_enumeration_budget(params, workers)
    check_coupling_budget(params.N, params.p, workers)
    check_budget(config.replicas * _ROW_BYTES, f"{config.replicas} replicas at {_ROW_BYTES} B/row")
    target = None
    if mode.target is not None:
        target = mode.target(params)
        if not (target[1] > 0.0):
            raise InvalidParametersError(
                f"mode {config.mode} needs a target normal of positive variance; "
                f"beta={params.beta} gives {target[1]}"
            )
    if mode.statistic is None:
        check_pair_budget(params.N, params.p, workers)
        # built here, before the parent forks, so workers share it copy-on-write
        pair_plan(params.N, params.p)
    return list(_iter_rows(config, workers)), supercritical, target


def run_experiment(
    config: ExperimentConfig, threads: Optional[int] = None
) -> ExperimentReport:
    """Execute the configured experiment; write CSV/JSON artifacts if asked.

    Reports are identical for identical configs regardless of ``threads``
    (wallclock_seconds aside).  Supercritical beta needs the explicit
    override flag; the report echoes whether the run was supercritical.
    """
    t0 = time.perf_counter()
    threads = _resolve_threads(threads)
    params = config.params
    mode = _MODE_TABLE[config.mode]
    path = config.output_path
    csv = mode.statistic is not None and config.format == "csv"
    paths = [path, f"{path}.report.json"] if csv else [path]
    for out in paths if path else ():
        check_writable(out)
    rows, summary, identities, constants, supercritical, text = [], None, None, None, False, None
    if config.mode == "constants":
        constants = _constants_payload(params)
    elif config.mode == "tabulate":
        text = tabulate_text(params.N, params.p)
        constants = {"rows": len(text.splitlines()) - 1}
    else:
        rows, supercritical, target = _replica_rows(config, mode, threads)
        if mode.statistic is None:
            identities = _identity_report(params, rows)
        else:
            stat = [mode.statistic(sample, params) for sample, _ in rows]
            summary = summarize(stat, *target)
    samples = [sample for sample, _ in rows]
    report = ExperimentReport(
        config=config,
        samples=samples,
        summary=summary,
        identities=identities,
        constants=constants,
        supercritical=supercritical,
        wallclock_seconds=time.perf_counter() - t0,
    )
    if path:
        if text is None:
            # rendered first: finite_json refuses a non-finite result before any file exists
            doc = report.to_json_dict()
            if summary is not None and not csv:
                keys = CSV_HEADER.split(",")
                doc["samples"] = [dict(zip(keys, vars(s).values())) for s in samples]
            text = finite_json(doc) + "\n"
        if csv:
            write_atomic(path, _csv_lines(samples))
        write_atomic(paths[-1], (text,))
    return report
