"""Disorder-replica experiments with deterministic parallel execution.

Each replica owns a seed derived by a 64-bit mixing hash of
(base_seed, replica_index), so the sample stream is independent of
execution order and thread count.  Workers (at most one per usable CPU)
process contiguous index chunks; results are merged back in index order,
which makes CSV output and report statistics byte-reproducible for a
fixed config.

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
comparison; everything else in the report is deterministic.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import kolmogorov, ndtr

from .covariance import expansion_approx, exact_covariance, hermite, overlap_grid
from .errors import InvalidParametersError, NumericalError
from .model import check_enumeration_budget, j_term
from .momentlab import (
    BRUTE_PAIR_N,
    free_energy_and_moments,
    h3_representation,
    h4_direct,
    pair_moment_paths,
    pair_plan,
)
from .multiindex import ModelParams, check_coupling_budget, derive_seed, sample_disorder
from .theory import beta_p, clt_variance, limit_constants

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
        if self.replicas < 1:
            raise InvalidParametersError(f"replicas={self.replicas} must be >= 1")
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
    mean = float(x.mean())
    centered = x - mean
    # einsum, not np.dot: a long BLAS dot splits its sum by thread count
    variance = float(np.einsum("i,i->", centered, centered) / (n - 1))
    if variance > 0.0:
        skewness = float(np.mean(centered**3) / np.mean(centered**2) ** 1.5)
    else:
        skewness = 0.0
    z = np.sort((x - target_mean) / math.sqrt(target_variance))
    cdf = ndtr(z)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    ks_distance = float(max((steps_hi - cdf).max(), (cdf - steps_lo).max()))
    ks_pvalue = float(kolmogorov(math.sqrt(n) * ks_distance))
    return SummaryStats(
        n_samples=n,
        mean=mean,
        variance=variance,
        skewness=skewness,
        ks_distance=ks_distance,
        ks_pvalue=ks_pvalue,
        target_mean=target_mean,
        target_variance=target_variance,
    )


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        env = os.environ.get("PSPIN_THREADS", "").strip() or "1"
        if not env.isdecimal():
            raise InvalidParametersError(f"PSPIN_THREADS={env!r} is not a positive integer")
        threads = int(env)
    if threads < 1:
        raise InvalidParametersError(f"threads={threads} must be >= 1")
    return threads


def _row(config: ExperimentConfig, a_exp: Optional[float], idx: int) -> tuple:
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
    t2 = None if a_exp is None else params.N**a_exp * (f_n - j_n)
    sample = FluctuationSample(idx, f_n, j_n, moments.t_value, t1, gap, t2)
    if mode.statistic is not None:
        return sample, None
    scale3 = max(abs(moments.m3), moments.m2**1.5)
    a4 = params.a_n**4
    scale4 = (
        moments.m2**2 / 8.0 + abs(moments.m4) / 24.0 + a4 / 12.0 * moments.j4_sum
    )
    gap_rhs = half_p * (j_n - beta * beta / 2.0)
    residuals = {
        "h3_enumeration": abs(h3_representation(disorder) + moments.m3) / scale3,
        "h4_decomposition": abs(moments.h4 - h4_direct(disorder)) / scale4,
        "t1_gap_identity": abs(t1 - gap - gap_rhs) / max(abs(t1), abs(gap), 1.0),
    }
    if params.p % 2:
        residuals["m3_odd_zero"] = abs(moments.m3) / moments.m2**1.5
    return sample, residuals


def _csv_line(s: FluctuationSample) -> str:
    # the fields are in CSV_HEADER order; a field the mode does not produce is empty
    index, *values = vars(s).values()
    return ",".join([str(index)] + ["" if v is None else repr(float(v)) for v in values])


def _iter_rows(config: ExperimentConfig, a_exp: Optional[float], threads: int):
    m = config.replicas
    workers = min(threads, len(os.sched_getaffinity(0)))
    if workers == 1 or m < 2 * workers:
        for idx in range(m):
            yield _row(config, a_exp, idx)
        return
    # about four contiguous chunks per worker, merged back in index order
    chunk = -(-m // (4 * workers))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        yield from pool.imap(partial(_row, config, a_exp), range(m), chunksize=chunk)


def finite_json(doc: dict) -> str:
    """``doc`` as indented key-sorted JSON; inf and NaN, which JSON lacks, are refused."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        # a huge beta overflows a result to inf without raising
        raise NumericalError(f"a result is not finite: {exc}") from None


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
    rows = []
    scale = N ** (p / 2.0)
    for m in overlap_grid(N).values:
        k_disagree = round(N * (1.0 - m) / 2.0)
        rows.append(
            (
                float(m),
                exact_covariance(N, p, k_disagree),
                expansion_approx(N, p, float(m)),
                he(math.sqrt(N) * float(m)) / scale,
            )
        )
    return rows


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
    """(rows, supercritical, target) for a replica mode, streaming its CSV if asked.

    Every refusal comes before the first replica draws its disorder.
    """
    params = config.params
    critical = beta_p(params.p) if params.p >= 3 else 1.0
    supercritical = params.beta >= critical
    if supercritical and not config.allow_supercritical:
        raise InvalidParametersError(
            f"beta={params.beta} is not below beta_p({params.p})={critical:.6f}; "
            f"pass allow_supercritical to run anyway"
        )
    if mode.enumerates:
        check_enumeration_budget(params)
    check_coupling_budget(params.N, params.p)
    target = None
    if mode.target is not None:
        target = mode.target(params)
        if not (target[1] > 0.0):
            raise InvalidParametersError(
                f"mode {config.mode} needs a target normal of positive variance; "
                f"beta={params.beta} gives {target[1]}"
            )
    a_exp = None
    if mode.statistic is None:
        # built here, before any pool forks, so workers share it copy-on-write
        pair_plan(params.N, params.p)
    elif mode.enumerates and params.p >= 3:
        a_exp = limit_constants(params.beta, params.p).a_exponent
    rows = []
    write_csv = mode.statistic is not None and config.output_path and config.format == "csv"
    with open(config.output_path, "w") if write_csv else nullcontext() as csv_fh:
        if write_csv:
            csv_fh.write(CSV_HEADER + "\n")
        for row in _iter_rows(config, a_exp, threads):
            rows.append(row)
            if write_csv:
                csv_fh.write(_csv_line(row[0]) + "\n")
    return rows, supercritical, target


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
    rows, summary, identities, constants, supercritical = [], None, None, None, False
    if config.mode == "constants":
        constants = _constants_payload(params)
    elif config.mode == "tabulate":
        text = tabulate_text(params.N, params.p)
        if config.output_path:
            _write_atomic(config.output_path, text)
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
    if config.output_path and config.mode != "tabulate":
        doc = report.to_json_dict()
        path = config.output_path
        if summary is not None and config.format == "json":
            keys = CSV_HEADER.split(",")
            doc["samples"] = [dict(zip(keys, vars(s).values())) for s in samples]
        elif summary is not None:
            path += ".report.json"
        _write_atomic(path, finite_json(doc) + "\n")
    return report
