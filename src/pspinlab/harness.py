"""Disorder-replica experiments with deterministic parallel execution.

Each replica owns a seed derived by a 64-bit mixing hash of
(base_seed, replica_index), so the sample stream is independent of
execution order and thread count.  Workers process contiguous index
chunks; results are merged back in index order, which makes CSV output
and report statistics byte-reproducible for a fixed config.

Modes: theorem1 and theorem2 enumerate each replica's configuration space
in one folded half-table pass that gives the free energy and the quenched
moments together; jterm_clt touches only the coupling vector and has no
size budget; identities recomputes the combinatorial representations per
replica against the unfolded full-table moments and reports worst-case
residuals; constants and tabulate emit theory tables and need no replicas.

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import kolmogorov, ndtr

from .covariance import expansion_approx, exact_covariance, hermite, overlap_grid
from .errors import InvalidParametersError, ResourceLimitError
from .model import ENUMERATION_BUDGET, free_energy, j_term
from .momentlab import (
    BRUTE_PAIR_N,
    check_pair_budget,
    free_energy_and_moments,
    h3_representation,
    h4_direct,
    pair_moment_paths,
    quenched_moments,
)
from .multiindex import ModelParams, derive_seed, sample_disorder
from .theory import beta_p, clt_variance, limit_constants

__all__ = [
    "ExperimentConfig",
    "FluctuationSample",
    "SummaryStats",
    "ExperimentReport",
    "run_experiment",
    "summarize",
    "tabulate_covariance",
    "MODES",
    "CSV_HEADER",
]

MODES = ("theorem1", "theorem2", "jterm_clt", "identities", "constants", "tabulate")
_SAMPLING_MODES = ("theorem1", "theorem2", "jterm_clt")
_ENUMERATION_MODES = ("theorem1", "theorem2", "identities")

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
        if self.mode in _SAMPLING_MODES and self.replicas < 2:
            raise InvalidParametersError(
                f"mode {self.mode} summarizes a sample and needs replicas >= 2"
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
            s = self.summary
            out.update(
                n_samples=s.n_samples,
                mean=s.mean,
                variance=s.variance,
                skewness=s.skewness,
                ks_distance=s.ks_distance,
                ks_pvalue=s.ks_pvalue,
                target_mean=s.target_mean,
                target_variance=s.target_variance,
            )
        if self.identities is not None:
            out["identities"] = self.identities
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
    variance = float(np.dot(centered, centered) / (n - 1))
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


def _a_exponent(params: ModelParams) -> Optional[float]:
    if params.p < 3:
        return None
    return limit_constants(params.beta, params.p).a_exponent


def _replica_tuple(config: ExperimentConfig, a_exp: Optional[float], idx: int):
    params = config.params
    seed = derive_seed(config.base_seed, idx)
    disorder = sample_disorder(params, seed)
    beta = params.beta
    if config.mode == "jterm_clt":
        return (idx, None, j_term(disorder, beta), None, None, None, None)
    if config.mode == "identities":
        f_n = free_energy(disorder, beta)
        moments = quenched_moments(disorder, beta)
    else:
        f_n, moments = free_energy_and_moments(disorder, beta)
    j_n = j_term(disorder, beta)
    half_p = params.N ** (params.p / 2.0)
    scaled_t1 = half_p * (f_n - beta * beta / 2.0)
    scaled_gap = half_p * (f_n - j_n)
    scaled_t2 = None if a_exp is None else params.N**a_exp * (f_n - j_n)
    row = (idx, f_n, j_n, moments.t_value, scaled_t1, scaled_gap, scaled_t2)
    if config.mode != "identities":
        return row
    scale3 = max(abs(moments.m3), moments.m2**1.5)
    res_h3 = abs(h3_representation(disorder) + moments.m3) / scale3
    res_m3 = abs(moments.m3) / moments.m2**1.5 if params.p % 2 else None
    a4 = params.a_n**4
    scale4 = (
        moments.m2**2 / 8.0 + abs(moments.m4) / 24.0 + a4 / 12.0 * moments.j4_sum
    )
    res_h4 = abs(moments.h4 - h4_direct(disorder)) / scale4
    return row + (res_h3, res_m3, res_h4)


def _chunk_rows(config: ExperimentConfig, a_exp: Optional[float], bounds) -> list:
    lo, hi = bounds
    return [_replica_tuple(config, a_exp, idx) for idx in range(lo, hi)]


def _csv_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _csv_line(row) -> str:
    cells = [str(row[0])] + [_csv_cell(v) for v in row[1:7]]
    return ",".join(cells)


def _sample_dict(row) -> dict:
    keys = ("replica", "f_n", "j_n", "t_n", "scaled_t1", "scaled_gap", "scaled_t2")
    return {k: (None if v is None else v) for k, v in zip(keys, row[:7])}


def _iter_rows(config: ExperimentConfig, a_exp: Optional[float], threads: int):
    m = config.replicas
    if threads == 1 or m < 2 * threads:
        for idx in range(m):
            yield _replica_tuple(config, a_exp, idx)
        return
    n_chunks = min(m, threads * 4)
    edges = np.linspace(0, m, n_chunks + 1).astype(int)
    bounds = [(int(edges[i]), int(edges[i + 1])) for i in range(n_chunks)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=threads) as pool:
        jobs = [(config, a_exp, b) for b in bounds]
        for rows in pool.imap(_chunk_rows_star, jobs):
            yield from rows


def _chunk_rows_star(args):
    return _chunk_rows(*args)


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _constants_payload(params: ModelParams) -> dict:
    beta = params.beta
    p = params.p
    payload = {
        "p": p,
        "beta": beta,
        "beta_p": beta_p(p),
        "clt_variance": clt_variance(beta, p),
        "mu": None,
        "sigma2": None,
        "a_exponent": None,
        "alpha_exponent": None,
    }
    if p >= 3:
        lim = limit_constants(beta, p)
        payload.update(
            mu=lim.mu,
            sigma2=lim.sigma2,
            a_exponent=lim.a_exponent,
            alpha_exponent=lim.alpha_exponent,
        )
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


def _tabulate_text(N: int, p: int) -> str:
    lines = ["m,f_exact,f_series,he_limit"]
    for m, f_exact, f_series, he_limit in tabulate_covariance(N, p):
        lines.append(f"{m!r},{f_exact!r},{f_series!r},{he_limit!r}")
    return "\n".join(lines) + "\n"


def _identity_report(config: ExperimentConfig, rows: list) -> dict:
    params = config.params
    worst = {"h3_enumeration": 0.0, "h4_decomposition": 0.0, "t1_gap_identity": 0.0}
    if params.p % 2:
        worst["m3_odd_zero"] = 0.0
    half_p = params.N ** (params.p / 2.0)
    target = params.beta * params.beta / 2.0
    for row in rows:
        _, _, j_n, _, t1, gap, _, res_h3, res_m3, res_h4 = row
        worst["h3_enumeration"] = max(worst["h3_enumeration"], res_h3)
        worst["h4_decomposition"] = max(worst["h4_decomposition"], res_h4)
        if res_m3 is not None:
            worst["m3_odd_zero"] = max(worst["m3_odd_zero"], res_m3)
        lhs = t1 - gap
        rhs = half_p * (j_n - target)
        res_gap = abs(lhs - rhs) / max(abs(t1), abs(gap), 1.0)
        worst["t1_gap_identity"] = max(worst["t1_gap_identity"], res_gap)
    if params.N <= BRUTE_PAIR_N:
        res_pair = 0.0
        for k in (1, 2, 3, 4):
            path_a, path_b = pair_moment_paths(params.N, params.p, k)
            if path_a != path_b:
                res_pair = max(res_pair, abs(float(path_a - path_b)))
        worst["pair_moment_paths"] = res_pair
    report = {}
    for name, residual in worst.items():
        tol = _IDENTITY_TOLERANCES[name]
        report[name] = {
            "max_residual": residual,
            "tolerance": tol,
            "pass": bool(residual <= tol),
        }
    return report


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
    mode = config.mode

    if mode == "constants":
        payload = _constants_payload(params)
        report = ExperimentReport(
            config=config,
            samples=[],
            summary=None,
            identities=None,
            constants=payload,
            supercritical=False,
            wallclock_seconds=time.perf_counter() - t0,
        )
        if config.output_path:
            _write_atomic(
                config.output_path,
                json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
            )
        return report

    if mode == "tabulate":
        text = _tabulate_text(params.N, params.p)
        if config.output_path:
            _write_atomic(config.output_path, text)
        report = ExperimentReport(
            config=config,
            samples=[],
            summary=None,
            identities=None,
            constants={"rows": len(text.splitlines()) - 1},
            supercritical=False,
            wallclock_seconds=time.perf_counter() - t0,
        )
        return report

    critical = beta_p(params.p) if params.p >= 3 else 1.0
    supercritical = params.beta >= critical
    if supercritical and not config.allow_supercritical:
        raise InvalidParametersError(
            f"beta={params.beta} is not below beta_p({params.p})={critical:.6f}; "
            f"pass allow_supercritical to run anyway"
        )
    if mode in _ENUMERATION_MODES and params.N > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"mode {mode} enumerates 2^N states and is capped at "
            f"N <= {ENUMERATION_BUDGET}; got N={params.N}"
        )
    if mode == "identities":
        check_pair_budget(params.N, params.p)

    a_exp = _a_exponent(params) if mode in ("theorem1", "theorem2") else None

    csv_fh = None
    if config.output_path and config.format == "csv" and mode in _SAMPLING_MODES:
        csv_fh = open(config.output_path, "w")
        csv_fh.write(CSV_HEADER + "\n")

    rows = []
    try:
        for row in _iter_rows(config, a_exp, threads):
            rows.append(row)
            if csv_fh is not None:
                csv_fh.write(_csv_line(row) + "\n")
    finally:
        if csv_fh is not None:
            csv_fh.close()

    samples = [FluctuationSample(*row[:7]) for row in rows]

    identities = None
    summary = None
    if mode == "identities":
        identities = _identity_report(config, rows)
    else:
        beta = params.beta
        if mode == "jterm_clt":
            half_p = params.N ** (params.p / 2.0)
            stat = [half_p * (s.j_n - beta * beta / 2.0) for s in samples]
            target_mean, target_var = 0.0, clt_variance(beta, params.p)
        elif mode == "theorem1":
            stat = [s.scaled_t1 for s in samples]
            target_mean, target_var = 0.0, clt_variance(beta, params.p)
        else:
            lim = limit_constants(beta, params.p)
            stat = [s.scaled_t2 for s in samples]
            target_mean, target_var = lim.mu, lim.sigma2
        summary = summarize(stat, target_mean, target_var)

    report = ExperimentReport(
        config=config,
        samples=samples,
        summary=summary,
        identities=identities,
        constants=None,
        supercritical=supercritical,
        wallclock_seconds=time.perf_counter() - t0,
    )

    if config.output_path:
        if mode in _SAMPLING_MODES and config.format == "json":
            doc = report.to_json_dict()
            doc["samples"] = [_sample_dict(row) for row in rows]
            _write_atomic(
                config.output_path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
        elif mode in _SAMPLING_MODES:
            _write_atomic(
                config.output_path + ".report.json",
                json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
            )
        else:
            _write_atomic(
                config.output_path,
                json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
            )
    return report
