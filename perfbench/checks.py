"""Output checks for one launch, run outside every timed region.

Two levels:

* :func:`digest` hashes a launch's artifacts (the CSV and its report, or
  the identities report), with the report's ``wallclock_seconds`` line cut
  out and everything else compared byte for byte.  A session takes the
  digest of its first fully checked launch as its reference; every later
  launch must match it, including launches at another ``--threads``.
* :func:`full_checks` validates the reference launch against public
  pspinlab functions: the report's config and summary, and a few sampled
  rows recomputed independently (``j_n`` by ``math.fsum``, ``f_n`` by an
  unfolded ``logsumexp`` over ``field_table(half=False)``, and a handful
  of table states by ``gaussian_field``).

Tolerances are fixed from float64 rounding, not fitted to observed errors.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

# Relative tolerance for j_n (two summation orders of ~binom(N,p) squares).
J_RTOL = 1e-12
# Absolute tolerance for f_n and single field values: an FWHT over 2^20
# entries and a log-sum-exp differ from the direct sums by ~1e-14.
F_ATOL = 1e-11
X_ATOL = 1e-11
# Summary statistics re-derived from the CSV column.
SUMMARY_RTOL = 1e-9
SUMMARY_ATOL = 1e-12

ROWS_CHECKED = 3
STATES_CHECKED = 4

_WALLCLOCK_LINE = re.compile(rb'^ *"wallclock_seconds": [^\n]*\n', re.MULTILINE)


def artifact_paths(mode: str, out: Path) -> list:
    if mode == "identities":
        return [out]
    return [out, out.with_name(out.name + ".report.json")]


def digest(paths: list) -> str:
    """sha256 over the artifacts, reports minus their wallclock line."""
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        if path.suffix == ".json":
            data, cut = _WALLCLOCK_LINE.subn(b"", data)
            if cut != 1:
                raise ValueError(f"{path.name}: expected one wallclock_seconds line, found {cut}")
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def full_checks(spec, base_seed: int, paths: list, rng: random.Random) -> list:
    """Problems found in one launch's artifacts; empty when all hold."""
    report = json.loads(paths[-1].read_text())
    cfg = report.get("config", {})
    want = {"mode": spec.mode, "n": spec.n, "p": spec.p, "beta": spec.beta,
            "replicas": spec.replicas, "base_seed": base_seed}
    problems = [f"report config {k}={cfg.get(k)!r}, expected {v!r}"
                for k, v in want.items() if cfg.get(k) != v]
    if spec.mode == "identities":
        failing = [k for k, v in report.get("identities", {}).items() if v.get("pass") is not True]
        if report.get("all_pass") is not True or failing or not report.get("identities"):
            problems.append(f"identities report not all_pass (failing: {failing})")
        return problems
    return problems + _check_rows(spec, base_seed, paths[0], report, rng)


def _check_rows(spec, base_seed: int, csv_path: Path, report: dict, rng: random.Random) -> list:
    from scipy.special import logsumexp

    from pspinlab import (
        CSV_HEADER,
        ModelParams,
        clt_variance,
        derive_seed,
        field_table,
        gaussian_field,
        sample_disorder,
        summarize,
    )

    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"CSV header {lines[:1]!r} is not {CSV_HEADER!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(i) for i in range(spec.replicas)]:
        return [f"CSV rows are not replicas 0..{spec.replicas - 1} in order"]
    problems = []

    column = {"theorem1": 4, "jterm_clt": 2}[spec.mode]
    values = [float(r[column]) for r in rows]
    beta, N, p = spec.beta, spec.n, spec.p
    if spec.mode == "jterm_clt":
        values = [N ** (p / 2.0) * (v - beta * beta / 2.0) for v in values]
    stats = summarize(values, 0.0, clt_variance(beta, p))
    for key in ("n_samples", "mean", "variance", "skewness", "ks_distance",
                "target_mean", "target_variance"):
        got, expected = report.get(key), getattr(stats, key)
        if got is None or not math.isclose(got, expected, rel_tol=SUMMARY_RTOL, abs_tol=SUMMARY_ATOL):
            problems.append(f"report {key}={got!r}, CSV gives {expected!r}")

    params = ModelParams(N=N, p=p, beta=beta)
    for idx in sorted(rng.sample(range(spec.replicas), min(ROWS_CHECKED, spec.replicas))):
        row = rows[idx]
        disorder = sample_disorder(params, derive_seed(base_seed, idx))
        j_ref = beta * beta * math.fsum(float(j) ** 2 for j in disorder.couplings) / (
            2.0 * params.n_couplings
        )
        if not math.isclose(float(row[2]), j_ref, rel_tol=J_RTOL):
            problems.append(f"row {idx}: j_n={row[2]}, fsum gives {j_ref!r}")
        if spec.mode == "jterm_clt":
            continue
        table = field_table(disorder, half=False)
        f_ref = (logsumexp(beta * math.sqrt(N) * table) - N * math.log(2.0)) / N
        if abs(float(row[1]) - f_ref) > F_ATOL:
            problems.append(f"row {idx}: f_n={row[1]}, unfolded logsumexp gives {f_ref!r}")
        for state in rng.sample(range(1 << N), STATES_CHECKED):
            x_ref = gaussian_field(state, disorder)
            if abs(float(table[state]) - x_ref) > X_ATOL:
                problems.append(f"row {idx}: table[{state}]={table[state]!r}, gaussian_field gives {x_ref!r}")
    return problems
