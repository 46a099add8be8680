"""Per-layer figures from the spans of traced launches.

A span's self time is its duration minus the durations of its direct
children; the self times of one launch add up to its root spans, and the
rest of the timed CLI call (argument parsing, printing the report) is
reported as unaccounted.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict

THEORY = ("theory.beta_p", "theory.clt_variance", "theory.limit_constants")
TAIL_QUANTILES = (90.0, 99.0, 99.9)


def tail(values: list):
    """(q, value) for the highest quantile with at least 10 samples beyond it."""
    n = len(values)
    usable = [q for q in TAIL_QUANTILES if n * (1.0 - q / 100.0) >= 10.0]
    if not usable:
        return None
    q = usable[-1]
    ordered = sorted(values)
    return q, ordered[min(n - 1, math.ceil(q / 100.0 * n) - 1)]


class LaunchSpans:
    """Durations, self times and work of one traced launch, by span name."""

    def __init__(self, spans: list, replicas: int, parallel: bool, wall_s: float):
        self.replicas = replicas
        self.parallel = parallel
        self.wall_s = wall_s
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.work = defaultdict(list)
        self.root_s = 0.0
        for i, (name, start, end, parent, _, work) in enumerate(spans):
            self.durations[name].append(end - start)
            self.self_times[name].append(end - start - child[i])
            if work is not None:
                self.work[name].append(work)
            if parent < 0:
                self.root_s += end - start

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def harness_self_s(self) -> float:
        own = sum(self.self_times.get("harness.run_experiment", ()))
        if not self.parallel:
            own += sum(self.self_times.get("harness.rows", ()))
        return own

    def counts(self) -> dict:
        """Work counts, exact: couplings drawn per run, tables per replica."""
        tables = self.work.get("model.field_chunks", [])
        return {
            "multiindex.couplings": sum(self.work.get("multiindex.sample_disorder", ())),
            "model.transforms_per_replica": len(tables) / self.replicas,
            "model.transform_states": sum(tables) / self.replicas,
            "model.fwht_bytes_computed": sum(t * math.log2(t) * 16 for t in tables) / self.replicas,
            "momentlab.h3_hit_ratio": _h3_hit_ratio(self.work.get("momentlab.h3_representation", [])),
        }


def _h3_hit_ratio(shapes: list) -> float:
    """Pairs with |A xor B| = p over pairs scanned, over all traced h3 calls."""
    if not shapes:
        return 0.0
    import numpy as np

    from pspinlab import mask_table

    hits = scanned = 0
    for (N, p), calls in Counter(map(tuple, shapes)).items():
        masks = mask_table(N, p)
        sym = masks[:, None] ^ masks[None, :]
        hits += calls * int(np.count_nonzero(np.bitwise_count(sym) == p))
        scanned += calls * masks.size * masks.size
    return hits / scanned


def _pooled_p50(launches: list, name: str, self_time: bool = False) -> float:
    values = [v for ls in launches
              for v in (ls.self_times if self_time else ls.durations).get(name, ())]
    return statistics.median(values) * 1e3 if values else 0.0


def _median_per_launch(launches: list, fn) -> float:
    return statistics.median(fn(ls) for ls in launches) if launches else 0.0


def layer_metrics(reference: LaunchSpans, traced: list, rates: dict) -> dict:
    """The per-layer metrics of one traced session.

    ``reference`` is the traced single-process launch that supplies the
    exact work counts; ``traced`` are the timed traced launches at the
    workload's thread count; ``rates`` maps "untraced", "traced", 1 and 2
    (threads) to lists of replicas/s.
    """
    m = dict(reference.counts())
    m["multiindex.sample_ms"] = _pooled_p50(traced, "multiindex.sample_disorder")
    m["model.transform_ms"] = _median_per_launch(
        traced, lambda ls: ls.total("model.field_chunks") * 1e3 / ls.replicas)
    m["model.lse_ms"] = _pooled_p50(traced, "model.free_energy", self_time=True)
    m["model.j_term_ms"] = _pooled_p50(traced, "model.j_term")
    m["momentlab.moments_ms"] = _pooled_p50(traced, "momentlab.quenched_moments", self_time=True)
    m["momentlab.h3_ms"] = _pooled_p50(traced, "momentlab.h3_representation")
    m["momentlab.h4_ms"] = _pooled_p50(traced, "momentlab.h4_direct")
    m["momentlab.pair_paths_ms"] = _median_per_launch(
        traced, lambda ls: ls.total("momentlab.pair_moment_paths") * 1e3)
    m["theory.per_run_ms"] = _median_per_launch(
        traced, lambda ls: sum(ls.total(name) for name in THEORY) * 1e3)
    m["harness.self_ms_per_replica"] = _median_per_launch(
        traced, lambda ls: ls.harness_self_s() * 1e3 / ls.replicas)
    m["harness.summarize_ms"] = _pooled_p50(traced, "harness.summarize")
    m["harness.pool_wait_s"] = _median_per_launch(
        traced, lambda ls: ls.total("harness.rows") if ls.parallel else 0.0)
    m["harness.scaling_efficiency"] = statistics.median(rates[2]) / (2.0 * statistics.median(rates[1]))
    untraced = statistics.median(rates["untraced"])
    m["trace.overhead_pct"] = (untraced - statistics.median(rates["traced"])) / untraced * 100.0
    m["trace.unaccounted_pct"] = _median_per_launch(
        traced, lambda ls: (ls.wall_s - ls.root_s) / ls.wall_s * 100.0)
    return m


def self_time_table(traced: list) -> list:
    """Rows (name, calls, p50 ms, tail, self s, share of traced wall %)."""
    wall = sum(ls.wall_s for ls in traced)
    names = sorted({name for ls in traced for name in ls.durations})
    rows = []
    for name in names:
        durations = [d for ls in traced for d in ls.durations.get(name, ())]
        own = sum(s for ls in traced for s in ls.self_times.get(name, ()))
        rows.append((name, len(durations), statistics.median(durations) * 1e3,
                     tail([d * 1e3 for d in durations]), own, own / wall * 100.0))
    return rows
