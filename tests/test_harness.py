"""Experiment harness: summaries, artifacts, determinism, invariants."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.random import Philox

from pspinlab import (
    CSV_HEADER,
    DataError,
    ExperimentConfig,
    InvalidParametersError,
    ModelParams,
    ResourceLimitError,
    derive_seed,
    free_energy,
    j_term,
    limit_constants,
    run_experiment,
    sample_disorder,
    summarize,
    tabulate_covariance,
)
from pspinlab import errors, harness, momentlab
from pspinlab.cli import main
from pspinlab.harness import _resolve_threads
from pspinlab.model import check_enumeration_budget, field_chunks
from pspinlab.multiindex import check_coupling_budget, check_seed


def config(N, p, beta, mode, replicas, seed=0, **kw):
    return ExperimentConfig(
        params=ModelParams(N=N, p=p, beta=beta),
        replicas=replicas,
        base_seed=seed,
        mode=mode,
        **kw,
    )


def report_dict_without_timing(report):
    doc = report.to_json_dict()
    doc.pop("wallclock_seconds")
    return doc


def test_summarize_constant_samples():
    s = summarize([2.5] * 50, 0.0, 1.0)
    assert s.ks_distance >= 0.5
    assert s.variance == 0.0
    assert s.skewness == 0.0
    assert s.mean == 2.5


def test_summarize_two_point_set():
    s = summarize([-1.0, 1.0], 0.0, 1.0)
    assert s.mean == 0.0
    assert s.variance == 2.0
    assert s.n_samples == 2


def test_summarize_normal_deviates():
    rng = np.random.Generator(Philox(12345))
    s = summarize(rng.standard_normal(10_000), 0.0, 1.0)
    assert s.ks_pvalue > 0.001
    assert abs(s.mean) < 0.05
    assert abs(s.variance - 1.0) < 0.05


def test_summarize_detects_wrong_target():
    rng = np.random.Generator(Philox(99))
    s = summarize(rng.standard_normal(10_000) + 1.0, 0.0, 1.0)
    assert s.ks_pvalue < 1e-6


def test_summarize_validation():
    with pytest.raises(InvalidParametersError):
        summarize([1.0], 0.0, 1.0)
    with pytest.raises(InvalidParametersError):
        summarize([1.0, 2.0], 0.0, 0.0)
    with pytest.raises(InvalidParametersError):
        summarize([1.0, 2.0], 0.0, -2.0)


def test_summarize_bounds():
    s = summarize([0.1, -0.4, 1.2, 0.8, -2.0], 0.0, 4.0)
    assert 0.0 <= s.ks_distance <= 1.0
    assert 0.0 <= s.ks_pvalue <= 1.0
    assert s.variance >= 0.0


def test_summarize_independent_of_blas_threads():
    # 10^5 samples: long enough that a BLAS dot would split its sum
    code = (
        "import numpy as np\n"
        "from pspinlab import summarize\n"
        "x = np.random.default_rng(5).standard_normal(100000)\n"
        "print(repr(summarize(x, 0.0, 1.0)))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_config_validation():
    with pytest.raises(InvalidParametersError):
        config(10, 3, 0.4, "nonsense", 10)
    with pytest.raises(InvalidParametersError):
        config(10, 3, 0.4, "theorem1", 0)
    with pytest.raises(InvalidParametersError):
        config(10, 3, 0.4, "theorem1", 10, format="xml")


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("PSPIN_THREADS", raising=False)
    assert _resolve_threads(None) == 1
    assert _resolve_threads(4) == 4
    monkeypatch.setenv("PSPIN_THREADS", "3")
    assert _resolve_threads(None) == 3
    assert _resolve_threads(2) == 2
    with pytest.raises(InvalidParametersError):
        _resolve_threads(0)


def test_fractional_and_bool_counts_refused():
    # a float or a bool once passed the >= 1 test and failed deep inside numpy
    mc = momentlab.first_moment_mc
    for call in (lambda: _resolve_threads(2.5), lambda: _resolve_threads(True),
                 lambda: mc(8, 3, 0.3, replicas=1, base_seed=1, sigma_samples=2.5),
                 lambda: mc(8, 3, 0.3, replicas=1.5, base_seed=1),
                 lambda: momentlab.j_mgf_mc(8, 3, 0.3, 0.5, replicas=2.5, base_seed=1)):
        with pytest.raises(InvalidParametersError, match="must be an integer >= 1"):
            call()


def test_non_integer_threads_env_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("PSPIN_THREADS", "abc")
    with pytest.raises(InvalidParametersError):
        _resolve_threads(None)
    assert main(["run", "--mode", "constants", "--n", "3", "--p", "3", "--beta", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "PSPIN_THREADS" in err
    # the constants shorthand has no --threads and draws no replicas: it reads no PSPIN_THREADS
    assert main(["constants", "--p", "3", "--beta", "0.5"]) == 0


def test_single_replica_sampling_rejected_before_any_replica(monkeypatch, capsys, tmp_path):
    drawn = []
    monkeypatch.setattr(harness, "sample_disorder", lambda *a: drawn.append(a))
    # (mode, p, beta, replicas, expected message); theorem2's constants need
    # p >= 3, and at beta = 0 (run's default) every target variance is 0
    modes = ("theorem1", "theorem2", "jterm_clt")
    cases = [(mode, 3, "0.4", 1, "replicas >= 2") for mode in modes]
    cases.append(("theorem2", 2, "0.4", 40, "p >= 3"))
    cases += [(mode, 3, "0", 20, "positive variance") for mode in modes]
    for mode, p, beta, replicas, message in cases:
        with pytest.raises(InvalidParametersError):
            run_experiment(config(10, p, float(beta), mode, replicas))
        out = tmp_path / f"{mode}-p{p}-b{beta}.csv"
        argv = ["run", "--mode", mode, "--n", "10", "--p", str(p), "--beta", beta,
                "--replicas", str(replicas), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()
    assert drawn == []
    config(10, 3, 0.4, "identities", 1)


def test_replica_seed_derivation():
    # replica idx gets the disorder of derive_seed(base_seed, idx)
    beta = 0.4
    report = run_experiment(config(10, 3, beta, "theorem1", 3, seed=41))
    params = ModelParams(N=10, p=3, beta=beta)
    for idx in range(3):
        d = sample_disorder(params, derive_seed(41, idx))
        assert report.samples[idx].f_n == free_energy(d, beta)
        assert report.samples[idx].j_n == j_term(d, beta)


def test_per_sample_t1_gap_identity():
    beta = 0.4
    report = run_experiment(config(12, 3, beta, "theorem1", 64, seed=8))
    half_p = 12.0 ** (3 / 2.0)
    for s in report.samples:
        lhs = s.scaled_t1 - s.scaled_gap
        rhs = half_p * (s.j_n - beta * beta / 2.0)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(s.scaled_t1), abs(s.scaled_gap), 1.0)


def test_jterm_mode_skips_enumeration(tmp_path):
    out = tmp_path / "j.csv"
    report = run_experiment(
        config(50, 3, 0.5, "jterm_clt", 40, seed=3, output_path=str(out))
    )
    for s in report.samples:
        assert s.f_n is None and s.t_n is None and s.scaled_t2 is None
        assert math.isfinite(s.j_n)
    assert report.summary.target_mean == 0.0
    assert report.summary.target_variance == 0.5**4 * 6 / 2.0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "replica,f_n,j_n,t_n,scaled_t1,scaled_gap,scaled_t2"
    assert len(lines) == 41
    assert lines[1].startswith("0,,")
    assert lines[1].count(",") == 6


def test_csv_values_roundtrip(tmp_path):
    out = tmp_path / "t1.csv"
    report = run_experiment(
        config(10, 3, 0.4, "theorem1", 12, seed=5, output_path=str(out))
    )
    lines = out.read_text().splitlines()[1:]
    for s, line in zip(report.samples, lines):
        cells = line.split(",")
        assert int(cells[0]) == s.replica_index
        assert float(cells[1]) == s.f_n
        assert float(cells[2]) == s.j_n
        assert float(cells[3]) == s.t_n
        assert float(cells[4]) == s.scaled_t1
        assert float(cells[5]) == s.scaled_gap
        assert float(cells[6]) == s.scaled_t2


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = config(10, 3, 0.4, "theorem1", 40, seed=12, output_path=str(tmp_path / "a.csv"))
    cfg_b = config(10, 3, 0.4, "theorem1", 40, seed=12, output_path=str(tmp_path / "b.csv"))
    ra = run_experiment(cfg_a)
    rb = run_experiment(cfg_b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    da, db = report_dict_without_timing(ra), report_dict_without_timing(rb)
    da["config"].pop("output_path", None), db["config"].pop("output_path", None)
    assert da == db


def test_thread_count_invariance(tmp_path):
    outs = {}
    reports = {}
    for threads in (1, 2, 8):
        path = tmp_path / f"t{threads}.csv"
        cfg = config(10, 3, 0.45, "theorem1", 64, seed=9, output_path=str(path))
        reports[threads] = report_dict_without_timing(run_experiment(cfg, threads=threads))
        reports[threads]["config"].pop("output_path", None)
        outs[threads] = path.read_bytes()
    assert outs[1] == outs[2] == outs[8]
    assert reports[1] == reports[2] == reports[8]


def test_json_format_embeds_samples(tmp_path):
    out = tmp_path / "run.json"
    report = run_experiment(
        config(12, 3, 0.3, "theorem2", 8, seed=2, output_path=str(out), format="json")
    )
    doc = json.loads(out.read_text())
    assert len(doc["samples"]) == 8
    first = doc["samples"][0]
    assert set(first) == {"replica", "f_n", "j_n", "t_n", "scaled_t1", "scaled_gap", "scaled_t2"}
    assert first["f_n"] == report.samples[0].f_n
    assert first["scaled_t2"] == report.samples[0].scaled_t2
    assert doc["config"]["mode"] == "theorem2"


def test_report_json_schema(tmp_path):
    out = tmp_path / "run.csv"
    run_experiment(config(10, 3, 0.4, "theorem1", 16, seed=1, output_path=str(out)))
    doc = json.loads((tmp_path / "run.csv.report.json").read_text())
    assert set(doc) == {
        "config",
        "n_samples",
        "mean",
        "variance",
        "skewness",
        "ks_distance",
        "ks_pvalue",
        "target_mean",
        "target_variance",
        "wallclock_seconds",
    }
    assert doc["n_samples"] == 16
    assert doc["variance"] >= 0.0
    assert 0.0 <= doc["ks_pvalue"] <= 1.0


def test_supercritical_guard_and_override():
    cfg = config(10, 3, 1.2, "theorem1", 4)
    with pytest.raises(InvalidParametersError):
        run_experiment(cfg)
    report = run_experiment(config(10, 3, 1.2, "theorem1", 4, allow_supercritical=True))
    assert report.supercritical
    assert not run_experiment(config(10, 3, 0.5, "theorem1", 4)).supercritical


def test_enumeration_budget():
    with pytest.raises(ResourceLimitError):
        run_experiment(config(40, 3, 0.4, "theorem1", 2))
    with pytest.raises(ResourceLimitError):
        run_experiment(config(31, 3, 0.4, "identities", 2))


def test_enumeration_pass_coupling_budget():
    # binom(30, 10) = 3.0e7 couplings fit the sampling budget, not an
    # enumeration pass, which holds more per coupling
    check_coupling_budget(30, 10)
    check_enumeration_budget(ModelParams(N=30, p=9))
    with pytest.raises(ResourceLimitError, match="enumeration budget"):
        check_enumeration_budget(ModelParams(N=30, p=10))
    with pytest.raises(ResourceLimitError, match="enumeration budget"):
        run_experiment(config(30, 10, 0.4, "theorem1", 2))


def test_identities_pair_budget_before_first_replica(monkeypatch, capsys):
    def no_replica(*args):
        raise AssertionError("a replica ran before the pair budget check")

    monkeypatch.setattr(harness, "sample_disorder", no_replica)
    with pytest.raises(ResourceLimitError):
        run_experiment(config(22, 6, 0.4, "identities", 2))
    # n^2 = 5.6e9 pairs at (22, 6); a table of 2^28 doubles, 2 GiB, at (28, 2)
    for n, p in (("22", "6"), ("28", "2")):
        code = main(["identities", "--n", n, "--p", p, "--replicas", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: pair plan") and err.count("\n") == 1


def test_identities_pair_budget_counts_one_table_per_worker(monkeypatch, capsys):
    # a 2^27-entry table is 1 GiB; two forked workers each fill one
    def no_replica(*args):
        raise AssertionError("a replica ran before the pair budget check")

    monkeypatch.setattr(harness, "sample_disorder", no_replica)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    momentlab.check_pair_budget(27, 2)
    code = main(["identities", "--n", "27", "--p", "2", "--replicas", "4", "--threads", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: pair plan") and err.count("\n") == 1


def test_coupling_and_pass_budgets_count_one_process_per_worker(monkeypatch, capsys):
    # each forked worker draws its own couplings and runs its own pass:
    # 1.69 GiB of couplings at (45, 7), 1.28 GiB of pass at (30, 9), per worker
    class Sampled(Exception):
        pass

    def no_replica(*args):
        raise Sampled

    monkeypatch.setattr(harness, "sample_disorder", no_replica)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    check_coupling_budget(45, 7)
    check_enumeration_budget(ModelParams(N=30, p=9))
    for mode, n, p, what in (("jterm_clt", "45", "7", "couplings"),
                             ("theorem1", "30", "9", "enumeration budget")):
        argv = ["run", "--mode", mode, "--n", n, "--p", p, "--beta", "0.3", "--replicas", "4"]
        code = main(argv + ["--threads", "2"])
        err = capsys.readouterr().err
        assert code == 2 and what in err
        assert err.startswith("error: ") and err.count("\n") == 1
        with pytest.raises(Sampled):
            main(argv + ["--threads", "1"])


def test_identities_pair_plan_built_in_parent():
    # forked workers share the parent's plan instead of each building one
    momentlab.pair_plan.cache_clear()
    run_experiment(config(9, 4, 0.3, "identities", 6, seed=4), threads=2)
    assert momentlab.pair_plan.cache_info().currsize == 1
    momentlab.pair_plan.cache_clear()


def count_forks(monkeypatch) -> list:
    """The pids the parent forks from now on: a wrapper around harness.os.fork."""
    fork, forked = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:  # in the parent only
            forked.append(pid)
        return pid

    monkeypatch.setattr(harness.os, "fork", counting_fork)
    return forked


def test_pool_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    serial = run_experiment(config(9, 3, 0.4, "theorem1", 40, seed=3), threads=1)
    forked = count_forks(monkeypatch)
    capped = run_experiment(config(9, 3, 0.4, "theorem1", 40, seed=3), threads=10**6)
    assert len(forked) == 2  # and the parent: three workers
    assert capped.samples == serial.samples and capped.summary == serial.summary


def test_short_run_forks_nothing_and_no_run_leaves_a_child(monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    forked = count_forks(monkeypatch)
    run_experiment(config(9, 3, 0.4, "theorem1", 3, seed=3), threads=2)
    assert forked == []  # 3 replicas < 2 per worker: one worker, the parent
    for mode, replicas in (("theorem1", 3), ("theorem1", 12), ("jterm_clt", 40),
                           ("identities", 8)):
        run_experiment(config(9, 3, 0.4, mode, replicas, seed=3), threads=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forked) == 3


def test_more_workers_than_cores_claim_every_chunk_once(monkeypatch):
    # eight workers on this machine's cores: a chunk lost or claimed twice
    # would change the merged samples
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)))
    serial = run_experiment(config(7, 3, 0.4, "theorem1", 205, seed=8), threads=1)
    forked = count_forks(monkeypatch)
    parallel = run_experiment(config(7, 3, 0.4, "theorem1", 205, seed=8), threads=8)
    assert len(forked) == 7
    assert parallel.samples == serial.samples and parallel.summary == serial.summary


def test_child_exception_keeps_type_and_message(monkeypatch, capsys, tmp_path):
    # serially replica 7 raises; on two workers the child raises at its first
    # replica and the slow parent leaves it chunks to claim.  ``threads`` and
    # ``raised`` are the loop variables below
    parent, row = os.getpid(), harness._row

    class Unpicklable(Exception):  # a local class: pickle cannot find it by name
        pass

    def failing_row(cfg, idx):
        if os.getpid() != parent or (threads == 1 and idx == 7):
            raise raised
        if threads == 2:
            time.sleep(0.1)
        return row(cfg, idx)

    monkeypatch.setattr(harness, "_row", failing_row)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "run.csv"
    argv = ["run", "--mode", "theorem1", "--n", "9", "--p", "3", "--beta", "0.4",
            "--replicas", "12", "--out", str(out)]
    for raised, want in ((DataError("corrupt replica"), "error: corrupt replica\n"),
                         (Unpicklable("no pickle"), "error: a replica worker raised "
                                                    "Unpicklable('no pickle')\n")):
        results = []
        for threads in (1, 2):
            if threads == 1 and isinstance(raised, Unpicklable):
                continue  # the serial run lets it through unchanged
            results.append((main(argv + ["--threads", str(threads)]), capsys.readouterr().err))
            assert not list(tmp_path.iterdir())
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert results == [(1, want)] * len(results)


def test_killed_worker_fails_the_run_instead_of_hanging(tmp_path):
    # every replica a child runs kills it; the slow parent leaves it chunks to claim
    code = (
        "import os, signal, sys, time\n"
        "from pspinlab import harness\n"
        "from pspinlab.cli import main\n"
        "parent, row = os.getpid(), harness._row\n"
        "def dying_row(cfg, idx):\n"
        "    if os.getpid() != parent:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    time.sleep(0.1)\n"
        "    return row(cfg, idx)\n"
        "harness._row = dying_row\n"
        "harness.os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = tmp_path / "run.csv"
    argv = ["run", "--mode", "theorem1", "--n", "10", "--p", "3", "--beta", "0.4",
            "--replicas", "12", "--threads", "2", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=20)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: replica worker ") and proc.stderr.count("\n") == 1
    assert "signal 9" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_non_integer_arguments_refused_before_any_disorder(monkeypatch):
    d = sample_disorder(ModelParams(N=8, p=3), 1)

    def no_draw(*args):
        raise AssertionError("a disorder was drawn")

    monkeypatch.setattr(harness, "sample_disorder", no_draw)
    with pytest.raises(InvalidParametersError):
        check_seed(2.5)
    for replicas, seed in ((2.5, 0), (4, 2.5)):
        with pytest.raises(InvalidParametersError):
            run_experiment(config(8, 3, 0.4, "theorem1", replicas, seed=seed))
    with pytest.raises(InvalidParametersError):
        next(field_chunks(d, chunk_bits=-1))


def test_theorem1_runs_past_the_moment_engine_cap():
    # scaled_t2 takes A_N from its closed form: N^{p-1} at odd p, N^{3p/4-1/2} at
    # even p, here both N^16; theorem2 takes its E[He_p^4] and E[He_p^3] from
    # factorials, past the degree-64 cap of the moment engine (68 and 66 here)
    for N, p in ((18, 17), (23, 22)):
        report = run_experiment(config(N, p, 0.4, "theorem1", 2, seed=5))
        for s in report.samples:
            assert s.scaled_t2 == pytest.approx(N**16.0 * (s.f_n - s.j_n), rel=1e-12, abs=0)
        report = run_experiment(config(N, p, 0.4, "theorem2", 2, seed=5))
        target = limit_constants(0.4, p)
        assert (report.summary.target_mean, report.summary.target_variance) == (target.mu, target.sigma2)
        assert math.isfinite(target.sigma2) and target.sigma2 > 0.0


def test_identities_mode_report():
    report = run_experiment(config(10, 3, 0.5, "identities", 25, seed=6))
    ids = report.identities
    assert set(ids) == {
        "h3_enumeration",
        "m3_odd_zero",
        "h4_decomposition",
        "t1_gap_identity",
        "pair_moment_paths",
    }
    for entry in ids.values():
        assert entry["max_residual"] <= entry["tolerance"]
        assert entry["pass"]
    assert report.to_json_dict()["all_pass"]


def real_h3_nan_h4(disorder):
    return momentlab.pair_sums(disorder)[0], math.nan


def test_identity_gate_fails_on_nan(monkeypatch):
    monkeypatch.setattr(harness, "pair_sums", real_h3_nan_h4)
    report = run_experiment(config(9, 4, 0.5, "identities", 3, seed=2))
    entry = report.identities["h4_decomposition"]
    assert math.isnan(entry["max_residual"]) and not entry["pass"]
    assert not report.to_json_dict()["all_pass"]
    argv = ["run", "--mode", "identities", "--n", "9", "--p", "4", "--beta", "0.5",
            "--replicas", "3", "--seed", "2"]
    assert main(argv) == 3


def test_nan_identity_residual_written_as_null(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(harness, "pair_sums", real_h3_nan_h4)
    out = tmp_path / "ids.json"
    argv = ["run", "--mode", "identities", "--n", "9", "--p", "4", "--beta", "0.5",
            "--replicas", "3", "--seed", "2", "--out", str(out)]
    assert main(argv) == 3

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    for text in (capsys.readouterr().out, out.read_text()):
        doc = json.loads(text, parse_constant=reject)
        entry = doc["identities"]["h4_decomposition"]
        assert entry["max_residual"] is None and entry["pass"] is False
        assert doc["all_pass"] is False


def test_identities_mode_even_p(tmp_path):
    out = tmp_path / "ids.json"
    report = run_experiment(
        config(9, 4, 0.5, "identities", 10, seed=7, output_path=str(out))
    )
    assert "m3_odd_zero" not in report.identities
    doc = json.loads(out.read_text())
    assert doc["all_pass"]


def test_theorem2_proxy_tracks_deflated_partition():
    # the Taylor proxy T approximates the deflated partition function to
    # within 10% of its own deviation from 1 for nearly all replicas; the
    # proportion is only this high at small beta (the agreement degrades
    # to ~50% by beta = 0.3 at desk-scale N since the neglected
    # beta^6-order statistic decays slowly in N)
    beta, M = 0.05, 200
    for N in (16, 20):
        report = run_experiment(config(N, 3, beta, "theorem2", M, seed=14))
        good = 0
        for s in report.samples:
            ln_deflated = N * (s.f_n - s.j_n)
            if abs(ln_deflated - math.log(s.t_n)) <= 0.1 * abs(s.t_n - 1.0):
                good += 1
        assert good >= 0.95 * M


def test_scaled_gap_shrinks_with_n():
    # fluctuations of N^{p/2}(F - J) decrease on the N-ladder
    beta, M = 0.4, 500
    stds = {}
    for N in (14, 18):
        report = run_experiment(config(N, 3, beta, "theorem1", M, seed=20260815))
        gaps = np.array([s.scaled_gap for s in report.samples])
        stds[N] = float(gaps.std(ddof=1))
        assert abs(float(gaps.mean())) <= 5.0 * stds[N] / math.sqrt(M)
    assert stds[18] < stds[14]


def test_constants_mode_payload():
    report = run_experiment(config(4, 3, 0.5, "constants", 1))
    c = report.constants
    assert c["beta_p"] == pytest.approx(1.0290096154, abs=1e-9)
    assert c["clt_variance"] == pytest.approx(0.5**4 * 6 / 2.0, rel=1e-14)
    assert c["mu"] == pytest.approx(-(0.5**4) * 6 / 4.0, rel=1e-14)
    assert c["sigma2"] == pytest.approx(1.072265625, rel=1e-12)
    assert c["a_exponent"] == 2.0
    assert c["alpha_exponent"] == 1.0


def test_constants_mode_p2():
    report = run_experiment(config(4, 2, 0.5, "constants", 1))
    c = report.constants
    assert c["beta_p"] == 1.0
    assert c["mu"] is None and c["sigma2"] is None and c["a_exponent"] is None


def test_tabulate_mode(tmp_path):
    out = tmp_path / "cov.csv"
    report = run_experiment(
        config(8, 3, 0.0, "tabulate", 1, output_path=str(out))
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "m,f_exact,f_series,he_limit"
    assert len(lines) == 10
    assert report.constants["rows"] == 9
    rows = tabulate_covariance(8, 3)
    assert len(rows) == 9
    # endpoints are exact: f(m=-1) = (-1)^p, f(m=1) = 1
    assert rows[0][0] == -1.0 and rows[0][1] == -1.0
    assert rows[-1][0] == 1.0 and rows[-1][1] == 1.0
    parsed = [float(v) for v in lines[1].split(",")]
    assert parsed[0] == rows[0][0] and parsed[1] == rows[0][1]


def test_unwritable_output_path(tmp_path):
    cfg = config(
        10, 3, 0.4, "theorem1", 4, output_path=str(tmp_path / "no" / "dir" / "x.csv")
    )
    with pytest.raises(OSError):
        run_experiment(cfg)


def test_write_atomic_removes_its_temp_file(tmp_path, monkeypatch):
    # a failed rename leaves neither the target nor the per-process temp file
    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(errors.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        errors.write_atomic(str(tmp_path / "r.json"), ["{}\n"])
    assert list(tmp_path.iterdir()) == []
