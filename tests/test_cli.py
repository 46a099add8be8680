"""Command-line interface: subcommands, exit codes, determinism."""

import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

from pspinlab import ModelParams, derive_seed, free_energy, harness, j_term, sample_disorder
from pspinlab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_schema(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "3", "--beta", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert {"beta_p", "clt_variance", "mu", "sigma2", "a_exponent"} <= set(doc)
    assert doc["beta_p"] == pytest.approx(1.0290096154, abs=1e-9)
    assert doc["clt_variance"] == pytest.approx(0.1875, rel=1e-13)
    assert doc["mu"] == pytest.approx(-0.09375, rel=1e-13)
    assert doc["sigma2"] == pytest.approx(1.072265625, rel=1e-12)
    assert doc["a_exponent"] == 2.0


def test_constants_every_p_finite(capsys):
    # one closed form per constant: no moment-engine cap below the p <= 64 limit
    for p in range(3, 65):
        code, out, err = run_cli(capsys, "constants", "--p", str(p), "--beta", "0.5")
        assert (code, err) == (0, ""), p
        doc = json.loads(out)
        assert doc["p"] == p
        for key in ("beta_p", "clt_variance", "mu", "sigma2", "a_exponent", "alpha_exponent"):
            assert math.isfinite(doc[key]), (p, key)
        assert doc["sigma2"] > 0.0, p
    code, out, err = run_cli(capsys, "constants", "--p", "3", "--beta", "1e80")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_constants_alias_prints_run_payload(capsys):
    code, out, _ = run_cli(capsys, "constants", "--n", "7", "--p", "4", "--beta", "0.3")
    assert code == 0
    code, run_out, _ = run_cli(
        capsys, "run", "--mode", "constants", "--n", "7", "--p", "4", "--beta", "0.3"
    )
    assert code == 0
    assert out == json.dumps(json.loads(run_out)["constants"], indent=2, sort_keys=True) + "\n"


def test_betap_subcommand(capsys):
    code, out, _ = run_cli(capsys, "betap", "--p", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 7
    assert doc["beta_p"] < doc["rem_limit"] == math.sqrt(2 * math.log(2))


def test_tabulate_stdout(capsys):
    code, out, _ = run_cli(capsys, "tabulate-covariance", "--n", "8", "--p", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,f_exact,f_series,he_limit"
    assert len(lines) == 10


def test_tabulate_out_file(capsys, tmp_path):
    path = tmp_path / "cov.csv"
    code, out, _ = run_cli(
        capsys, "tabulate-covariance", "--n", "6", "--p", "2", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines()[0] == "m,f_exact,f_series,he_limit"


def test_tabulate_alias_writes_run_bytes(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "tabulate-covariance", "--n", "9", "--p", "4", "--out", str(tmp_path / "a.csv")
    )
    assert code == 0 and out == ""
    code, _, _ = run_cli(
        capsys, "run", "--mode", "tabulate", "--n", "9", "--p", "4",
        "--out", str(tmp_path / "b.csv"),
    )
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_exact_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--n", "10", "--p", "3", "--beta", "0.4", "--seed", "9"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "n", "p", "beta", "seed", "f_n", "j_n", "t_n",
        "m2", "m3", "m4", "h4", "ln_deflated",
    }
    d = sample_disorder(ModelParams(N=10, p=3), 9)
    assert doc["f_n"] == free_energy(d, 0.4)
    assert doc["j_n"] == j_term(d, 0.4)
    assert doc["ln_deflated"] == pytest.approx(10 * (doc["f_n"] - doc["j_n"]), rel=1e-15)


def test_run_writes_csv_and_report(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    code, out, _ = run_cli(
        capsys, "run", "--mode", "theorem1", "--n", "10", "--p", "3",
        "--beta", "0.4", "--replicas", "16", "--seed", "5", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_samples"] == 16
    lines = out_path.read_text().splitlines()
    assert lines[0] == "replica,f_n,j_n,t_n,scaled_t1,scaled_gap,scaled_t2"
    assert len(lines) == 17
    report = json.loads((tmp_path / "run.csv.report.json").read_text())
    assert report["n_samples"] == 16


def test_run_budget_refusal_exit_2(capsys, tmp_path):
    # 2^40 states; then binom(N, p) couplings past the byte budget, refused
    # before the coupling vector or the mask table is allocated
    for argv, message in (
        (["run", "--mode", "theorem1", "--n", "40", "--p", "3", "--beta", "0.4",
          "--replicas", "4", "--out", str(tmp_path / "x.csv")], "enumeration budget"),
        (["exact", "--n", "64", "--p", "32"], "couplings"),
        (["run", "--mode", "jterm_clt", "--n", "60", "--p", "12"], "couplings"),
        (["run", "--mode", "theorem1", "--n", "30", "--p", "15"], "couplings"),
    ):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert peak < 16 * 2**20
    assert not (tmp_path / "x.csv").exists()


def test_run_supercritical_exit_1_then_override(capsys):
    args = [
        "run", "--mode", "jterm_clt", "--n", "20", "--p", "3",
        "--beta", "1.2", "--replicas", "4",
    ]
    code, _, err = run_cli(capsys, *args)
    assert code == 1
    assert "beta" in err
    code, out, _ = run_cli(capsys, *args, "--allow-supercritical")
    assert code == 0
    assert json.loads(out)["config"]["supercritical"]


def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["run", "--mode", "theorem1"]) == 1
    capsys.readouterr()
    assert main(["run", "--mode", "theorem1", "--n", "abc", "--p", "3"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_invalid_model_parameters_exit_1(capsys):
    # an explicit --n 0 is refused, not taken for a missing --n
    for argv, message in (
        (["run", "--mode", "theorem1", "--n", "4", "--p", "9", "--beta", "0.2",
          "--replicas", "2"], "N=4"),
        (["constants", "--n", "0", "--p", "3", "--beta", "0.5"], "N=0"),
        (["tabulate-covariance", "--n", "6", "--p", "1"], "p=1"),
        (["tabulate-covariance", "--n", "70", "--p", "3"], "N=70"),
        # a non-finite beta is refused; a huge one overflows beta**k
        (["exact", "--n", "10", "--p", "3", "--beta", "inf"], "beta=inf"),
        (["constants", "--p", "3", "--beta", "inf"], "beta=inf"),
        (["exact", "--n", "10", "--p", "3", "--beta", "1e80"], "overflow"),
        (["constants", "--p", "4", "--beta", "1e80"], "overflow"),
        (["run", "--mode", "jterm_clt", "--n", "12", "--p", "3", "--beta", "1e200",
          "--replicas", "4", "--allow-supercritical"], "overflow"),
        (["constants", "--p", "7", "--beta", "1e38"], "not finite"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_non_finite_result_writes_no_report(capsys, tmp_path):
    # the report file is refused with the printed result, not left holding
    # Infinity, and a replica run leaves no CSV of nan cells behind it
    for argv in (
        ["--mode", "constants", "--n", "7", "--p", "7", "--beta", "1e38",
         "--out", str(tmp_path / "c.json")],
        ["--mode", "theorem1", "--n", "8", "--p", "2", "--beta", "1e77",
         "--allow-supercritical", "--replicas", "4", "--out", str(tmp_path / "w.csv")],
    ):
        code, out, err = run_cli(capsys, "run", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "not finite" in err
        assert list(tmp_path.iterdir()) == []


def test_seed_outside_64_bits_exit_1(capsys, tmp_path, monkeypatch):
    # refused before any replica and any output, not masked to another seed
    def no_replica(*args):
        raise AssertionError("a replica ran before the seed check")

    monkeypatch.setattr(harness, "sample_disorder", no_replica)
    out_path = tmp_path / "x.csv"
    run = ["run", "--mode", "theorem1", "--n", "8", "--p", "3", "--beta", "0.3",
           "--replicas", "4", "--out", str(out_path)]
    for argv in (
        run + ["--seed", "-1"],
        run + ["--seed", "18446744073709551621"],
        ["exact", "--n", "8", "--p", "3", "--seed", "-1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: seed") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_exit_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--mode", "jterm_clt", "--n", "12", "--p", "3",
        "--beta", "0.3", "--replicas", "2",
        "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 1
    assert "error:" in err


def test_unwritable_out_refused_before_any_replica(capsys, tmp_path, monkeypatch):
    # a missing directory or a directory as --out is refused up front with
    # the user's path, in every mode that writes one, not after the run
    def no_work(*args):
        raise AssertionError("work ran before the output path check")

    monkeypatch.setattr(harness, "sample_disorder", no_work)
    monkeypatch.setattr(harness, "tabulate_text", no_work)
    missing = str(tmp_path / "missing" / "x")
    for argv in (
        ["run", "--mode", "identities", "--n", "14", "--p", "4", "--beta", "0.3",
         "--replicas", "30"],
        ["run", "--mode", "theorem1", "--n", "12", "--p", "3", "--beta", "0.3",
         "--replicas", "4", "--format", "json"],
        ["tabulate-covariance", "--n", "8", "--p", "3"],
    ):
        for out in (missing, str(tmp_path)):
            code, stdout, err = run_cli(capsys, *argv, "--out", out)
            assert code == 1 and stdout == ""
            assert err.startswith(f"error: cannot write {out!r}:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_out_fifo_refused_and_symlink_written_through(capsys, tmp_path, monkeypatch):
    # a rename over --out would replace a FIFO (or a device node) with a
    # regular file, and a symlink with a file beside its untouched target
    argv = ["run", "--mode", "jterm_clt", "--n", "8", "--p", "3", "--beta", "0.3",
            "--replicas", "4", "--out"]
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    os.symlink(target, link)
    code, stdout, err = run_cli(capsys, *argv, str(link))
    assert code == 0 and err == ""
    assert os.path.islink(link) and target.read_text().startswith(harness.CSV_HEADER)

    def no_replica(*args):
        raise AssertionError("a replica ran before the output path check")

    monkeypatch.setattr(harness, "sample_disorder", no_replica)
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    code, stdout, err = run_cli(capsys, *argv, fifo)
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: cannot write {fifo!r}:") and err.count("\n") == 1
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_unwritable_report_sidecar_refused_before_any_replica(capsys, tmp_path, monkeypatch):
    # the .report.json next to the CSV is checked up front, like the CSV itself
    def no_replica(*args):
        raise AssertionError("a replica ran before the output path check")

    monkeypatch.setattr(harness, "sample_disorder", no_replica)
    out = tmp_path / "x.csv"
    sidecar = tmp_path / "x.csv.report.json"
    sidecar.mkdir()
    code, stdout, err = run_cli(
        capsys, "run", "--mode", "theorem1", "--n", "10", "--p", "3", "--beta", "0.3",
        "--replicas", "6", "--out", str(out),
    )
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: cannot write {str(sidecar)!r}:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [sidecar] and list(sidecar.iterdir()) == []


def test_report_to_directory_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "reports"
    target.mkdir()
    code, _, err = run_cli(
        capsys, "run", "--mode", "identities", "--n", "6", "--p", "3",
        "--beta", "0.3", "--replicas", "2", "--out", str(target),
    )
    assert code == 1 and err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reports"]
    assert list(target.iterdir()) == []


def test_replica_count_beyond_row_budget_exit_2(capsys, tmp_path):
    # Without the row budget this run keeps rows until memory runs out, so
    # this test must not be run against code that lacks the check.
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "run", "--mode", "jterm_clt", "--n", "12", "--p", "3",
        "--beta", "0.3", "--replicas", "99999999999999999999", "--out", str(out_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "replicas" in err
    assert list(tmp_path.iterdir()) == []


def test_identities_subcommand_pass(capsys, tmp_path):
    out_path = tmp_path / "ids.json"
    code, out, _ = run_cli(
        capsys, "identities", "--n", "10", "--p", "3", "--beta", "0.5",
        "--replicas", "8", "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"]
    assert set(doc["identities"]) >= {"h3_enumeration", "h4_decomposition"}
    assert json.loads(out_path.read_text())["all_pass"]


def test_identities_alias_matches_run(capsys, tmp_path):
    def without_wallclock(text):
        doc = json.loads(text)
        doc.pop("wallclock_seconds")
        return doc

    args = ["--n", "9", "--p", "4", "--beta", "0.3", "--replicas", "6", "--seed", "11",
            "--threads", "2"]
    code, out, _ = run_cli(capsys, "identities", *args, "--out", str(tmp_path / "a.json"))
    assert code == 0
    code, run_out, _ = run_cli(
        capsys, "run", "--mode", "identities", *args, "--out", str(tmp_path / "b.json")
    )
    assert code == 0
    assert without_wallclock(out) == without_wallclock(run_out)
    assert without_wallclock((tmp_path / "a.json").read_text()) == without_wallclock(
        (tmp_path / "b.json").read_text()
    )


def test_identity_failure_exit_3(capsys, monkeypatch):
    import pspinlab.cli as cli_mod

    class FakeReport:
        def to_json_dict(self):
            return {
                "identities": {"h3_enumeration": {"pass": False}},
                "all_pass": False,
            }

    monkeypatch.setattr(cli_mod, "run_experiment", lambda cfg, threads=None: FakeReport())
    code, _, _ = run_cli(
        capsys, "identities", "--n", "10", "--p", "3", "--replicas", "2"
    )
    assert code == 3


def test_threads_env_default(capsys, tmp_path, monkeypatch):
    base = [
        "run", "--mode", "theorem1", "--n", "9", "--p", "3", "--beta", "0.4",
        "--replicas", "12", "--seed", "2",
    ]
    monkeypatch.delenv("PSPIN_THREADS", raising=False)
    code, _, _ = run_cli(capsys, *base, "--out", str(tmp_path / "a.csv"))
    assert code == 0
    monkeypatch.setenv("PSPIN_THREADS", "2")
    code, _, _ = run_cli(capsys, *base, "--out", str(tmp_path / "b.csv"))
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pspinlab.cli", "betap", "--p", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 4
    assert "RuntimeWarning" not in proc.stderr


def test_parser_subcommands_complete():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert set(sub.choices) == {
        "constants", "betap", "tabulate-covariance", "identities", "run", "exact",
    }


def test_jterm_cli_rerun_byte_identical(capsys, tmp_path):
    # the heavy determinism example: 10^5 replicas, run serial and on two workers
    args = [
        "run", "--mode", "jterm_clt", "--n", "50", "--p", "3", "--beta", "0.5",
        "--replicas", "100000", "--seed", "7",
    ]
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a.csv"))
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b.csv"), "--threads", "2")
    assert code == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a.startswith(b"replica,f_n,j_n,t_n,scaled_t1,scaled_gap,scaled_t2\n")
    assert a.count(b"\n") == 100001
