"""Command-line front end.

Exit codes: 0 success, 1 invalid parameters or a numerical overflow,
2 resource-limit refusal, 3 identity-check failure.  Diagnostics go to
standard error; results to standard output or to --out files.
PSPIN_THREADS provides the default for --threads.  ``constants``,
``identities`` and ``tabulate-covariance --out`` are shorthands for
``run --mode constants|identities|tabulate``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import IdentityCheckError, PspinError, ResourceLimitError
from .harness import MODES, ExperimentConfig, finite_json, run_experiment, tabulate_text
from .model import j_term
from .momentlab import free_energy_and_moments
from .multiindex import ModelParams, sample_disorder
from .theory import REM_BETA, beta_p

__all__ = ["main", "build_parser"]

# `run` settings for the flags constants and tabulate-covariance lack; they draw
# no replicas, so they take one thread and leave PSPIN_THREADS unread.
_RUN_DEFAULTS = {"replicas": 1, "seed": 0, "threads": 1, "format": "csv",
                 "allow_supercritical": False}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pspinlab",
        description="p-spin mean-field lab: exact enumeration, limit "
        "constants, and disorder-replica Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, beta=False, sampling=False):
        sp.add_argument("--p", type=int, required=True, help="interaction order")
        if beta:
            sp.add_argument("--beta", type=float, default=0.0, help="inverse temperature")
        if sampling:
            sp.add_argument("--replicas", type=int, default=100, help="disorder replicas")
            sp.add_argument("--seed", type=int, default=0, help="base seed")
            sp.add_argument("--out", help="output file path")
            sp.add_argument("--threads", type=int, default=None)

    sp = sub.add_parser("constants", help="limit constants for (p, beta)")
    sp.add_argument("--n", type=int, help="number of spins (default: p)")
    common(sp, beta=True)
    sp.set_defaults(mode="constants", out=None, **_RUN_DEFAULTS)

    sp = sub.add_parser("betap", help="critical temperature beta_p")
    common(sp)

    sp = sub.add_parser("tabulate-covariance", help="overlap-covariance table")
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.add_argument("--out", help="write CSV here instead of stdout")
    sp.set_defaults(mode="tabulate", beta=0.0, **_RUN_DEFAULTS)

    sp = sub.add_parser("identities", help="per-replica combinatorial identity checks")
    sp.add_argument("--n", type=int, required=True)
    common(sp, beta=True, sampling=True)
    sp.set_defaults(mode="identities", format="csv", allow_supercritical=False)

    sp = sub.add_parser("run", help="disorder-replica experiment")
    sp.add_argument("--n", type=int, required=True)
    common(sp, beta=True, sampling=True)
    sp.add_argument("--mode", required=True, choices=MODES)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--allow-supercritical", action="store_true")

    sp = sub.add_parser("exact", help="single-disorder F_N, J_N, T_N dump")
    sp.add_argument("--n", type=int, required=True)
    common(sp, beta=True)
    sp.add_argument("--seed", type=int, default=0)

    return parser


def _emit(payload: dict) -> None:
    print(finite_json(payload))


def _run(args):
    config = ExperimentConfig(
        params=ModelParams(N=args.n, p=args.p, beta=args.beta),
        replicas=args.replicas,
        base_seed=args.seed,
        mode=args.mode,
        output_path=args.out,
        format=args.format,
        allow_supercritical=args.allow_supercritical,
    )
    return run_experiment(config, threads=args.threads)


def _cmd_constants(args) -> int:
    if args.n is None:
        args.n = args.p
    _emit(_run(args).constants)
    return 0


def _cmd_betap(args) -> int:
    _emit({"p": args.p, "beta_p": beta_p(args.p), "rem_limit": REM_BETA})
    return 0


def _cmd_tabulate(args) -> int:
    if args.out:
        _run(args)
    else:
        params = ModelParams(N=args.n, p=args.p)
        sys.stdout.write(tabulate_text(params.N, params.p))
    return 0


def _cmd_run(args) -> int:
    doc = _run(args).to_json_dict()
    _emit(doc)
    return 0 if doc.get("all_pass", True) else 3


def _cmd_exact(args) -> int:
    params = ModelParams(N=args.n, p=args.p, beta=args.beta)
    disorder = sample_disorder(params, args.seed)
    f_n, moments = free_energy_and_moments(disorder, args.beta, half=False)
    j_n = j_term(disorder, args.beta)
    _emit(
        {
            "n": args.n,
            "p": args.p,
            "beta": args.beta,
            "seed": args.seed,
            "f_n": f_n,
            "j_n": j_n,
            "t_n": moments.t_value,
            "m2": moments.m2,
            "m3": moments.m3,
            "m4": moments.m4,
            "h4": moments.h4,
            "ln_deflated": params.N * (f_n - j_n),
        }
    )
    return 0


_DISPATCH = {
    "constants": _cmd_constants,
    "betap": _cmd_betap,
    "tabulate-covariance": _cmd_tabulate,
    "identities": _cmd_run,
    "run": _cmd_run,
    "exact": _cmd_exact,
}


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; that slot is reserved for
        # resource-limit refusals here, so remap to invalid-parameters.
        return 0 if exc.code in (0, None) else 1
    try:
        return _DISPATCH[args.command](args)
    except (PspinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ResourceLimitError):
            return 2
        return 3 if isinstance(exc, IdentityCheckError) else 1


if __name__ == "__main__":
    sys.exit(main())
