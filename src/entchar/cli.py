"""Command-line entry point for simulation, characterization and model comparison.

Subcommands::

    entchar simulate     --state two-param --p 0.4 --sigma 0.4 --shots 400 --seed 7 --out rec.json
    entchar characterize --record rec.json --prior two-param --grid 600x600 --out result.json
    entchar compare      --record rec.json --out result.json
    entchar prior-hist   --prior bell-diag --samples 1000000 --seed 1 --bins 100 --out hist.json

All randomness flows from the single --seed value; result documents echo
their configuration so a run can be replayed bit-exactly.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, criteria, families, linalg, measurement, posterior
from .errors import (
    AllStatesExcludedError,
    EmptySettingError,
    EntcharError,
    IndexOutOfRangeError,
    InvalidCountError,
    InvalidGridSizeError,
    InvalidSimplexPointError,
    MissingSettingError,
    OutOfDomainError,
    ParseFailureError,
    UnknownStateFamilyError,
)

_CONFIG_ERRORS = (
    OutOfDomainError,
    UnknownStateFamilyError,
    InvalidGridSizeError,
    InvalidCountError,
    IndexOutOfRangeError,
    InvalidSimplexPointError,
)
_DATA_ERRORS = (
    ParseFailureError,
    MissingSettingError,
    EmptySettingError,
    AllStatesExcludedError,
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors (2 is for data errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: float = np.inf):
    """argparse type: an int in [low, high], so bad values end as usage errors (exit 1)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not low <= value <= high:
            bound = f">= {low}" if high == np.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_non_negative_int = _int_in(0)
_positive_int = _int_in(1)
# Shots per setting, bounded so that the five settings' total fits in int64.
_shots = _int_in(0, np.iinfo(np.int64).max // len(measurement.DEFAULT_SETTINGS))


def _parse_grid(text: str):
    try:
        n_p, n_sigma = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise InvalidGridSizeError(f"grid must look like 600x600, got {text!r}") from None
    return n_p, n_sigma


def _build_state(args):
    family = args.state
    if family == "two-param":
        if args.p is None or args.sigma is None:
            raise OutOfDomainError("--state two-param requires --p and --sigma")
        return families.two_param_state(args.p, args.sigma), f"two-param p={args.p} sigma={args.sigma}"
    if family == "rho-k":
        if args.k is None:
            raise OutOfDomainError("--state rho-k requires --k")
        return families.rho_k_state(args.k), f"rho-k k={args.k}"
    if family in ("rho1", "rho2"):
        return families.reference_mixture(family), family
    raise UnknownStateFamilyError(f"unknown state family {family!r}")


def _build_prior(args) -> families.TestSet:
    if args.prior == "two-param":
        n_p, n_sigma = _parse_grid(args.grid)
        return families.grid_prior_two_param(n_p, n_sigma)
    if args.prior == "bell-diag":
        return families.simplex_prior_bell_diagonal(args.samples, args.seed)
    raise UnknownStateFamilyError(f"unknown prior {args.prior!r}")


def _prior_config(args) -> dict:
    cfg = {"prior": args.prior}
    if args.prior == "two-param":
        cfg["grid"] = args.grid
    else:
        cfg["samples"] = args.samples
        cfg["seed"] = args.seed
    return cfg


def _histogram_dict(hist: posterior.Histogram) -> dict:
    return {
        "bin_edges": [float(x) for x in hist.bin_edges],
        "bin_mass": [float(x) for x in hist.bin_mass],
        "separable_mass": hist.separable_mass,
    }


def _comparison_dict(report: criteria.ComparisonReport) -> dict:
    return {
        "scores": {
            name: {
                "log_l": s.log_l,
                "k": s.k,
                "omega_aic": s.omega_aic,
                "omega_bic": s.omega_bic,
                "n_m": s.n_m,
            }
            for name, s in report.scores.items()
        },
        "delta_omega": report.delta_omega,
        "delta_omega_bd": report.delta_omega_bd,
        "delta_omega_primed": report.delta_omega_primed,
        "delta_omega_bd_primed": report.delta_omega_bd_primed,
        "winner_aic": report.winner_aic,
        "winner_bic": report.winner_bic,
        "closed_form": report.closed_form,
    }


def _write_result(path, config, summary=None, histogram=None, comparison=None, started=None):
    doc = {
        "config": config,
        "summary": summary,
        "histogram": histogram,
        "comparison": comparison,
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6) if started is not None else None,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def _write_histogram_csv(path, hist: posterior.Histogram):
    lines = [f"# separable_mass={float(hist.separable_mass)!r}", "bin_low,bin_high,mass"]
    for lo, hi, mass in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.bin_mass):
        lines.append(f"{float(lo)!r},{float(hi)!r},{float(mass)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    rho, label = _build_state(args)
    rec = measurement.simulate_record(rho, args.shots, args.seed, label=label)
    measurement.save_record(rec, args.out)
    print(f"N_m = {rec.n_total}")
    for (a, b), row in zip(rec.settings, rec.counts):
        print(f"  setting ({a},{b}): {list(int(c) for c in row)}")
    return 0


def cmd_characterize(args) -> int:
    started = time.monotonic()
    rec = measurement.load_record(args.record)
    ts = _build_prior(args)
    post = posterior.update_posterior(ts, rec)
    summary = posterior.summarize(ts, post)
    hist = posterior.histogram_negativity(ts, post.weights, args.bins)
    rho_bar = posterior.mean_state(ts, post)
    config = {
        "command": "characterize",
        "record": str(args.record),
        **_prior_config(args),
        "bins": args.bins,
        "format": args.format,
    }
    summary_doc = {
        "prob_entangled": summary.prob_entangled,
        "neg_mean": summary.neg_mean,
        "neg_std": summary.neg_std,
        "pur_mean": summary.pur_mean,
        "pur_std": summary.pur_std,
        "mean_state": {
            "negativity": linalg.negativity(rho_bar),
            "purity": linalg.purity(rho_bar),
        },
    }
    if args.format == "csv":
        _write_histogram_csv(args.out, hist)
    else:
        _write_result(args.out, config, summary=summary_doc,
                      histogram=_histogram_dict(hist), started=started)
    print(
        f"prob_entangled = {summary.prob_entangled:.4f}  "
        f"N = {summary.neg_mean:.4f} +/- {summary.neg_std:.4f}  "
        f"P = {summary.pur_mean:.4f} +/- {summary.pur_std:.4f}"
    )
    return 0


def cmd_compare(args) -> int:
    started = time.monotonic()
    rec = measurement.load_record(args.record)
    report = criteria.compare(rec)
    config = {"command": "compare", "record": str(args.record)}
    _write_result(args.out, config, comparison=_comparison_dict(report), started=started)
    print(
        f"delta_omega = {report.delta_omega:.3f}  delta_omega' = {report.delta_omega_primed:.3f}  "
        f"winners: AIC={report.winner_aic} BIC={report.winner_bic}"
    )
    return 0


def cmd_prior_hist(args) -> int:
    started = time.monotonic()
    ts = _build_prior(args)
    hist = posterior.histogram_negativity(ts, ts.prior_weights, args.bins)
    config = {
        "command": "prior-hist",
        **_prior_config(args),
        "bins": args.bins,
        "format": args.format,
    }
    if args.format == "csv":
        _write_histogram_csv(args.out, hist)
    else:
        _write_result(args.out, config, histogram=_histogram_dict(hist), started=started)
    print(f"separable_mass = {hist.separable_mass:.4f} over {ts.n_states} states")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="entchar", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a finite measurement record")
    sim.add_argument("--state", required=True, choices=["two-param", "rho-k", "rho1", "rho2"])
    sim.add_argument("--p", type=float)
    sim.add_argument("--sigma", type=float)
    sim.add_argument("--k", type=float)
    sim.add_argument("--shots", type=_shots, required=True, help="shots per setting")
    sim.add_argument("--seed", type=_non_negative_int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    def add_prior_args(p, default_bins):
        p.add_argument("--prior", required=True, choices=["two-param", "bell-diag"])
        p.add_argument("--grid", default="600x600", help="NxM grid for the two-param prior")
        p.add_argument("--samples", type=_positive_int, default=100_000,
                       help="sample count for the bell-diag prior")
        p.add_argument("--seed", type=_non_negative_int, default=0,
                       help="seed for the bell-diag prior")
        p.add_argument("--bins", type=_positive_int, default=default_bins)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=["doc", "csv"], default="doc")

    cha = sub.add_parser("characterize", help="Bayesian update of a prior on a record")
    cha.add_argument("--record", required=True)
    add_prior_args(cha, default_bins=50)
    cha.set_defaults(func=cmd_characterize)

    cmp_ = sub.add_parser("compare", help="AIC/BIC model comparison on a record")
    cmp_.add_argument("--record", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.set_defaults(func=cmd_compare)

    pri = sub.add_parser("prior-hist", help="negativity histogram of a prior")
    add_prior_args(pri, default_bins=100)
    pri.set_defaults(func=cmd_prior_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"entchar: config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array's size and shape.
        print(f"entchar: config error: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"entchar: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"entchar: i/o error: {exc}", file=sys.stderr)
        return 2
    except EntcharError as exc:
        print(f"entchar: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
