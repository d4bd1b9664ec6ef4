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
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from . import __version__, criteria, families, linalg, measurement, posterior
from .errors import ConfigError, EntcharError


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
        raise ConfigError(f"grid must look like 600x600, got {text!r}") from None
    return n_p, n_sigma


#: Each state `simulate` can draw from: the flags it takes, in the order of
#: the builder's arguments and of the record label, and the builder.
_STATES = {
    "two-param": (("p", "sigma"), families.two_param_state),
    "rho-k": (("k",), families.rho_k_state),
    "rho1": ((), functools.partial(families.reference_mixture, "rho1")),
    "rho2": ((), functools.partial(families.reference_mixture, "rho2")),
}
_STATE_FLAGS = tuple(dict.fromkeys(f for flags, _ in _STATES.values() for f in flags))


def _build_state(args):
    """The state chosen by --state and its record label.

    A flag the state takes but was not given, and a flag given that the
    state does not take, are both ConfigErrors.
    """
    if args.state not in _STATES:
        raise ConfigError(f"unknown state family {args.state!r}")
    flags, build = _STATES[args.state]
    if any(getattr(args, f) is None for f in flags):
        raise ConfigError(f"--state {args.state} requires " + " and ".join(f"--{f}" for f in flags))
    foreign = [f"--{f}" for f in _STATE_FLAGS if f not in flags and getattr(args, f) is not None]
    if foreign:
        raise ConfigError(f"--state {args.state} does not take " + " or ".join(foreign))
    values = [getattr(args, f) for f in flags]
    label = " ".join([args.state] + [f"{f}={v}" for f, v in zip(flags, values)])
    return build(*values), label


def _build_prior(args):
    """The prior test set and the config fields that reproduce it."""
    if args.prior == "two-param":
        n_p, n_sigma = _parse_grid(args.grid)
        return families.grid_prior_two_param(n_p, n_sigma), {"prior": args.prior, "grid": args.grid}
    if args.prior == "bell-diag":
        ts = families.simplex_prior_bell_diagonal(args.samples, args.seed)
        return ts, {"prior": args.prior, "samples": args.samples, "seed": args.seed}
    raise ConfigError(f"unknown prior {args.prior!r}")


def _histogram_dict(hist: posterior.Histogram) -> dict:
    return {
        "bin_edges": [float(x) for x in hist.bin_edges],
        "bin_mass": [float(x) for x in hist.bin_mass],
        "separable_mass": hist.separable_mass,
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
    ts, prior_config = _build_prior(args)
    post = posterior.update_posterior(ts, rec)
    summary = posterior.summarize(ts, post)
    hist = posterior.histogram_negativity(ts, post.weights, args.bins)
    rho_bar = posterior.mean_state(ts, post)
    config = {
        "command": "characterize",
        "record": str(args.record),
        **prior_config,
        "bins": args.bins,
        "format": args.format,
    }
    summary_doc = {
        **dataclasses.asdict(summary),
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
    _write_result(args.out, config, comparison=dataclasses.asdict(report), started=started)
    print(
        f"delta_omega = {report.delta_omega:.3f}  delta_omega' = {report.delta_omega_primed:.3f}  "
        f"winners: AIC={report.winner_aic} BIC={report.winner_bic}"
    )
    return 0


def cmd_prior_hist(args) -> int:
    started = time.monotonic()
    ts, prior_config = _build_prior(args)
    hist = posterior.histogram_negativity(ts, ts.prior_weights, args.bins)
    config = {
        "command": "prior-hist",
        **prior_config,
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
    sim.add_argument("--state", required=True, choices=list(_STATES))
    for flag in _STATE_FLAGS:
        sim.add_argument(f"--{flag}", type=float)
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
    except ConfigError as exc:
        print(f"entchar: config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array's size and shape.
        print(f"entchar: config error: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    except EntcharError as exc:
        print(f"entchar: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"entchar: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
