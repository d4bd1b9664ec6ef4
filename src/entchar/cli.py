"""Command-line entry point for simulation, characterization and model comparison.

Subcommands::

    entchar simulate     --state two-param --p 0.4 --sigma 0.4 --shots 400 --seed 7 --out rec.json
    entchar characterize --record rec.json --prior two-param --grid 600x600 --out result.json
    entchar compare      --record rec.json --out result.json
    entchar prior-hist   --prior bell-diag --samples 1000000 --seed 1 --bins 100 --out hist.json

All randomness flows from the single --seed value; result documents echo
their configuration so a run can be replayed bit-exactly.  argparse parses
the flags and the library judges their values, so an out-of-range value, like
a flag that the chosen --state or --prior does not take, is a config error (exit 1).
"""

import argparse
import dataclasses
import json
import re
import sys
import time

from . import __version__, criteria, families, linalg, measurement, posterior
from .errors import ConfigError, EntcharError


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors (2 is for data errors)
    and reads every negative float spelling, such as -1e5 or -inf, as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1e5, -inf and -nan for option names.
        # Every negative float spelling starts with '-' and then a digit,
        # '.digit', 'inf' or 'nan'; subparsers are built by this class too.
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str):
    try:
        n_p, n_sigma = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"grid must look like 600x600, got {text!r}") from None
    return n_p, n_sigma


#: Each --state and --prior choice: its flags in the builder's argument order,
#: with defaults (None: required), and a builder that looks its families
#: function up at call time, so that a replaced one is used.
_STATES = {
    "two-param": ({"p": None, "sigma": None}, lambda p, sigma: families.two_param_state(p, sigma)),
    "rho-k": ({"k": None}, lambda k: families.rho_k_state(k)),
    "rho1": ({}, lambda: families.reference_mixture("rho1")),
    "rho2": ({}, lambda: families.reference_mixture("rho2")),
}
_PRIORS = {
    "two-param": ({"grid": "600x600"},
                  lambda grid: families.grid_prior_two_param(*_parse_grid(grid))),
    "bell-diag": ({"samples": 100_000, "seed": 0},
                  lambda samples, seed: families.simplex_prior_bell_diagonal(samples, seed)),
}


def _choose(table, option, args):
    """The object that --option chose from table, and its flag values.

    A required flag not given, and a flag given that belongs only to another
    choice, are both ConfigErrors; a flag not given takes its default.
    """
    choice = getattr(args, option)
    flags, build = table[choice]
    required = [f for f, default in flags.items() if default is None]
    if any(getattr(args, f) is None for f in required):
        raise ConfigError(f"--{option} {choice} requires " + " and ".join(f"--{f}" for f in required))
    others = dict.fromkeys(f for other, _ in table.values() for f in other if f not in flags)
    foreign = [f"--{f}" for f in others if getattr(args, f) is not None]
    if foreign:
        raise ConfigError(f"--{option} {choice} does not take " + " or ".join(foreign))
    values = {f: default if getattr(args, f) is None else getattr(args, f)
              for f, default in flags.items()}
    return build(*values.values()), values


def _write_result(path, config, started, summary=None, histogram=None, comparison=None):
    doc = {
        "config": config,
        "summary": summary,
        "histogram": histogram,
        "comparison": comparison,
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
    }
    text = json.dumps(doc, indent=2)  # before the file opens, so a failure leaves none
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_histogram(args, values, started, hist: posterior.Histogram, summary=None, **extra):
    """Write a histogram to --out as --format asks: a csv table or a result
    document, whose config is the command, its ``extra`` keys, the prior and
    its flag ``values``, the bins and the format."""
    if args.format == "doc":
        config = {"command": args.command, **extra, "prior": args.prior, **values,
                  "bins": args.bins, "format": args.format}
        histogram = {"bin_edges": [float(x) for x in hist.bin_edges],
                     "bin_mass": [float(x) for x in hist.bin_mass],
                     "separable_mass": hist.separable_mass}
        _write_result(args.out, config, started, summary=summary, histogram=histogram)
        return
    lines = [f"# separable_mass={float(hist.separable_mass)!r}", "bin_low,bin_high,mass"]
    for lo, hi, mass in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.bin_mass):
        lines.append(f"{float(lo)!r},{float(hi)!r},{float(mass)!r}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    rho, values = _choose(_STATES, "state", args)
    label = " ".join([args.state] + [f"{f}={v}" for f, v in values.items()])
    rec = measurement.simulate_record(rho, args.shots, args.seed, label=label)
    measurement.save_record(rec, args.out)
    print(f"N_m = {rec.n_total}")
    for (a, b), row in zip(rec.settings, rec.counts):
        print(f"  setting ({a},{b}): {list(int(c) for c in row)}")
    return 0


def cmd_characterize(args) -> int:
    started = time.monotonic()
    rec = measurement.load_record(args.record)
    ts, values = _choose(_PRIORS, "prior", args)
    post = posterior.update_posterior(ts, rec)
    summary, hist, rho_bar = posterior.readouts(ts, post, args.bins)
    mean = {"negativity": linalg.negativity(rho_bar), "purity": linalg.purity(rho_bar)}
    summary_doc = {**dataclasses.asdict(summary), "mean_state": mean}
    _write_histogram(args, values, started, hist, summary=summary_doc, record=str(args.record))
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
    _write_result(args.out, config, started, comparison=dataclasses.asdict(report))
    print(
        f"delta_omega = {report.delta_omega:.3f}  delta_omega' = {report.delta_omega_primed:.3f}  "
        f"winners: AIC={report.winner_aic} BIC={report.winner_bic}"
    )
    return 0


def cmd_prior_hist(args) -> int:
    started = time.monotonic()
    ts, values = _choose(_PRIORS, "prior", args)
    hist = posterior.histogram_negativity(ts, ts.prior_weights, args.bins)
    _write_histogram(args, values, started, hist)
    print(f"separable_mass = {hist.separable_mass:.4f} over {ts.n_states} states")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="entchar", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a finite measurement record")
    sim.add_argument("--state", required=True, choices=list(_STATES))
    for flag in dict.fromkeys(f for flags, _ in _STATES.values() for f in flags):
        sim.add_argument(f"--{flag}", type=float)
    sim.add_argument("--shots", type=int, required=True, help="shots per setting")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    def add_prior_args(p, default_bins):
        p.add_argument("--prior", required=True, choices=list(_PRIORS))
        p.add_argument("--grid", help="NxM grid for the two-param prior")
        p.add_argument("--samples", type=int, help="sample count for the bell-diag prior")
        p.add_argument("--seed", type=int, help="seed for the bell-diag prior")
        p.add_argument("--bins", type=int, default=default_bins)
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
