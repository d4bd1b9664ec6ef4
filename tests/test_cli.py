import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entchar import cli, families
from entchar._blas import THREAD_VARIABLES
from entchar.errors import ConfigError, DataError, EntcharError


def run(argv):
    return cli.main(argv)


@pytest.fixture
def record_path(tmp_path):
    path = tmp_path / "rec.json"
    assert run(["simulate", "--state", "two-param", "--p", "0.4", "--sigma", "0.4",
                "--shots", "200", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestSimulate:
    def test_output_schema(self, record_path):
        doc = json.loads(record_path.read_text())
        assert set(doc) == {"settings", "meta"}
        assert len(doc["settings"]) == 5
        assert [(s["a"], s["b"]) for s in doc["settings"]] == [
            (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)
        ]
        for s in doc["settings"]:
            assert sum(s["counts"]) == 200
        assert doc["meta"]["seed"] == 7

    def test_replay_is_byte_identical(self, tmp_path, record_path):
        other = tmp_path / "rec2.json"
        run(["simulate", "--state", "two-param", "--p", "0.4", "--sigma", "0.4",
             "--shots", "200", "--seed", "7", "--out", str(other)])
        assert other.read_bytes() == record_path.read_bytes()

    def test_seed_changes_record(self, tmp_path, record_path):
        other = tmp_path / "rec3.json"
        run(["simulate", "--state", "two-param", "--p", "0.4", "--sigma", "0.4",
             "--shots", "200", "--seed", "8", "--out", str(other)])
        assert other.read_bytes() != record_path.read_bytes()

    def test_rho_k_out_of_domain(self, tmp_path):
        code = run(["simulate", "--state", "rho-k", "--k", "1.5", "--shots", "10",
                    "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_missing_required_parameter(self, tmp_path):
        code = run(["simulate", "--state", "two-param", "--shots", "10",
                    "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_usage_error(self):
        assert run(["simulate", "--bogus"]) == 1

    @pytest.mark.parametrize("state,flags", [
        ("rho1", ["--p", "7", "--k", "-3"]),
        ("rho2", ["--sigma", "0.4"]),
        ("two-param", ["--p", "0.4", "--sigma", "0.4", "--k", "0.5"]),
        ("two-param", ["--p", "0.4"]),
        ("rho-k", ["--k", "0.7", "--p", "0.4"]),
        ("rho-k", []),
    ])
    def test_flags_must_match_the_state(self, tmp_path, capsys, state, flags):
        out = tmp_path / "x.json"
        code = run(["simulate", "--state", state, *flags, "--shots", "5", "--seed", "0",
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"entchar: config error: --state {state} ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["characterize", "prior-hist"])
    @pytest.mark.parametrize("prior,flags", [
        ("two-param", ["--samples", "7"]),
        ("two-param", ["--seed", "3"]),
        ("two-param", ["--grid", "9x9", "--samples", "7", "--seed", "3"]),
        ("bell-diag", ["--grid", "9x9"]),
        ("bell-diag", ["--samples", "7", "--seed", "3", "--grid", "9x9"]),
    ])
    def test_flags_must_match_the_prior(self, tmp_path, capsys, record_path, command, prior,
                                        flags):
        out = tmp_path / "x.json"
        record = ["--record", str(record_path)] if command == "characterize" else []
        code = run([command, *record, "--prior", prior, *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"entchar: config error: --prior {prior} does not take --")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("state,flags,label", [
        ("two-param", ["--p", "0.4", "--sigma", "0.4"], "two-param p=0.4 sigma=0.4"),
        ("rho-k", ["--k", "0.7"], "rho-k k=0.7"),
        ("rho1", [], "rho1"),
    ])
    def test_record_label(self, tmp_path, state, flags, label):
        out = tmp_path / "x.json"
        assert run(["simulate", "--state", state, *flags, "--shots", "5", "--seed", "0",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["label"] == label

    @pytest.mark.parametrize("flag,value,message", [
        ("--shots", "-5", "shots per setting must be an integer >= 0, got -5"),
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ], ids=["--shots--5", "--seed--1"])
    def test_negative_shots_or_seed(self, tmp_path, capsys, flag, value, message):
        # argparse parses the integer; the library's check_int judges its range.
        argv = {"--shots": "10", "--seed": "0", flag: value}
        out = tmp_path / "x.json"
        code = run(["simulate", "--state", "rho1", "--out", str(out),
                    *[x for kv in argv.items() for x in kv]])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"entchar: config error: {message}\n" and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_is_config_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "x.json"
        code = run(["simulate", "--state", "two-param", "--p", "0.4", f"--sigma={sigma}",
                    "--shots", "10", "--seed", "0", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("entchar: config error: sigma must be")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--p", "-1e5", "p must be in [0, 1], got -100000.0"),
         ("--p", "-nan", "p must be in [0, 1], got nan"),
         ("--sigma", "-inf", "sigma must be finite, got -inf"),
         ("--sigma", "-1E-3", "sigma must be >= 0, got -0.001"),
         ("--sigma", "-Infinity", "sigma must be finite, got -inf")],
        ids=["p-1e5", "p-nan", "sigma-inf", "sigma-1E-3", "sigma-Infinity"],
    )
    def test_negative_float_spellings_are_values(self, tmp_path, capsys, flag, value, message):
        # Spelt as a separate word, not --flag=value: each reaches the domain check.
        values = {"--p": "0.4", "--sigma": "0.4", flag: value}
        out = tmp_path / "x.json"
        code = run(["simulate", "--state", "two-param", *[x for kv in values.items() for x in kv],
                    "--shots", "10", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"entchar: config error: {message}\n"
        assert not out.exists()

    def test_subnormal_sigma_is_the_noiseless_limit(self, tmp_path):
        tiny, zero = tmp_path / "tiny.json", tmp_path / "zero.json"
        for sigma, out in (("1e-320", tiny), ("0", zero)):
            assert run(["simulate", "--state", "two-param", "--p", "0.4", "--sigma", sigma,
                        "--shots", "50", "--seed", "3", "--out", str(out)]) == 0
        assert json.loads(tiny.read_text())["settings"] == json.loads(zero.read_text())["settings"]


class TestCharacterize:
    def test_replay_does_not_depend_on_blas_threads(self, tmp_path):
        # A BLAS dot product splits its sum across threads, so a moment
        # computed by one would change in its last bit with the thread count.
        # Unset is entchar's own one-thread load; the two-param prior also
        # loads scipy.special.
        rec = tmp_path / "rec.json"
        assert run(["simulate", "--state", "rho1", "--shots", "1000", "--seed", "7",
                    "--out", str(rec)]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        unset = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        for prior in (["bell-diag", "--samples", "20000", "--seed", "1"],
                      ["two-param", "--grid", "40x40"]):
            docs = []
            for threads in (None, "1", "2"):
                out = tmp_path / f"res-{prior[0]}-{threads}.json"
                env = {**unset,
                       "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
                if threads is not None:
                    env["OPENBLAS_NUM_THREADS"] = threads
                subprocess.run([sys.executable, "-m", "entchar.cli", "characterize", "--record",
                                str(rec), "--prior", *prior, "--out", str(out)],
                               env=env, check=True, capture_output=True)
                doc = json.loads(out.read_text())
                doc.pop("duration_s")
                docs.append(doc)
            assert docs[0] == docs[1] == docs[2], prior[0]

    def test_result_document(self, tmp_path, record_path):
        out = tmp_path / "res.json"
        code = run(["characterize", "--record", str(record_path), "--prior", "two-param",
                    "--grid", "40x40", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "summary", "histogram", "comparison", "version",
                            "duration_s"}
        assert doc["config"]["grid"] == "40x40"
        summary = doc["summary"]
        assert 0.0 <= summary["prob_entangled"] <= 1.0
        assert summary["neg_std"] >= 0.0
        assert 0.25 <= summary["pur_mean"] <= 1.0
        assert set(summary["mean_state"]) == {"negativity", "purity"}
        hist = doc["histogram"]
        assert len(hist["bin_edges"]) == 51
        total = sum(hist["bin_mass"]) + hist["separable_mass"]
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_replay_identical_except_duration(self, tmp_path, record_path):
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(["characterize", "--record", str(record_path), "--prior", "two-param",
                 "--grid", "30x30", "--out", str(out)])
            doc = json.loads(out.read_text())
            doc.pop("duration_s")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_bell_diag_prior(self, tmp_path, record_path):
        out = tmp_path / "bd.json"
        code = run(["characterize", "--record", str(record_path), "--prior", "bell-diag",
                    "--samples", "2000", "--seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["samples"] == 2000
        assert doc["config"]["seed"] == 5

    def test_csv_histogram(self, tmp_path, record_path):
        out = tmp_path / "hist.csv"
        run(["characterize", "--record", str(record_path), "--prior", "two-param",
             "--grid", "30x30", "--bins", "20", "--format", "csv", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# separable_mass=")
        assert lines[1] == "bin_low,bin_high,mass"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 20
        sep = float(lines[0].split("=")[1])
        assert sep + sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_bad_grid(self, tmp_path, record_path):
        code = run(["characterize", "--record", str(record_path), "--prior", "two-param",
                    "--grid", "banana", "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_negative_prior_seed(self, tmp_path, record_path):
        code = run(["characterize", "--record", str(record_path), "--prior", "bell-diag",
                    "--samples", "100", "--seed", "-1", "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_zero_bins(self, tmp_path, record_path, capsys):
        out = tmp_path / "x.json"
        code = run(["characterize", "--record", str(record_path), "--prior", "two-param",
                    "--grid", "10x10", "--bins", "0", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "entchar: config error: bin count must be an integer >= 1, got 0\n"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("count", [3.7, 10**30], ids=["fractional", "past_int64"])
    def test_bad_count_is_data_error(self, tmp_path, count):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "settings": [{"a": a, "b": b, "counts": [count, 5, 5, 5]}
                         for a, b in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]],
            "meta": {},
        }))
        code = run(["compare", "--record", str(bad), "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize("rows", [
        [[5, 5, 5]] + [[5, 5, 5, 5]] * 4,
        [[2**63, 5, 5, 5]] + [[5, 5, 5, 5]] * 4,
    ], ids=["rows_of_3_and_4", "one_count_past_int64"])
    @pytest.mark.parametrize("command", ["characterize", "compare"])
    def test_malformed_rows_are_data_errors(self, tmp_path, capsys, rows, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "settings": [{"a": a, "b": b, "counts": row}
                         for (a, b), row in zip([(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)], rows)],
        }))
        argv = [command, "--record", str(bad), "--out", str(tmp_path / "x.json")]
        if command == "characterize":
            argv += ["--prior", "two-param", "--grid", "10x10"]
        assert run(argv) == 2
        assert "entchar: data error:" in capsys.readouterr().err

    def test_corrupt_record(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code = run(["characterize", "--record", str(bad), "--prior", "two-param",
                    "--grid", "30x30", "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize("command", ["characterize", "compare"])
    def test_record_not_utf8(self, tmp_path, command):
        # JSON text is UTF-8; a UTF-16 byte-order mark is a data error, not a traceback.
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe\x00{" + "}".encode("utf-16-le"))
        argv = [command, "--record", str(bad), "--out", str(tmp_path / "x.json")]
        if command == "characterize":
            argv += ["--prior", "two-param", "--grid", "30x30"]
        assert run(argv) == 2

    def test_deeply_nested_record(self, tmp_path):
        # Past the JSON decoder's recursion limit: a data error, not a traceback.
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        assert run(["compare", "--record", str(bad), "--out", str(tmp_path / "x.json")]) == 2

    def test_missing_record_file(self, tmp_path):
        code = run(["characterize", "--record", str(tmp_path / "nope.json"),
                    "--prior", "two-param", "--grid", "30x30",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_four_setting_record(self, tmp_path):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({
            "settings": [
                {"a": a, "b": b, "counts": [5, 5, 5, 5]}
                for a, b in [(1, 1), (1, 2), (2, 1), (2, 2)]
            ],
            "meta": {},
        }))
        code = run(["characterize", "--record", str(bad), "--prior", "two-param",
                    "--grid", "30x30", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_prior_builder_is_looked_up_when_called(self, tmp_path, record_path, monkeypatch):
        # A replaced families builder is used, with the table's default grid.
        build, calls = families.grid_prior_two_param, []

        def small_grid(n_p, n_sigma):
            calls.append((n_p, n_sigma))
            return build(3, 4)

        monkeypatch.setattr(families, "grid_prior_two_param", small_grid)
        out = tmp_path / "x.json"
        assert run(["characterize", "--record", str(record_path), "--prior", "two-param",
                    "--out", str(out)]) == 0
        assert calls == [(600, 600)]
        assert json.loads(out.read_text())["config"]["grid"] == "600x600"


class TestCompare:
    def test_result_document(self, tmp_path, record_path):
        out = tmp_path / "cmp.json"
        assert run(["compare", "--record", str(record_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        comp = doc["comparison"]
        assert set(comp["scores"]) == {"full", "bell_diag", "two_param"}
        full = comp["scores"]["full"]
        assert full["k"] == 11 and full["n_m"] == 1000
        assert comp["winner_aic"] in comp["scores"]
        assert comp["delta_omega"] == pytest.approx(
            comp["scores"]["two_param"]["omega_aic"] - full["omega_aic"], abs=1e-9
        )
        assert set(comp["closed_form"]) == {"bell_diag", "two_param"}

    def test_total_past_int64_is_data_error(self, tmp_path, capsys):
        # Each count fits int64, but their int64 sum would wrap negative.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "settings": [{"a": a, "b": b, "counts": [2**61] * 4}
                         for a, b in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]],
        }))
        assert run(["compare", "--record", str(bad), "--out", str(tmp_path / "x.json")]) == 2
        assert "entchar: data error: outcome counts sum past the int64 limit" in \
            capsys.readouterr().err


class TestPriorHist:
    def test_two_param_grid(self, tmp_path):
        out = tmp_path / "prior.json"
        code = run(["prior-hist", "--prior", "two-param", "--grid", "2x2",
                    "--bins", "10", "--out", str(out)])
        assert code == 0
        hist = json.loads(out.read_text())["histogram"]
        assert sum(hist["bin_mass"]) + hist["separable_mass"] == pytest.approx(1.0, abs=1e-12)

    def test_bell_diag_samples(self, tmp_path):
        out = tmp_path / "prior.json"
        code = run(["prior-hist", "--prior", "bell-diag", "--samples", "5000",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        hist = json.loads(out.read_text())["histogram"]
        assert len(hist["bin_edges"]) == 101
        # Half the simplex volume is separable, roughly.
        assert 0.4 < hist["separable_mass"] < 0.6


    @pytest.mark.parametrize("value", ["1.5", "many"])
    def test_bad_samples_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "x.json"
        code = run(["prior-hist", "--prior", "bell-diag", "--samples", value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "argument --samples: invalid int value" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_samples_below_one_is_config_error(self, tmp_path, capsys, value):
        out = tmp_path / "x.json"
        code = run(["prior-hist", "--prior", "bell-diag", "--samples", value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"entchar: config error: sample count must be an integer >= 1, got {value}\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_of_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        # The builder is replaced, so no huge array is ever requested.
        def too_big(n, seed):
            raise MemoryError(f"Unable to allocate 21.8 TiB for an array with shape ({n}, 3)")

        monkeypatch.setattr(families, "simplex_prior_bell_diagonal", too_big)
        out = tmp_path / "x.json"
        code = run(["prior-hist", "--prior", "bell-diag", "--samples", "1000000000000",
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("entchar: config error: Unable to allocate 21.8 TiB")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


#: Every integer flag of every subcommand: the quantity the library names in
#: its message, and the flag's bounds (None: no upper bound).
_INTEGER_FLAGS = {
    "simulate": {"--shots": ("shots per setting", 0, np.iinfo(np.int64).max // 5),
                 "--seed": ("seed", 0, None)},
    **{command: {"--samples": ("sample count", 1, families.MAX_COUNT),
                 "--seed": ("seed", 0, None),
                 "--bins": ("bin count", 1, families.MAX_COUNT)}
       for command in ("characterize", "prior-hist")},
}


class TestIntegerFlags:
    """argparse parses each integer flag; the library's check_int judges it."""

    BASE = {"simulate": ["--state", "rho1", "--shots", "5", "--seed", "0"],
            "characterize": ["--record", "{rec}", "--prior", "bell-diag", "--samples", "50",
                             "--seed", "0", "--bins", "5"],
            "prior-hist": ["--prior", "bell-diag", "--samples", "50", "--seed", "0",
                           "--bins", "5"]}

    def argv(self, command, flag, value, rec, out):
        argv = [arg.format(rec=rec) for arg in self.BASE[command]]
        argv[argv.index(flag) + 1] = str(value)
        return [command, *argv, "--out", str(out)]

    # Below each low bound, and at 10**20 wherever there is an upper bound.
    @pytest.mark.parametrize("command,flag,side", [
        (command, flag, side) for command, flags in _INTEGER_FLAGS.items()
        for flag, (_, _, high) in flags.items()
        for side in (["below_low"] if high is None else ["below_low", "at_1e20"])
    ])
    def test_out_of_range_is_config_error(self, tmp_path, capsys, record_path, command, flag,
                                          side):
        what, low, high = _INTEGER_FLAGS[command][flag]
        value, bound = (low - 1, f">= {low}") if side == "below_low" else (10**20, f"<= {high}")
        out = tmp_path / "x.json"
        assert run(self.argv(command, flag, value, record_path, out)) == 1
        err = capsys.readouterr().err
        assert err == f"entchar: config error: {what} must be an integer {bound}, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "prior-hist"])
    def test_seed_has_no_upper_bound(self, tmp_path, record_path, command):
        out = tmp_path / "x.json"
        assert run(self.argv(command, "--seed", 10**20, record_path, out)) == 0
        assert out.exists()


class TestTopLevel:
    @pytest.mark.parametrize("exc,code,message", [
        (ConfigError("bad grid"), 1, "entchar: config error: bad grid"),
        (DataError("bad record"), 2, "entchar: data error: bad record"),
        (EntcharError("unsorted"), 2, "entchar: data error: unsorted"),
        (MemoryError("Unable to allocate"), 1, "entchar: config error: Unable to allocate"),
        (OSError("disk full"), 2, "entchar: i/o error: disk full"),
    ], ids=["config", "data", "base", "memory", "os"])
    def test_exit_codes(self, tmp_path, capsys, monkeypatch, exc, code, message):
        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_prior_hist", failing)
        assert run(["prior-hist", "--prior", "bell-diag", "--out", str(tmp_path / "x.json")]) == code
        err = capsys.readouterr().err
        assert err == message + "\n"

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == cli.__version__

    def test_no_command(self):
        assert run([]) == 1


#: Runs the CLI in a fresh interpreter and prints, after the command's own
#: output, its exit code and whether scipy.special was loaded.
_IMPORT_PROBE = """
import sys
import entchar, entchar.cli
code = entchar.cli.main(sys.argv[1:])
print(code, "scipy.special" in sys.modules)
"""


class TestImports:
    @pytest.mark.parametrize("argv, loads_scipy", [
        (["prior-hist", "--prior", "bell-diag", "--samples", "1000"], False),
        (["characterize", "--record", "{rec}", "--prior", "bell-diag", "--samples", "1000"],
         False),
        (["compare", "--record", "{rec}"], False),
        (["simulate", "--state", "rho1", "--shots", "100", "--seed", "1"], False),
        (["simulate", "--state", "two-param", "--p", "0.4", "--sigma", "0.4", "--shots", "100",
          "--seed", "1"], True),
    ], ids=["prior_hist", "characterize", "compare", "simulate_rho1", "simulate_two_param"])
    def test_scipy_loaded_only_for_the_coherence_factor(self, tmp_path, argv, loads_scipy):
        rec = tmp_path / "rec.json"
        assert run(["simulate", "--state", "rho1", "--shots", "100", "--seed", "3",
                    "--out", str(rec)]) == 0
        argv = [arg.format(rec=rec) for arg in argv] + ["--out", str(tmp_path / "out.json")]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["0", str(loads_scipy)]
