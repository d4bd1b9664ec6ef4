import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entchar import cli, families
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

    @pytest.mark.parametrize("flag,value", [("--shots", "-5"), ("--seed", "-1")])
    def test_negative_shots_or_seed(self, tmp_path, capsys, flag, value):
        argv = {"--shots": "10", "--seed": "0", flag: value}
        code = run(["simulate", "--state", "rho1", "--out", str(tmp_path / "x.json"),
                    *[x for kv in argv.items() for x in kv]])
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err

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
        rec = tmp_path / "rec.json"
        assert run(["simulate", "--state", "rho1", "--shots", "1000", "--seed", "7",
                    "--out", str(rec)]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        docs = []
        for threads in ("1", "2"):
            out = tmp_path / f"res-{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "entchar.cli", "characterize", "--record",
                            str(rec), "--prior", "bell-diag", "--samples", "20000", "--seed", "1",
                            "--out", str(out)], env=env, check=True, capture_output=True)
            doc = json.loads(out.read_text())
            doc.pop("duration_s")
            docs.append(doc)
        assert docs[0] == docs[1]

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
        assert "argument --bins" in capsys.readouterr().err
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


    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "many"])
    def test_bad_samples_is_usage_error(self, tmp_path, capsys, value):
        code = run(["prior-hist", "--prior", "bell-diag", "--samples", value,
                    "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "argument --samples" in capsys.readouterr().err

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
