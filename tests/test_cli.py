"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv) so exit codes and printed text can
be asserted directly; one subprocess smoke test covers the installed entry
point where the package is installed, and the entry point declared in
pyproject.toml is checked everywhere. All file outputs land in pytest temp
directories.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import eprbm
from eprbm import __version__, bell, cli, exact, trainer
from eprbm.cli import EXIT_DATA, EXIT_DIVERGED, EXIT_OK, main
from eprbm.epr import DetectorAngles, empirical_correlations, load_dataset
from eprbm.rbm import RbmModel
from eprbm.trainer import TrainerConfig, load_model, load_reference_model, save_model

from helpers import parse_comparison_csv, random_model

# Schema of the diagnostics report written by `eprbm diagnose --out`.
DIAGNOSTICS_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["model", "locality", "measurement_independence"],
    "properties": {
        "model": {"type": "string"},
        "locality": {
            "type": "object",
            "required": ["max_residual", "threshold", "pass"],
            "properties": {
                "max_residual": {"type": "number"},
                "threshold": {"type": "number"},
                "pass": {"type": "boolean"},
            },
        },
        "measurement_independence": {
            "type": "object",
            "required": [
                "setting_pairs",
                "hidden_state_labels",
                "conditional",
                "pooled",
                "tv_distances",
                "max_tv",
                "threshold",
                "violated",
            ],
            "properties": {
                "setting_pairs": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer", "enum": [0, 1]},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "hidden_state_labels": {
                    "type": "array",
                    "items": {"type": "string", "pattern": "^[01]+$"},
                },
                "conditional": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "pooled": {"type": "array", "items": {"type": "number"}},
                "tv_distances": {"type": "array", "items": {"type": "number"}},
                "max_tv": {"type": "number"},
                "threshold": {"type": "number"},
                "violated": {"type": "boolean"},
            },
        },
    },
}


def eprbm_installed() -> bool:
    """Whether the eprbm distribution, and with it its console script, is installed."""
    try:
        importlib.metadata.distribution("eprbm")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "trials.csv"
    assert run("simulate", "--trials", 2000, "--seed", 13, "--out", path) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def reference_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "reference.json"
    save_model(path, load_reference_model())
    return path


class TestSimulate:
    def test_writes_dataset_sidecar_and_manifest(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run("simulate", "--trials", 500, "--seed", 3, "--out", out) == EXIT_OK
        assert out.exists()
        sidecar = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert sidecar["seed"] == 3
        assert sidecar["n_trials"] == 500
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seeds"] == {"master": 3}
        assert str(out) in manifest["outputs"]
        assert manifest["duration_seconds"] >= 0.0

    def test_single_trial_has_no_correlation_report(self, tmp_path, capsys):
        out = tmp_path / "tiny.csv"
        assert run("simulate", "--trials", 1, "--seed", 0, "--out", out) == EXIT_OK
        printed = capsys.readouterr().out
        assert "correlation report unavailable:" in printed
        assert "no trials for setting pair(s)" in printed
        assert len(load_dataset(out)) == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--trials", 3000, "--seed", 11, "--out", out) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        meta_a = (tmp_path / "a.csv.meta.json").read_bytes()
        meta_b = (tmp_path / "b.csv.meta.json").read_bytes()
        assert meta_a == meta_b

    def test_default_angles_statistics(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        assert run("simulate", "--trials", 100000, "--seed", 7, "--out", out) == EXIT_OK
        printed = capsys.readouterr().out
        assert "S = 2.846  [empirical]" in printed
        # at 100k trials the empirical column sits within 0.01 of theory
        theory = bell.theory_correlations(DetectorAngles()).correlations()
        measured = empirical_correlations(load_dataset(out)).correlations()
        assert max(abs(a - b) for a, b in zip(measured, theory)) <= 0.01

    def test_malformed_angles_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run("simulate", "--trials", 10, "--seed", 0,
                "--angles", "0,1,2", "--out", tmp_path / "x.csv")
        assert info.value.code == 2
        assert "--angles needs 4" in capsys.readouterr().err

    @pytest.mark.parametrize("angles", ["nan,0,0,0", "0,inf,0,0", "0,0,-inf,0"])
    def test_non_finite_angles_is_usage_error(self, tmp_path, capsys, angles):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            run("simulate", "--trials", 10, "--seed", 0,
                "--angles", angles, "--out", out)
        assert info.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value", [("--trials", "0"), ("--trials", "-5"), ("--seed", "-1")]
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        argv = {"--trials": "10", "--seed": "0"}
        argv[flag] = value
        with pytest.raises(SystemExit) as info:
            run("simulate", *[a for pair in argv.items() for a in pair],
                "--out", tmp_path / "x.csv")
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_trial_count_too_large_to_allocate_is_data_error(self, tmp_path, capsys):
        # numpy refuses the 7 PiB request outright, so nothing is allocated
        rc = run("simulate", "--trials", 10**15, "--seed", 0,
                 "--out", tmp_path / "x.csv")
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert f"--trials {10**15} is too large" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_trial_count_beyond_array_dimension_is_data_error(self, tmp_path, capsys):
        # numpy refuses a dimension this large before it allocates anything
        rc = run("simulate", "--trials", 10**20, "--seed", 0,
                 "--out", tmp_path / "x.csv")
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: Maximum allowed dimension exceeded "
            f"(--trials {10**20} is too large)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_unparseable_angle_names_the_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run("simulate", "--trials", 10, "--seed", 0,
                "--angles", "x,0,0,0", "--out", tmp_path / "x.csv")
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: --angles: could not convert string to float: 'x'" in err
        assert list(tmp_path.iterdir()) == []

    def test_custom_angles_recorded_in_sidecar(self, tmp_path):
        out = tmp_path / "custom.csv"
        assert run(
            "simulate", "--trials", 50, "--seed", 1,
            "--angles", "0.1,0.2,0.3,0.4", "--out", out,
        ) == EXIT_OK
        assert load_dataset(out).angles == DetectorAngles(0.1, 0.2, 0.3, 0.4)


class TestTrain:
    def test_small_run_writes_model_trace_manifest(self, tmp_path, data_csv, capsys):
        out = tmp_path / "model.json"
        rc = run("train", "--data", data_csv, "--out", out, "--seed", 2, "--epochs", 3)
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert f"trained model written to {out}" in printed
        assert "CHSH bound" in printed

        model, payload = load_model(out)
        assert model.weights.shape == (4, 4)
        assert payload["trainer"]["seed"] == 2
        assert payload["trainer"]["n_epochs"] == 3
        assert payload["dataset_seed"] == 13

        trace_lines = (tmp_path / "model.json.trace.csv").read_text().splitlines()
        assert trace_lines[0] == "epoch,avg_log_likelihood,s"
        assert len(trace_lines) == 4
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seeds"] == {"master": 2}

    def test_config_file_overridden_by_flags(self, tmp_path, data_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"seed": 3, "learning_rate": 0.1, "n_epochs": 2})
        )
        out = tmp_path / "model.json"
        rc = run("train", "--data", data_csv, "--out", out,
                 "--config", cfg_path, "--epochs", 4)
        assert rc == EXIT_OK
        trainer_cfg = load_model(out)[1]["trainer"]
        assert trainer_cfg["seed"] == 3
        assert trainer_cfg["learning_rate"] == 0.1
        assert trainer_cfg["n_epochs"] == 4
        assert trainer_cfg["batch_size"] == 100

    def test_missing_seed_is_usage_error(self, tmp_path, data_csv, capsys):
        with pytest.raises(SystemExit) as info:
            run("train", "--data", data_csv, "--out", tmp_path / "m.json",
                "--epochs", 1)
        assert info.value.code == 2
        assert "a seed is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "-1"),
            ("--epochs", "-1"),
            ("--chains", "0"),
            ("--batch-size", "0"),
            ("--gibbs-steps", "0"),
            ("--learning-rate", "-0.1"),
            ("--lr-decay", "0"),
            ("--init-scale", "nan"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(
        self, tmp_path, data_csv, capsys, flag, value
    ):
        argv = {"--seed": "1", "--epochs": "1"}
        argv[flag] = value
        with pytest.raises(SystemExit) as info:
            run("train", "--data", data_csv, "--out", tmp_path / "m.json",
                *[a for pair in argv.items() for a in pair])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "values, field",
        [
            ({"n_epochs": -1}, "n_epochs"),
            ({"n_persistent_chains": 0}, "n_persistent_chains"),
            ({"learning_rate": "0.1"}, "learning_rate"),
            ({"learning_rate": True}, "learning_rate"),
            ({"weight_init_scale": False}, "weight_init_scale"),
            ({"learning_rate": 10**400}, "learning_rate"),
            ({"weight_init_scale": 10**400}, "weight_init_scale"),
        ],
    )
    def test_bad_config_value_is_data_error(
        self, tmp_path, data_csv, capsys, values, field
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, **values}))
        rc = run("train", "--data", data_csv, "--out", tmp_path / "m.json",
                 "--config", cfg_path)
        assert rc == EXIT_DATA
        assert field in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_batch_larger_than_data_is_one_batch_per_epoch(self, tmp_path, data_csv):
        # data_csv holds 2000 trials
        huge, whole = tmp_path / "huge.json", tmp_path / "whole.json"
        common = ("--data", data_csv, "--seed", 4, "--epochs", 2)
        assert run("train", *common, "--out", huge,
                   "--batch-size", "100000000000000000000") == EXIT_OK
        assert run("train", *common, "--out", whole, "--batch-size", 2000) == EXIT_OK
        for name in ("visible_bias", "hidden_bias", "weights"):
            assert load_model(huge)[1][name] == load_model(whole)[1][name]
        assert (tmp_path / "huge.json.trace.csv").read_bytes() == (
            tmp_path / "whole.json.trace.csv"
        ).read_bytes()

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        rc = run("train", "--data", tmp_path / "nope.csv",
                 "--out", tmp_path / "m.json", "--seed", 0, "--epochs", 1)
        assert rc == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "outputs, missing",
        [
            (["--out", "nodir/m.json"], "nodir/m.json"),
            (["--out", "m.json", "--trace", "nodir/t.csv"], "nodir/t.csv"),
        ],
        ids=["out", "trace"],
    )
    def test_missing_output_directory_refused_before_training(
        self, tmp_path, data_csv, capsys, monkeypatch, outputs, missing
    ):
        # a default fit takes seconds, so an output it could not write is
        # refused before the fit starts, and nothing is written
        def fail(*args):
            raise AssertionError("train ran")

        monkeypatch.setattr(trainer, "train", fail)
        argv = [tmp_path / a if a.endswith((".json", ".csv")) else a for a in outputs]
        rc = run("train", "--data", data_csv, "--seed", 0, *argv)
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {tmp_path / missing}: {tmp_path / 'nodir'} is not a directory\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "chains, refusal",
        [
            (10**15, "Unable to allocate"),
            (10**20, "Maximum allowed dimension exceeded"),
        ],
        ids=["unallocatable", "beyond_array_dimension"],
    )
    def test_chain_count_too_large_is_data_error(
        self, tmp_path, data_csv, capsys, chains, refusal
    ):
        # numpy refuses both chain buffers before it allocates anything
        rc = run("train", "--data", data_csv, "--out", tmp_path / "m.json",
                 "--seed", 0, "--chains", chains)
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {refusal}")
        assert err.endswith(f" (--chains {chains} is too large)\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_sidecar_angle_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run("simulate", "--trials", 200, "--seed", 2, "--out", data) == EXIT_OK
        sidecar = tmp_path / "d.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["angles"]["a"] = float("nan")
        sidecar.write_text(json.dumps(meta))
        capsys.readouterr()
        rc = run("train", "--data", data, "--out", tmp_path / "m.json",
                 "--seed", 0, "--epochs", 1)
        assert rc == EXIT_DATA
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_unknown_config_key_is_data_error(self, tmp_path, data_csv, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "momentum": 0.9}))
        rc = run("train", "--data", data_csv, "--out", tmp_path / "m.json",
                 "--config", cfg_path, "--epochs", 1)
        assert rc == EXIT_DATA
        assert "unknown trainer config keys" in capsys.readouterr().err

    def test_divergence_exits_4_and_keeps_partial_trace(
        self, tmp_path, data_csv, capsys
    ):
        out = tmp_path / "model.json"
        rc = run("train", "--data", data_csv, "--out", out,
                 "--seed", 1, "--epochs", 2, "--learning-rate", "1e308")
        assert rc == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "diverged" in err
        assert "partial trace kept at" in err
        assert not out.exists()
        trace = (tmp_path / "model.json.trace.csv").read_text()
        assert trace == "epoch,avg_log_likelihood,s\n"

    def test_finite_draw_without_exact_record_exits_4(
        self, tmp_path, data_csv, capsys
    ):
        # a finite initial draw with no finite exact record
        out = tmp_path / "model.json"
        rc = run("train", "--data", data_csv, "--out", out,
                 "--seed", 1, "--epochs", 2, "--init-scale", "1000")
        assert rc == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "diverged at epoch 0" in err
        assert "partial trace kept at" in err
        assert not out.exists()
        trace = (tmp_path / "model.json.trace.csv").read_text()
        assert trace == "epoch,avg_log_likelihood,s\n"

    def test_zero_epochs_saves_initial_model(self, tmp_path, data_csv, capsys):
        out = tmp_path / "model.json"
        rc = run("train", "--data", data_csv, "--out", out, "--seed", 5,
                 "--epochs", 0)
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "does not violate CHSH bound" in printed
        assert "S = 0.0" in printed
        trace = (tmp_path / "model.json.trace.csv").read_text()
        assert trace == "epoch,avg_log_likelihood,s\n"
        model, _ = load_model(out)
        # untrained init draw: tiny weights, zero biases
        assert np.abs(model.weights).max() < 0.1
        np.testing.assert_array_equal(model.visible_bias, np.zeros(4))

    def test_non_finite_exact_report_writes_nothing(self, tmp_path, data_csv, capsys):
        # a finite initial draw this large has no finite exact report: train
        # refuses it as a divergence at epoch 0, warning-free, and writes
        # only the header-only trace, no model or manifest
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("train", "--data", data_csv, "--out", tmp_path / "model.json",
                     "--seed", 1, "--epochs", 0, "--init-scale", "1e300")
        assert rc == EXIT_DIVERGED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "diverged at epoch 0" in err[0]
        trace = tmp_path / "model.json.trace.csv"
        assert list(tmp_path.iterdir()) == [trace]
        assert trace.read_text() == "epoch,avg_log_likelihood,s\n"


class TestEval:
    def test_without_data_renders_placeholder(
        self, reference_model_file, capsys
    ):
        assert run("eval", "--model", reference_model_file) == EXIT_OK
        printed = capsys.readouterr().out
        assert "—" in printed
        assert "violates CHSH bound" in printed
        assert "quantity" in printed

    def test_with_data_writes_parseable_csv(self, tmp_path, reference_model_file):
        data = tmp_path / "trials.csv"
        assert run("simulate", "--trials", 20000, "--seed", 21, "--out", data) == EXIT_OK
        out = tmp_path / "comparison.csv"
        rc = run("eval", "--model", reference_model_file, "--data", data,
                 "--out", out)
        assert rc == EXIT_OK

        parsed = parse_comparison_csv(out.read_text())
        assert set(parsed) == {
            "c_ab", "c_ab_prime", "c_a_prime_b", "c_a_prime_b_prime", "s",
        }
        for quantity, expected in zip(
            ("c_ab", "c_ab_prime", "c_a_prime_b", "c_a_prime_b_prime"),
            (-0.707, -0.707, -0.707, 0.707),
        ):
            row = parsed[quantity]
            assert row["theory"] == pytest.approx(expected, abs=1e-3)
            assert row["data"] is not None and abs(row["data"]) <= 1.0
            assert row["model"] == pytest.approx(expected, abs=0.02)
        assert parsed["s"]["model"] == pytest.approx(2.826, abs=0.001)
        assert 2.6 <= parsed["s"]["data"] <= 3.0
        assert (tmp_path / "comparison.csv.manifest.json").exists()

    def test_theory_column_uses_dataset_angles(self, tmp_path, reference_model_file):
        data = tmp_path / "custom.csv"
        angles = DetectorAngles(0.1, 0.2, 0.3, 0.4)
        assert run(
            "simulate", "--trials", 2000, "--seed", 5,
            "--angles", "0.1,0.2,0.3,0.4", "--out", data,
        ) == EXIT_OK
        out = tmp_path / "comparison.csv"
        rc = run("eval", "--model", reference_model_file, "--data", data, "--out", out)
        assert rc == EXIT_OK
        parsed = parse_comparison_csv(out.read_text())
        theory = bell.theory_correlations(angles)
        for quantity, expected in zip(
            ("c_ab", "c_ab_prime", "c_a_prime_b", "c_a_prime_b_prime"),
            theory.correlations(),
        ):
            assert parsed[quantity]["theory"] == pytest.approx(expected, abs=5e-4)
        assert parsed["s"]["theory"] == pytest.approx(theory.s, abs=5e-4)
        # the default angles would read -0.707 here, not -cos(0.1 - 0.3)
        assert parsed["c_ab"]["theory"] == pytest.approx(-0.980, abs=5e-4)

    def test_zero_model_does_not_violate(self, tmp_path, capsys):
        model_path = tmp_path / "zero.json"
        save_model(
            model_path,
            RbmModel(
                visible_bias=np.zeros(4),
                hidden_bias=np.zeros(4),
                weights=np.zeros((4, 4)),
            ),
        )
        assert run("eval", "--model", model_path) == EXIT_OK
        assert "S = 0.000 (<= 2: does not violate CHSH bound)" in (
            capsys.readouterr().out
        )

    def test_wrong_visible_layout_is_data_error(self, tmp_path, capsys):
        model_path = tmp_path / "narrow.json"
        save_model(
            model_path,
            RbmModel(
                visible_bias=np.zeros(3),
                hidden_bias=np.zeros(2),
                weights=np.zeros((3, 2)),
            ),
        )
        assert run("eval", "--model", model_path) == EXIT_DATA
        assert "4 visible units" in capsys.readouterr().err

    def test_non_finite_exact_report_is_data_error(self, tmp_path, capsys):
        # finite visible biases of 1e308 overflow every log-joint entry that
        # adds two of them, and the correlations come out NaN
        model_path, out = tmp_path / "model.json", tmp_path / "comparison.csv"
        save_model(
            model_path,
            RbmModel(
                visible_bias=np.full(4, 1e308),
                hidden_bias=np.zeros(4),
                weights=np.zeros((4, 4)),
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("eval", "--model", model_path, "--out", out)
        assert rc == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "must lie in [-1, 1], got nan" in err[0]
        assert list(tmp_path.iterdir()) == [model_path]


# SHA-256 of diagnose's stdout followed by its --out report, run in the
# model's directory as `--model model.json --out report.json`. "seed<s>-n<n>-
# scale<x>" is random_model(default_rng(s), n=n, scale=x).
DIAGNOSE_SHA256 = {
    "reference": "13bfe46b27aa6892e205b03259f9817748947d09707dd3e8c7f65fb819e58c74",
    "seed0-n2-scale0.3": "75b2c1314e3dbdc22f2d1b77d0da6fb46b3cd9e902245ec6864fff46f498bcdc",
    "seed0-n2-scale3": "fe2f92573ed61589426c32c6f87bd491f386cfc0158bed082b75edde3c391c46",
    "seed0-n4-scale0.3": "c755f0d272713ab4ee708ce5580f9120536ae7e13c6582ebfc97e726e8347a00",
    "seed0-n4-scale3": "c6c6bdc542f8fe34f5ea53c00cbcb13565b22250519cf456e6135cd8796ff2f0",
    "seed1-n2-scale0.3": "58f14441687b2ca9ba24fb0e6c91f44bc78ae3b2596671d2ea58e02982480538",
    "seed1-n2-scale3": "c8f23005d54c40806186814fad4104752cca9b517f871c0edc4d9fe06207afd0",
    "seed1-n4-scale0.3": "4b158f9edc5faecb489dfed0191a0be918266ac4adf5bf263f7d022e1a0bdf9d",
    "seed1-n4-scale3": "d6afd7d22f62c9ea846ee365070419874a6c106f404936d1dfd4b08e561471d3",
    "seed2-n2-scale0.3": "b97d0a0d07d08f486508da8b9509381196a6387bfb79cf0e32ddf3b454b7194a",
    "seed2-n2-scale3": "955167054cbe847696b007dfa9865dfb8d7b8c56df29ae26b7355821149683e3",
    "seed2-n4-scale0.3": "546045de1537222a069b2df6980dee231d40b18133f3d8e278b1f9d1a776e577",
    "seed2-n4-scale3": "4d752fdadc28432953dd3f16bc7f84c1760370dd91f7d987242a67b95735bb9f",
}


class TestDiagnose:
    def test_reference_model_verdicts(self, reference_model_file, capsys):
        assert run("diagnose", "--model", reference_model_file) == EXIT_OK
        printed = capsys.readouterr().out
        assert "max factorization residual" in printed
        assert "locality PASS" in printed
        assert "P(lambda | settings):" in printed
        assert "measurement independence VIOLATED" in printed

    def test_report_matches_schema(self, tmp_path, reference_model_file):
        out = tmp_path / "report.json"
        rc = run("diagnose", "--model", reference_model_file, "--out", out)
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, DIAGNOSTICS_REPORT_SCHEMA)
        assert report["locality"]["pass"] is True
        assert report["locality"]["max_residual"] <= 1e-10
        mi = report["measurement_independence"]
        assert mi["violated"] is True
        assert mi["max_tv"] == pytest.approx(0.620024075451, abs=1e-9)
        assert len(mi["conditional"]) == 4
        assert all(len(row) == 16 for row in mi["conditional"])
        assert mi["hidden_state_labels"] == [format(i, "04b") for i in range(16)]
        assert (tmp_path / "report.json.manifest.json").exists()

    def test_residual_below_noise_floor_printed_as_bound(
        self, tmp_path, reference_model_file, capsys, monkeypatch
    ):
        out = tmp_path / "report.json"
        assert run("diagnose", "--model", reference_model_file, "--out", out) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "max factorization residual < 1e-12"
        # the report keeps the exact float
        residual = exact.locality_check(
            exact.enumerate_distribution(load_reference_model())
        )
        assert 0 < residual < 1e-12
        assert json.loads(out.read_text())["locality"]["max_residual"] == residual

        monkeypatch.setattr(exact, "locality_check", lambda dist: 3.5e-11)
        assert run("diagnose", "--model", reference_model_file) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "max factorization residual = 3.500e-11",
            "locality PASS (residual <= 1e-10)",
        ]

    def test_unweighted_model_is_independent(self, tmp_path, capsys):
        model_path = tmp_path / "free.json"
        save_model(
            model_path,
            RbmModel(
                visible_bias=np.array([0.3, -0.2, 0.5, 0.0]),
                hidden_bias=np.array([1.0, -1.0, 0.25, 0.0]),
                weights=np.zeros((4, 4)),
            ),
        )
        assert run("diagnose", "--model", model_path) == EXIT_OK
        printed = capsys.readouterr().out
        assert "measurement independence not violated" in printed
        assert "locality PASS" in printed

    @pytest.mark.parametrize("kind", ["reference_hidden_bias_-800", "seed_3_scale_100"])
    def test_no_verdict_drawn_from_nan(self, tmp_path, capsys, kind):
        # two finite models whose exact diagnostics have come out NaN: the
        # command must either refuse to give a verdict (exit 3, no report)
        # or give finite ones, and must never print a verdict drawn from NaN
        if kind == "seed_3_scale_100":
            model = random_model(np.random.default_rng(3), scale=100.0)
        else:
            reference = load_reference_model()
            hidden_bias = reference.hidden_bias.copy()
            hidden_bias[0] = -800.0
            model = RbmModel(reference.visible_bias, hidden_bias, reference.weights)
        model_path, out = tmp_path / "model.json", tmp_path / "report.json"
        save_model(model_path, model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("diagnose", "--model", model_path, "--out", out)
        captured = capsys.readouterr()
        assert "nan" not in captured.out.lower()
        if rc == EXIT_DATA:
            assert "not finite" in captured.err
            assert "locality" not in captured.out
            assert "measurement independence" not in captured.out
            assert list(tmp_path.iterdir()) == [model_path]
        else:
            assert rc == EXIT_OK
            assert "locality PASS" in captured.out

            def reject(constant):
                raise ValueError(f"non-standard JSON constant {constant}")

            report = json.loads(out.read_text(), parse_constant=reject)
            jsonschema.validate(report, DIAGNOSTICS_REPORT_SCHEMA)
            assert report["locality"]["pass"] is True

    @pytest.mark.parametrize("case", sorted(DIAGNOSE_SHA256))
    def test_output_bytes_pinned(self, tmp_path, monkeypatch, capsys, case):
        # the printed text and the --out report, byte for byte, on the
        # reference model and on random models of two widths and two scales
        if case == "reference":
            model = load_reference_model()
        else:
            seed, n, scale = re.fullmatch(r"seed(\d)-n(\d)-scale(.+)", case).groups()
            rng = np.random.default_rng(int(seed))
            model = random_model(rng, n=int(n), scale=float(scale))
        monkeypatch.chdir(tmp_path)
        save_model("model.json", model)
        rc = run("diagnose", "--model", "model.json", "--out", "report.json")
        assert rc == EXIT_OK
        printed = capsys.readouterr().out.encode() + Path("report.json").read_bytes()
        assert hashlib.sha256(printed).hexdigest() == DIAGNOSE_SHA256[case]

    def test_report_refuses_non_finite_values(self, tmp_path, monkeypatch):
        # the report is written with allow_nan=False: a NaN that slipped past
        # the checks would stop the write, not land in the file
        def dump(obj, fh, **kwargs):
            if "locality" in obj:
                allow_nan.append(kwargs.get("allow_nan", True))
            json_dump(obj, fh, **kwargs)

        allow_nan, json_dump = [], json.dump
        monkeypatch.setattr(json, "dump", dump)
        model_path, out = tmp_path / "model.json", tmp_path / "report.json"
        save_model(model_path, load_reference_model())
        assert run("diagnose", "--model", model_path, "--out", out) == EXIT_OK
        assert allow_nan == [False]

    def test_oversized_model_is_data_error(self, tmp_path, capsys):
        model_path = tmp_path / "huge.json"
        save_model(
            model_path,
            RbmModel(
                visible_bias=np.zeros(13),
                hidden_bias=np.zeros(12),
                weights=np.zeros((13, 12)),
            ),
        )
        assert run("diagnose", "--model", model_path) == EXIT_DATA
        assert "too large for exact inference" in capsys.readouterr().err


MANIFEST_KEYS = [
    "command", "version", "config", "seeds", "inputs", "outputs", "duration_seconds",
]


class TestManifest:
    # each command's manifest, key by key and in order, for a run in tmp_path
    @pytest.fixture
    def files(self, tmp_path):
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        assert run("simulate", "--trials", 200, "--seed", 2, "--out", data) == EXIT_OK
        save_model(model, load_reference_model())
        return str(data), str(model)

    def expected(self, tmp_path, command, data, model):
        out = str(tmp_path / "out")
        if command == "simulate":
            argv = ("--trials", 300, "--seed", 4, "--angles", "0.1,0.2,0.3,0.4")
            config = {
                "trials": 300,
                "seed": 4,
                "angles": DetectorAngles(0.1, 0.2, 0.3, 0.4).to_dict(),
                "out": out,
            }
            return argv, config, {"master": 4}, [], [out, f"{out}.meta.json"]
        if command == "train":
            argv = ("--data", data, "--seed", 6, "--epochs", 1)
            config = {
                "data": data,
                "out": out,
                "trace": f"{out}.trace.csv",
                "trainer": TrainerConfig(seed=6, n_epochs=1).to_dict(),
            }
            inputs = [data, f"{data}.meta.json"]
            return argv, config, {"master": 6}, inputs, [out, f"{out}.trace.csv"]
        if command == "eval":
            argv = ("--model", model, "--data", data)
            config = {"model": model, "data": data, "out": out}
            return argv, config, {}, [model, data, f"{data}.meta.json"], [out]
        if command == "eval-no-data":
            config = {"model": model, "data": None, "out": out}
            return ("--model", model), config, {}, [model], [out]
        config = {"model": model, "out": out}
        return ("--model", model), config, {}, [model], [out]

    @pytest.mark.parametrize(
        "command", ["simulate", "train", "eval", "eval-no-data", "diagnose"]
    )
    def test_keys_and_values(self, tmp_path, files, command):
        argv, config, seeds, inputs, outputs = self.expected(tmp_path, command, *files)
        out = tmp_path / "out"
        assert run(command.split("-")[0], *argv, "--out", out) == EXIT_OK
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert list(manifest) == MANIFEST_KEYS
        assert manifest["command"] == command.split("-")[0]
        assert manifest["version"] == __version__
        assert list(manifest["config"].items()) == list(config.items())
        assert manifest["seeds"] == seeds
        assert manifest["inputs"] == inputs
        assert manifest["outputs"] == outputs
        assert isinstance(manifest["duration_seconds"], float)
        assert manifest["duration_seconds"] >= 0.0

    def test_explicit_trace_path_recorded(self, tmp_path, files):
        data = files[0]
        out, trace = tmp_path / "m2.json", tmp_path / "t.csv"
        assert run("train", "--data", data, "--out", out, "--trace", trace,
                   "--seed", 1, "--epochs", 1) == EXIT_OK
        manifest = json.loads((tmp_path / "m2.json.manifest.json").read_text())
        assert manifest["config"]["trace"] == str(trace)
        assert manifest["outputs"] == [str(out), str(trace)]

    def test_config_file_recorded_as_input(self, tmp_path, files):
        data = files[0]
        cfg, out = tmp_path / "c.json", tmp_path / "m2.json"
        cfg.write_text(json.dumps({"seed": 1, "n_epochs": 1}))
        assert run("train", "--data", data, "--config", cfg, "--out", out) == EXIT_OK
        manifest = json.loads((tmp_path / "m2.json.manifest.json").read_text())
        assert manifest["inputs"] == [data, f"{data}.meta.json", str(cfg)]

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_none_without_out(self, tmp_path, files, command):
        before = sorted(tmp_path.iterdir())
        assert run(command, "--model", files[1]) == EXIT_OK
        assert sorted(tmp_path.iterdir()) == before


class TestOutputPaths:
    # every command refuses an output it could not write before it reads or
    # computes anything: a path that is a directory, or one whose directory
    # is missing. Both fail the atomic rename at the end, after the work
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the command started its work")

        # simulate starts by generating, train by loading the data, and
        # eval and diagnose by loading the model
        for name in ("generate_dataset", "load_dataset", "load_model"):
            monkeypatch.setattr(cli, name, fail)

    def argv(self, command, data_csv, model_file):
        return {
            "simulate": ["simulate", "--seed", 0],
            "train": ["train", "--data", data_csv, "--seed", 0],
            "eval": ["eval", "--model", model_file, "--data", data_csv],
            "diagnose": ["diagnose", "--model", model_file],
        }[command]

    @pytest.mark.parametrize(
        "command, outputs, refused",
        [
            ("simulate", ["--out", "outdir"], "outdir"),
            ("train", ["--out", "outdir"], "outdir"),
            ("train", ["--out", "m.json", "--trace", "outdir"], "outdir"),
            ("train", ["--out", "outdir.json"], "outdir.json.manifest.json"),
            ("simulate", ["--out", "outdir.csv"], "outdir.csv.meta.json"),
            ("eval", ["--out", "outdir"], "outdir"),
            ("diagnose", ["--out", "outdir"], "outdir"),
        ],
        ids=["simulate", "train_out", "train_trace", "train_manifest",
             "simulate_sidecar", "eval", "diagnose"],
    )
    def test_directory_refused_before_work(
        self, tmp_path, data_csv, reference_model_file, capsys,
        command, outputs, refused,
    ):
        (tmp_path / refused).mkdir()
        argv = [a if a.startswith("--") else tmp_path / a for a in outputs]
        rc = run(*self.argv(command, data_csv, reference_model_file), *argv)
        assert rc == EXIT_DATA
        assert capsys.readouterr() == ("", f"error: {tmp_path / refused} is a directory\n")
        assert list(tmp_path.iterdir()) == [tmp_path / refused]

    # TestTrain::test_missing_output_directory_refused_before_training
    # covers train
    @pytest.mark.parametrize("command", ["simulate", "eval", "diagnose"])
    def test_missing_directory_refused_before_work(
        self, tmp_path, data_csv, reference_model_file, capsys, command
    ):
        out = tmp_path / "nodir" / "out"
        rc = run(*self.argv(command, data_csv, reference_model_file), "--out", out)
        assert rc == EXIT_DATA
        assert capsys.readouterr() == (
            "", f"error: {out}: {tmp_path / 'nodir'} is not a directory\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestOutputAliasing:
    # an output that is the same file as an input or as another output
    # would destroy that file, so every command refuses it, before any work
    @pytest.fixture
    def files(self, tmp_path):
        data, model, cfg = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "c.json"
        assert run("simulate", "--trials", 200, "--seed", 2, "--out", data) == EXIT_OK
        save_model(model, load_reference_model())
        cfg.write_text(json.dumps({"seed": 1, "n_epochs": 1}))
        (tmp_path / "link.json").symlink_to(model)
        return tmp_path

    @pytest.mark.parametrize(
        "argv, refused, other",
        [
            (["train", "--data", "d.csv", "--seed", 1, "--out", "m2.json",
              "--trace", "m2.json"],
             "m2.json", "output m2.json"),
            (["train", "--data", "d.csv", "--seed", 1, "--out", "d.csv"],
             "d.csv", "input d.csv"),
            (["train", "--data", "d.csv", "--seed", 1, "--out", "m2.json",
              "--trace", "d.csv.meta.json"], "d.csv.meta.json", "input d.csv.meta.json"),
            (["train", "--data", "d.csv", "--config", "c.json", "--out", "c.json"],
             "c.json", "input c.json"),
            (["train", "--data", "d.csv", "--seed", 1, "--out", "m2.json",
              "--trace", "m2.json.manifest.json"],
             "m2.json.manifest.json", "output m2.json.manifest.json"),
            (["eval", "--model", "m.json", "--data", "d.csv", "--out", "d.csv.meta.json"],
             "d.csv.meta.json", "input d.csv.meta.json"),
            (["eval", "--model", "m.json", "--out", "m.json"], "m.json", "input m.json"),
            (["diagnose", "--model", "m.json", "--out", "m.json"], "m.json", "input m.json"),
            (["diagnose", "--model", "m.json", "--out", "link.json"],
             "link.json", "input m.json"),
        ],
        ids=["train_trace_is_out", "train_out_is_data", "train_trace_is_sidecar",
             "train_out_is_config", "train_trace_is_manifest", "eval_out_is_sidecar",
             "eval_out_is_model", "diagnose_out_is_model", "diagnose_out_links_model"],
    )
    def test_refused_before_work(self, files, monkeypatch, capsys, argv, refused, other):
        monkeypatch.chdir(files)
        before = {p.name: p.read_bytes() for p in files.iterdir()}
        assert run(*argv) == EXIT_DATA
        assert capsys.readouterr() == (
            "", f"error: output {refused} is the same file as {other}\n"
        )
        assert {p.name: p.read_bytes() for p in files.iterdir()} == before

    def test_model_survives_refused_diagnose(self, files, monkeypatch, capsys):
        monkeypatch.chdir(files)
        assert run("diagnose", "--model", "m.json", "--out", "m.json") == EXIT_DATA
        assert run("eval", "--model", "m.json") == EXIT_OK
        assert "S = " in capsys.readouterr().out


def assert_data_error_naming(tmp_path, capsys, command, target, payload, named=""):
    """Run command on a fresh dataset, model and config after writing payload
    to target (merged into the JSON already there when it is a dict, applied
    to it when it is a function): the command must exit 3 with one error line
    naming target and `named`, before it prints or writes anything."""
    data, model, cfg, out = (
        tmp_path / name for name in ("d.csv", "model.json", "cfg.json", "out")
    )
    assert run("simulate", "--trials", 200, "--seed", 2, "--out", data) == EXIT_OK
    save_model(model, load_reference_model())
    path = tmp_path / target
    if callable(payload):
        payload = payload(json.loads(path.read_text()))
    elif isinstance(payload, dict):
        payload = {**json.loads(path.read_text()), **payload}
    path.write_text(json.dumps(payload))
    argv = {
        "eval": ("--model", model, "--data", data, "--out", out),
        "diagnose": ("--model", model, "--out", out),
        "train": ("--data", data, "--config", cfg, "--out", out,
                  "--seed", 0, "--epochs", 1),
    }[command]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run(command, *argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert target in captured.err and named in captured.err
    assert "Traceback" not in captured.err
    assert sorted(tmp_path.iterdir()) == before


class TestNonObjectJson:
    # each JSON input parses but holds no object where one is expected; the
    # command must exit 3 naming the file, before it prints or writes anything
    @pytest.mark.parametrize(
        "command, target, payload",
        [
            ("eval", "model.json", [1, 2]),
            ("diagnose", "model.json", [1, 2]),
            ("eval", "d.csv.meta.json", [1]),
            ("eval", "d.csv.meta.json", {"angles": [0, 1, 2, 3]}),
            ("train", "cfg.json", []),
            ("train", "cfg.json", [["seed", 5]]),
        ],
        ids=["eval-model", "diagnose-model", "eval-sidecar", "eval-sidecar-angles",
             "train-config-empty", "train-config-pairs"],
    )
    def test_is_data_error(self, tmp_path, capsys, command, target, payload):
        assert_data_error_naming(tmp_path, capsys, command, target, payload)


def _angles(**changed) -> dict:
    return {"angles": {**DetectorAngles().to_dict(), **changed}}


class TestMistypedJson:
    # each field holds a JSON value of the wrong type: the command must exit
    # 3 naming the file and the field, never crash or take the value as is
    @pytest.mark.parametrize(
        "command, target, payload, field",
        [
            ("eval", "d.csv.meta.json", {"seed": [1]}, "seed"),
            ("eval", "d.csv.meta.json", {"seed": 1.5}, "seed"),
            ("eval", "d.csv.meta.json", {"seed": True}, "seed"),
            ("eval", "d.csv.meta.json", {"seed": -1}, "seed"),
            ("eval", "d.csv.meta.json", {"n_trials": "200"}, "n_trials"),
            ("eval", "d.csv.meta.json", {"n_trials": 200.0}, "n_trials"),
            ("eval", "d.csv.meta.json", _angles(a=[1]), "angle a"),
            ("eval", "d.csv.meta.json", _angles(a_prime="0.5"), "angle a_prime"),
            ("eval", "d.csv.meta.json", _angles(b=True), "angle b"),
            ("eval", "d.csv.meta.json", _angles(b_prime=10**400), "angle b_prime"),
            ("diagnose", "model.json", {"visible_bias": {"a": 1}}, "visible_bias"),
            ("diagnose", "model.json", {"hidden_bias": ["1", "0", "0", "0"]},
             "hidden_bias"),
            ("diagnose", "model.json", {"weights": [[10**400] * 4] * 4}, "weights"),
            ("diagnose", "model.json", {"n": "4"}, "n"),
            ("eval", "model.json", {"visible_bias": [True, False, True, False]},
             "visible_bias"),
            ("eval", "model.json", {"weights": [[True, False, True, True]] * 4},
             "weights"),
            ("eval", "model.json", {"weights": [1.0, 2.0, 3.0, 4.0]}, "weights"),
            ("eval", "model.json", {"m": 4.0}, "m"),
        ],
        ids=["seed-list", "seed-fraction", "seed-bool", "seed-negative",
             "n_trials-string", "n_trials-float", "angle-list", "angle-string",
             "angle-bool", "angle-huge-int", "diagnose-bias-object",
             "diagnose-bias-strings", "diagnose-weights-huge-int",
             "diagnose-n-string", "eval-bias-bools", "eval-weights-bools",
             "eval-weights-flat", "eval-m-float"],
    )
    def test_is_data_error(self, tmp_path, capsys, command, target, payload, field):
        assert_data_error_naming(
            tmp_path, capsys, command, target, payload, f"{field} must"
        )


def _without(name, within=None):
    """A payload edit that deletes the field name (from the object under
    within, if given)."""

    def edit(payload):
        target = payload[within] if within else payload
        del target[name]
        return payload

    return edit


class TestMissingField:
    # each field is deleted from a file that save_dataset or save_model wrote:
    # the command must exit 3 naming the file and the field
    @pytest.mark.parametrize(
        "command, target, edit, named",
        [
            ("eval", "d.csv.meta.json", _without("seed"), "field seed"),
            ("eval", "d.csv.meta.json", _without("n_trials"), "field n_trials"),
            ("eval", "d.csv.meta.json", _without("angles"), "field angles"),
            *[
                ("eval", "d.csv.meta.json", _without(angle, "angles"), f"angle {angle}")
                for angle in ("a", "a_prime", "b", "b_prime")
            ],
            *[
                ("diagnose", "model.json", _without(name), f"field {name}")
                for name in ("m", "n", "visible_bias", "hidden_bias", "weights")
            ],
        ],
        ids=["seed", "n_trials", "angles", "a", "a_prime", "b", "b_prime",
             "m", "n", "visible_bias", "hidden_bias", "weights"],
    )
    def test_is_data_error(self, tmp_path, capsys, command, target, edit, named):
        assert_data_error_naming(
            tmp_path, capsys, command, target, edit, f"{named} is missing"
        )


def child_env() -> dict:
    """The environment of a child interpreter that imports the eprbm under
    test, installed or not."""
    src = str(Path(eprbm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


class TestMain:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_version_via_module_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "eprbm.cli", "--version"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert result.stdout.strip() == __version__

    def test_commands_load_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter that runs
        # every command must end with no scipy module loaded
        script = textwrap.dedent(
            """
            import json, sys
            from eprbm.cli import main
            data, model, table, report = sys.argv[1:]
            codes = [
                main(["simulate", "--trials", "200", "--seed", "1", "--out", data]),
                main(["train", "--data", data, "--out", model, "--seed", "1",
                      "--epochs", "1"]),
                main(["eval", "--model", model, "--data", data, "--out", table]),
                main(["diagnose", "--model", model, "--out", report]),
            ]
            scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print(json.dumps([codes, scipy]))
            """
        )
        outputs = [
            str(tmp_path / name)
            for name in ("trials.csv", "model.json", "eval.csv", "report.json")
        ]
        result = subprocess.run(
            [sys.executable, "-c", script, *outputs],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        codes, scipy = json.loads(result.stdout.splitlines()[-1])
        assert codes == [EXIT_OK] * 4
        assert scipy == []

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        assert [re.match(r"[\w.-]+", dep)[0] for dep in dependencies] == ["numpy"]

    def test_declared_entry_point_resolves_to_main(self):
        # the console script that an install generates calls this target,
        # the same main that `python -m eprbm.cli` runs above
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["eprbm"] == "eprbm.cli:main"
        entry = importlib.metadata.EntryPoint(
            name="eprbm", value=scripts["eprbm"], group="console_scripts"
        )
        assert entry.load() is main

    @pytest.mark.skipif(
        not eprbm_installed(),
        reason="eprbm distribution not installed; "
        "install it with `pip install -e . --no-build-isolation`",
    )
    def test_entry_point_installed(self):
        exe = shutil.which("eprbm")
        assert exe is not None
        result = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == __version__
