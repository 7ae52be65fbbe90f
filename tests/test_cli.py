"""End-to-end command-line workflows."""

import csv
import json
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import hsunmix.cli
import hsunmix.experiment
from hsunmix.cli import VARIANT_CHOICES, build_parser, main
from hsunmix.clustering import FCM_CLUSTERS, FCM_M, FCM_MAX_ITER, FCM_TOL, fcm
from hsunmix.experiment import (
    _FCM, _INIT, _SCENE, ExperimentSpec, derive_seed, initial_estimates, needs_clusters, parse_experiment_spec,
    run_cell, run_experiment, write_rows_csv,
)
from hsunmix.fileio import read_cube, read_spectral_library, write_cube, write_spectral_library
from hsunmix.metrics import evaluate
from hsunmix.synth import (
    SCENE_ENDMEMBERS, SCENE_FILTER, SCENE_HEIGHT, SCENE_PATCH, SCENE_PURITY_CAP, SCENE_WIDTH, bundled_library,
    generate_synthetic,
)
from hsunmix.types import (
    AlgorithmVariant, HyperspectralImage, SignatureMatrix, UnmixingConfig, resolve_variant, validate_abundances,
)
from hsunmix.unmix import run_unmixing


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    rc = main(
        [
            "synth", "--c", "3", "--width", "8", "--height", "8",
            "--patch", "4", "--filter", "3", "--snr", "25",
            "--seed", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def degenerate_dir(tmp_path_factory):
    """A 12 x 12 scene saved twice: with one zeroed pixel and with one zeroed band."""
    out = tmp_path_factory.mktemp("degenerate")
    rc = main(
        [
            "synth", "--c", "3", "--width", "12", "--height", "12",
            "--patch", "4", "--filter", "3", "--seed", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    Y = read_cube(out / "Y.cube")
    pixel, band = Y.data.copy(), Y.data.copy()
    pixel[:, 5] = 0.0
    band[10, :] = 0.0
    write_cube(out / "pixel.cube", HyperspectralImage(pixel, Y.width, Y.height))
    write_cube(out / "band.cube", HyperspectralImage(band, Y.width, Y.height))
    return out


OFF_SIMPLEX = "abundance columns must be nonnegative and sum to 1 within 1e-09"


def off_simplex_truth(scene_dir, tmp_path):
    """The scene's true abundances with column 0 doubled, so it sums to 2."""
    S = read_cube(scene_dir / "S_true.cube")
    data = S.data.copy()
    data[:, 0] *= 2.0
    bad = tmp_path / "badS.cube"
    write_cube(bad, HyperspectralImage(data, S.width, S.height))
    return bad


class TestSynthCommand:
    def test_writes_reloadable_scene(self, scene_dir):
        Y = read_cube(scene_dir / "Y.cube")
        A = read_spectral_library(scene_dir / "A_true.csv")
        S = read_cube(scene_dir / "S_true.cube")
        assert (Y.width, Y.height, Y.n_bands) == (8, 8, 224)
        assert A.data.shape == (224, 3)
        assert S.data.shape == (3, 64)
        assert np.all(S.data >= 0)
        assert np.allclose(S.data.sum(axis=0), 1.0, rtol=0, atol=1e-9)

    def test_infinite_snr_is_noiseless(self, tmp_path):
        out = tmp_path / "clean"
        rc = main(
            [
                "synth", "--c", "3", "--width", "6", "--height", "6",
                "--patch", "3", "--filter", "3", "--snr", "inf",
                "--seed", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        Y = read_cube(out / "Y.cube").data
        A = read_spectral_library(out / "A_true.csv").data
        S = read_cube(out / "S_true.cube").data
        assert np.array_equal(Y, A @ S)

    def test_true_signatures_keep_the_library_names_and_wavelengths(self, scene_dir):
        library = bundled_library()
        A = read_spectral_library(scene_dir / "A_true.csv")
        assert len(A.names) == 3 and set(A.names) <= set(library.names)
        columns = [library.names.index(name) for name in A.names]
        assert np.array_equal(A.data, library.data[:, columns])
        assert np.array_equal(A.wavelengths, library.wavelengths)

    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    def test_an_snr_beyond_a_doubles_power_ratio_is_a_usage_error(self, tmp_path, capsys, snr):
        out = tmp_path / "x"
        rc = main(["synth", "--c", "3", "--width", "6", "--height", "6", "--patch", "3",
                   "--filter", "3", f"--snr={snr}", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: snr_db = {snr} gives a power ratio beyond the range of a double\n"
        assert not out.exists()

    def test_even_filter_size_is_a_usage_error(self, tmp_path, capsys):
        rc = main(
            [
                "synth", "--c", "3", "--width", "6", "--height", "6",
                "--patch", "3", "--filter", "4", "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [0.5, 0.9])
    def test_purity_cap_caps_the_true_abundances(self, tmp_path, cap):
        out = tmp_path / "capped"
        rc = main(["synth", "--c", "3", "--width", "8", "--height", "8", "--patch", "4", "--filter", "3",
                   "--purity-cap", str(cap), "--seed", "1", "--out", str(out)])
        assert rc == 0
        # the 2 x 2 core of each 4 x 4 patch is pure before the cap
        assert cap - 1e-9 < read_cube(out / "S_true.cube").data.max() <= cap

    def test_a_bad_library_names_its_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wavelength,a,b\n1.0,0.1,0.2\n2.0,0.3\n")
        rc = main(["synth", "--library", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}, line 3: expected 3 fields, got 2\n"


@pytest.mark.parametrize("command", ["synth", "cluster", "unmix"])
def test_negative_seed_is_a_named_usage_error(scene_dir, tmp_path, capsys, command):
    cube = [] if command == "synth" else [str(scene_dir / "Y.cube")]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *cube, "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


class TestClusterCommand:
    def test_writes_memberships_and_labels(self, scene_dir, tmp_path):
        out = tmp_path / "fcm"
        rc = main(
            [
                "cluster", str(scene_dir / "Y.cube"),
                "--clusters", "2", "--max-iter", "40", "--out", str(out),
            ]
        )
        assert rc == 0
        u = read_cube(out / "memberships.cube")
        labels = read_cube(out / "labels.cube")
        assert u.data.shape == (2, 64)
        assert np.allclose(u.data.sum(axis=0), 1.0, rtol=0, atol=1e-9)
        assert labels.data.shape == (1, 64)
        assert set(np.unique(labels.data)) <= {0.0, 1.0}

    @pytest.mark.parametrize("flag,value,setting", [("--m", "1.5", "m"), ("--tol", "0.001", "tol")])
    def test_settings_reach_fcm(self, scene_dir, tmp_path, monkeypatch, flag, value, setting):
        seen = []

        def recording_fcm(Y, n_clusters, **kwargs):
            seen.append(kwargs)
            return fcm(Y, n_clusters, **kwargs)

        monkeypatch.setattr(hsunmix.cli, "fcm", recording_fcm)
        rc = main(["cluster", str(scene_dir / "Y.cube"), "--clusters", "2", "--max-iter", "5",
                   flag, value, "--out", str(tmp_path / "fcm")])
        assert rc == 0
        assert [kwargs[setting] for kwargs in seen] == [float(value)]


class TestUnmixCommand:
    def test_nmf_with_scoring(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "est"
        rc = main(
            [
                "unmix", str(scene_dir / "Y.cube"),
                "--variant", "nmf", "--endmembers", "3", "--max-iter", "5",
                "--truth-a", str(scene_dir / "A_true.csv"),
                "--truth-s", str(scene_dir / "S_true.cube"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "nmf" in capsys.readouterr().out
        A = read_spectral_library(out / "A_est.csv")
        S = read_cube(out / "S_est.cube")
        assert A.data.shape == (224, 3)
        assert S.data.shape == (3, 64)
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert list(report) == [
            "config", "per_endmember_sad", "rms_sad", "rms_aad",
            "matching", "cost_trace",
        ]
        assert isinstance(report["rms_sad"], float)
        assert len(report["per_endmember_sad"]) == 3
        assert 1 <= len(report["cost_trace"]) <= 5

    def test_report_without_truth_has_null_metrics(self, scene_dir, tmp_path):
        out = tmp_path / "plain"
        rc = main(
            [
                "unmix", str(scene_dir / "Y.cube"),
                "--variant", "nmf", "--endmembers", "3", "--max-iter", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["rms_sad"] is None
        assert report["matching"] is None
        assert len(report["cost_trace"]) >= 1

    @pytest.mark.parametrize("flag,value,key", [
        ("--mu", "0.01", "mu"), ("--eta", "0.3", "eta"), ("--sparsity-weight", "0.2", "sparsity_weight"),
    ])
    def test_solver_flags_land_in_the_report_config(self, scene_dir, tmp_path, flag, value, key):
        out = tmp_path / "o"
        rc = main(["unmix", str(scene_dir / "Y.cube"), "--endmembers", "3", "--clusters", "2",
                   "--max-iter", "2", flag, value, "--out", str(out)])
        assert rc == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config == dict(asdict(UnmixingConfig(max_iter=2)), clusters=2, seed=0, **{key: float(value)})

    @pytest.mark.parametrize("flag", [["--clusters", "4"], ["--clusters=4"]], ids=["space", "equals"])
    def test_clusters_flag_warns_for_non_clustered_variant(
        self, scene_dir, tmp_path, capsys, flag
    ):
        rc = main(
            [
                "unmix", str(scene_dir / "Y.cube"),
                "--variant", "nmf", "--endmembers", "3", *flag,
                "--max-iter", "2", "--out", str(tmp_path / "warned"),
            ]
        )
        assert rc == 0
        assert "--clusters has no effect" in capsys.readouterr().err

    def test_proposed_alias_writes_the_same_files(self, scene_dir, tmp_path):
        outs = []
        for variant in ("proposed", "clustered_sparse_distributed"):
            outs.append(tmp_path / variant)
            rc = main(
                [
                    "unmix", str(scene_dir / "Y.cube"),
                    "--variant", variant, "--endmembers", "3", "--clusters", "2",
                    "--max-iter", "5", "--out", str(outs[-1]),
                ]
            )
            assert rc == 0
        for name in ("A_est.csv", "S_est.cube", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_every_variant_choice_resolves_through_the_enum(self):
        resolved = {AlgorithmVariant(resolve_variant(choice)) for choice in VARIANT_CHOICES}
        assert resolved == set(AlgorithmVariant)

    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys):
        rc = main(
            ["unmix", str(tmp_path / "absent.cube"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cube,variant,message",
        [
            ("pixel", "proposed", "image contains a zero-spectrum pixel"),
            ("pixel", "distributed", "image contains a zero-spectrum pixel"),
            ("band", "proposed", "image has an all-zero band row"),
            ("band", "lq_nmf", "image has an all-zero band row"),
        ],
    )
    def test_degenerate_data_is_an_algorithm_failure(self, degenerate_dir, tmp_path, capsys, cube, variant, message):
        # the all-zero band breaks the sparsity weight's l1/l2 ratio, which
        # only a q < 1 run estimates
        q = ["--q", "0.5"] if cube == "band" else []
        rc = main(
            [
                "unmix", str(degenerate_dir / f"{cube}.cube"), "--variant", variant, *q,
                "--endmembers", "3", "--max-iter", "3", "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_all_zero_band_unmixes_at_q_1(self, degenerate_dir, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "unmix", str(degenerate_dir / "band.cube"), "--variant", "proposed",
                "--endmembers", "3", "--max-iter", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        assert validate_abundances(read_cube(out / "S_est.cube").data)

    @staticmethod
    def _unmix_without_initialization(monkeypatch, scene_dir, out, *flags):
        def no_start(*args, **kwargs):
            raise AssertionError("initialization ran")

        monkeypatch.setattr(hsunmix.cli, "initial_estimates", no_start)
        return main(
            [
                "unmix", str(scene_dir / "Y.cube"),
                "--variant", "nmf", "--endmembers", "3", "--max-iter", "2", *flags, "--out", str(out),
            ]
        )

    def test_truth_flags_must_come_in_pairs(self, scene_dir, tmp_path, capsys, monkeypatch):
        rc = self._unmix_without_initialization(
            monkeypatch, scene_dir, tmp_path / "half", "--truth-a", str(scene_dir / "A_true.csv")
        )
        assert rc == 2
        assert "together" in capsys.readouterr().err

    def test_a_missing_truth_file_fails_before_initialization(self, scene_dir, tmp_path, capsys, monkeypatch):
        rc = self._unmix_without_initialization(
            monkeypatch, scene_dir, tmp_path / "o",
            "--truth-a", str(scene_dir / "A_true.csv"), "--truth-s", str(tmp_path / "absent.cube"),
        )
        assert rc == 2
        assert "absent.cube" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_bad_truth_cube_names_its_file(self, scene_dir, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.cube"
        bad.write_bytes(b"HSCUBE01\x01\x00")
        rc = self._unmix_without_initialization(
            monkeypatch, scene_dir, tmp_path / "o", "--truth-a", str(scene_dir / "A_true.csv"), "--truth-s", str(bad),
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: truncated header: expected 22 bytes, got 10\n"

    def test_a_truth_cube_holding_nan_names_its_file(self, scene_dir, tmp_path, capsys, monkeypatch):
        raw = bytearray((scene_dir / "S_true.cube").read_bytes())
        raw[22:30] = np.array(np.nan, dtype="<f8").tobytes()  # the first payload entry
        bad = tmp_path / "nan.cube"
        bad.write_bytes(bytes(raw))
        rc = self._unmix_without_initialization(
            monkeypatch, scene_dir, tmp_path / "o", "--truth-a", str(scene_dir / "A_true.csv"), "--truth-s", str(bad),
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: image entries must be finite\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--truth-a", "A_true.csv", "--truth-s", "S_true.cube", "--endmembers", "2"],
             "--truth-a {dir}/A_true.csv is 224 x 3, expected 224 x 2 (bands x endmembers)"),
            (["--truth-a", "A_true.csv", "--truth-s", "Y.cube"],
             "--truth-s {dir}/Y.cube is 224 x 64, expected 3 x 64 (endmembers x pixels)"),
        ],
        ids=["signatures", "abundances"],
    )
    def test_truth_of_the_wrong_shape_fails_before_initialization(
        self, scene_dir, tmp_path, capsys, monkeypatch, flags, message
    ):
        flags = [str(scene_dir / f) if f.endswith((".csv", ".cube")) else f for f in flags]
        rc = self._unmix_without_initialization(monkeypatch, scene_dir, tmp_path / "o", *flags)
        assert rc == 2
        assert capsys.readouterr().err == "error: " + message.format(dir=scene_dir) + "\n"
        assert not (tmp_path / "o").exists()

    def test_truth_abundances_off_the_simplex_fail_before_clustering(
        self, scene_dir, tmp_path, capsys, monkeypatch
    ):
        bad = off_simplex_truth(scene_dir, tmp_path)

        def no_step(*args, **kwargs):
            raise AssertionError("clustering or the solve ran")

        monkeypatch.setattr(hsunmix.cli, "fcm", no_step)
        monkeypatch.setattr(hsunmix.cli, "run_unmixing", no_step)
        rc = self._unmix_without_initialization(
            monkeypatch, scene_dir, tmp_path / "o", "--truth-a", str(scene_dir / "A_true.csv"), "--truth-s", str(bad),
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: --truth-s {bad}: {OFF_SIMPLEX}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("variant", ["nmf", "proposed"])
    def test_a_cluster_count_below_one_fails_before_initialization(
        self, scene_dir, tmp_path, capsys, monkeypatch, variant
    ):
        rc = self._unmix_without_initialization(
            monkeypatch, scene_dir, tmp_path / "o", "--variant", variant, "--clusters", "0"
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: clusters must be at least 1\n"
        assert not (tmp_path / "o").exists()

    def test_an_infinite_eps_fails_before_initialization(self, scene_dir, tmp_path, capsys, monkeypatch):
        rc = self._unmix_without_initialization(monkeypatch, scene_dir, tmp_path / "o", "--eps", "inf")
        assert rc == 2
        assert capsys.readouterr().err == "error: eps must be positive and finite\n"
        assert not (tmp_path / "o").exists()

    def test_a_cluster_count_beyond_the_pixels_fails_before_initialization(
        self, scene_dir, tmp_path, capsys, monkeypatch
    ):
        rc = self._unmix_without_initialization(
            monkeypatch, scene_dir, tmp_path / "o", "--variant", "proposed", "--clusters", "5000"
        )
        assert rc == 2
        assert "n_clusters must lie in [1, pixel count]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestEvalCommand:
    def test_truth_against_itself_scores_zero(self, scene_dir, tmp_path, capsys):
        report_path = tmp_path / "scores.json"
        rc = main(
            [
                "eval",
                "--truth-a", str(scene_dir / "A_true.csv"),
                "--truth-s", str(scene_dir / "S_true.cube"),
                "--est-a", str(scene_dir / "A_true.csv"),
                "--est-s", str(scene_dir / "S_true.cube"),
                "--out", str(report_path),
            ]
        )
        assert rc == 0
        assert "rms_sad 0" in capsys.readouterr().out
        with open(report_path) as fh:
            payload = json.load(fh)
        assert payload["rms_sad"] == 0.0
        assert payload["rms_aad"] == 0.0
        assert payload["matching"] == [0, 1, 2]

    def test_truth_abundances_off_the_simplex_are_refused(self, scene_dir, tmp_path, capsys):
        bad = off_simplex_truth(scene_dir, tmp_path)
        rc = main(
            [
                "eval",
                "--truth-a", str(scene_dir / "A_true.csv"), "--truth-s", str(bad),
                "--est-a", str(scene_dir / "A_true.csv"), "--est-s", str(scene_dir / "S_true.cube"),
                "--out", str(tmp_path / "scores.json"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: --truth-s {bad}: {OFF_SIMPLEX}\n"
        assert not (tmp_path / "scores.json").exists()

    def test_out_is_a_report_with_the_scores_of_unmix(self, scene_dir, tmp_path):
        truth = ["--truth-a", str(scene_dir / "A_true.csv"), "--truth-s", str(scene_dir / "S_true.cube")]
        fit = tmp_path / "fit"
        assert main(["unmix", str(scene_dir / "Y.cube"), "--variant", "nmf", "--endmembers", "3",
                     "--max-iter", "5", *truth, "--out", str(fit)]) == 0
        assert main(["eval", *truth, "--est-a", str(fit / "A_est.csv"), "--est-s", str(fit / "S_est.cube"),
                     "--out", str(tmp_path / "scores.json")]) == 0
        scores = json.loads((tmp_path / "scores.json").read_text())
        assert list(scores) == ["config", "per_endmember_sad", "rms_sad", "rms_aad", "matching", "cost_trace"]
        assert scores["config"] == {} and scores["cost_trace"] == []
        unmix_report = json.loads((fit / "report.json").read_text())
        for key in ("per_endmember_sad", "rms_sad", "rms_aad", "matching"):
            assert scores[key] == unmix_report[key], key
        assert scores["rms_sad"] > 0


SPEC_TEXT = """\
# tiny sweep for tests
variants = nmf, proposed
snr_levels = 25
cluster_counts = 2
runs = 2
width = 8
height = 8
endmembers = 3
patch = 4
filter_size = 3
max_iter = 5
fcm_max_iter = 30
"""


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestExperimentCommand:
    def test_sweep_row_counts_and_aggregate_means(self, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(SPEC_TEXT)
        out = tmp_path / "results"
        rc = main(["experiment", str(spec_path), "--out", str(out), "--quiet"])
        assert rc == 0

        header, rows = read_csv(out / "runs.csv")
        assert header == [
            "variant", "snr_db", "clusters", "run",
            "rms_sad", "rms_aad", "iterations", "stop_reason",
        ]
        assert len(rows) == 4  # 2 variants x 1 snr x 1 cluster count x 2 runs
        variants = [r[0] for r in rows]
        assert variants == ["nmf", "nmf",
                            "clustered_sparse_distributed",
                            "clustered_sparse_distributed"]

        agg_header, agg_rows = read_csv(out / "aggregate.csv")
        assert agg_header == ["variant", "snr_db", "clusters", "rms_sad", "rms_aad"]
        assert len(agg_rows) == 2
        # the aggregate is the exact mean of the per-run values
        for agg in agg_rows:
            group = [r for r in rows if r[0] == agg[0]]
            assert float(agg[3]) == sum(float(r[4]) for r in group) / len(group)
            assert float(agg[4]) == sum(float(r[5]) for r in group) / len(group)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(SPEC_TEXT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", str(spec_path), "--out", str(out1), "--quiet"]) == 0
        assert main(["experiment", str(spec_path), "--out", str(out2), "--quiet"]) == 0
        for name in ("runs.csv", "aggregate.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_spec_is_a_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.spec"
        spec_path.write_text("bogus = 3\n")
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_none_for_a_required_setting_is_a_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.spec"
        spec_path.write_text("runs = 1\nmu = none\n")
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: line 2" in capsys.readouterr().err

    def test_bad_solver_setting_fails_before_any_scene(self, tmp_path, capsys, monkeypatch):
        def no_scene(*args, **kwargs):
            raise AssertionError("a scene was generated")

        monkeypatch.setattr(hsunmix.experiment, "generate_synthetic", no_scene)
        spec_path = tmp_path / "bad.spec"
        spec_path.write_text("runs = 1\nmu = -1\n")
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: line 2: mu must be positive and finite" in capsys.readouterr().err

    def test_bad_fcm_setting_fails_before_any_scene(self, tmp_path, capsys, monkeypatch):
        def no_scene(*args, **kwargs):
            raise AssertionError("a scene was generated")

        monkeypatch.setattr(hsunmix.experiment, "generate_synthetic", no_scene)
        spec_path = tmp_path / "bad.spec"
        spec_path.write_text("variants = nmf, proposed\nfcm_m = 1.0\n")
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: line 2: fuzzifier m must exceed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("fix", ["false", "true"])
    def test_more_endmembers_than_the_library_fails_before_the_pool(self, tmp_path, capsys, monkeypatch, fix):
        def no_pool(*args, **kwargs):
            raise AssertionError("the worker pool started")

        monkeypatch.setattr(hsunmix.experiment, "ProcessPoolExecutor", no_pool)
        spec_path = tmp_path / "wide.spec"
        spec_path.write_text(f"variants = nmf\nruns = 1\nendmembers = 9\nfix_signatures = {fix}\n")
        rc = main(["experiment", str(spec_path), "--jobs", "2", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: endmembers = 9 exceeds the 8 signatures of the library\n"

    def test_without_quiet_each_row_prints_one_progress_line(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(SPEC_TEXT)
        out = tmp_path / "results"
        assert main(["experiment", str(spec_path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"wrote 4 runs and 2 aggregate rows to {out}"
        pattern = re.compile(r"\[(\d+)/4\] (\w+) snr=(\S+) clusters=(\d+) run=(\d+) rms_sad=(\S+)")
        printed = [pattern.fullmatch(line) for line in lines[:-1]]
        assert all(printed), lines
        assert [int(m[1]) for m in printed] == [1, 2, 3, 4]
        _, rows = read_csv(out / "runs.csv")
        want = [(r[0], f"{float(r[1]):g}", r[2], r[3], f"{float(r[4]):.4g}") for r in rows]
        assert sorted(m.groups()[1:] for m in printed) == sorted(want)

    def test_a_spec_library_is_the_one_the_sweep_draws_from(self, tmp_path):
        lib_path = tmp_path / "coarse.csv"
        write_spectral_library(lib_path, SignatureMatrix(bundled_library().data[::8]))
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(SPEC_TEXT + f"library = {lib_path}\n")
        out = tmp_path / "results"
        assert main(["experiment", str(spec_path), "--out", str(out), "--quiet"]) == 0
        rows, _ = run_experiment(parse_experiment_spec(spec_path.read_text()),
                                 read_spectral_library(lib_path).data)
        write_rows_csv(tmp_path / "want.csv", rows)
        assert (out / "runs.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(SPEC_TEXT)
        rc = main(["experiment", str(spec_path), "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert rc == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


class TestSpecParsing:
    def test_full_grammar(self):
        spec = parse_experiment_spec(
            "# leading comment\n"
            "variants = nmf , proposed\n"
            "snr_levels = 15, 25  # trailing comment\n"
            "cluster_counts = 2,3\n"
            "runs = 4\n"
            "sparsity_weight = none\n"
            "library = none\n"
            "fix_signatures = true\n"
            "\n"
        )
        assert spec.variants == ("nmf", "clustered_sparse_distributed")
        assert spec.snr_levels == (15.0, 25.0)
        assert spec.cluster_counts == (2, 3)
        assert spec.runs == 4
        assert spec.sparsity_weight is None
        assert spec.library is None
        assert spec.fix_signatures is True
        assert spec.n_cells == 2 * 2 * 2 * 4

    def test_defaults_from_empty_text(self):
        spec = parse_experiment_spec("")
        assert spec.variants == ("clustered_sparse_distributed",)
        assert spec.snr_levels == (15.0, 20.0, 25.0, 30.0, 35.0)
        assert spec.runs == 20

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ValueError, match=r"line 2: unknown key 'bogus'"):
            parse_experiment_spec("runs = 2\nbogus = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match=r"line 3: duplicate key 'runs'"):
            parse_experiment_spec("runs = 2\n# note\nruns = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match=r"line 1: expected 'key = value'"):
            parse_experiment_spec("just words\n")

    def test_bad_integer_reports_line(self):
        with pytest.raises(ValueError, match=r"line 1"):
            parse_experiment_spec("runs = many\n")

    def test_bad_bool_reports_line(self):
        with pytest.raises(ValueError, match=r"line 1: expected true/false"):
            parse_experiment_spec("fix_signatures = yes\n")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            parse_experiment_spec("variants = magic\n")

    @pytest.mark.parametrize("key", ["mu", "purity_cap", "runs", "fix_signatures"])
    def test_none_only_for_optional_keys(self, key):
        with pytest.raises(ValueError, match=r"line 2"):
            parse_experiment_spec(f"runs = 2\n{key} = none\n")

    @pytest.mark.parametrize(
        "text", ["mu = -1", "eta = -0.5", "q = 0", "eps = 0", "variants = nmf, lq_nmf\nq_lq = 2"]
    )
    def test_bad_solver_settings_rejected_at_parse_time(self, text):
        with pytest.raises(ValueError):
            parse_experiment_spec(text + "\n")

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("runs = 1\nmu = -1", 2, "mu must be positive and finite"),
            ("eps = inf", 1, "eps must be positive and finite"),
            ("variants = nmf, lq_nmf\nq_lq = 2", 2, "q must lie in (0, 1]"),
            ("q_lq = 2\n# the q_lq line is valid until lq_nmf runs\nvariants = lq_nmf", 3,
             "q must lie in (0, 1]"),
            ("runs = 2\ninit = none", 2, "init must be 'vca' or 'random'"),
            ("runs = 1\nfcm_m = 1.0", 2, "fuzzifier m must exceed 1"),
            ("runs = 1\nfilter_size = 4", 2, "filter_size must be odd and positive"),
            ("runs = 1\nsnr_levels = 25, nan", 2, "snr_db must be a finite value or +inf"),
            ("runs = 1\nsnr_levels = 25, 4000", 2, "snr_db = 4000 gives a power ratio beyond the range of a double"),
            ("variants = nmf, proposed\nwidth = 2\nheight = 2", 3,
             "cluster count 6 exceeds the 4 pixels of a 2 x 2 scene"),
            ("variants = nmf\nwidth = 2\nheight = 2\nendmembers = 6", 3,
             "endmember count 6 exceeds the 4 pixels of a 2 x 2 scene"),
            ("variants = nmf\nwidth = 2\nheight = 2\nendmembers = 5", 4,
             "endmember count 5 exceeds the 4 pixels of a 2 x 2 scene"),
            ("runs = 1\nvariants = proposed, clustered_sparse_distributed", 2,
             "variants lists clustered_sparse_distributed twice"),
            ("snr_levels = 20, 25, 20\nruns = 1", 1, "snr_levels lists 20.0 twice"),
            ("cluster_counts = 6, 6", 1, "cluster_counts lists 6 twice"),
            # checked for every variant: a count below 1 has no meaning anywhere
            ("variants = nmf\ncluster_counts = 0", 2, "clusters must be at least 1"),
            ("runs = 1\ncluster_counts = 6, 0\nvariants = proposed", 2, "clusters must be at least 1"),
            # numpy refuses a negative seed only when the first cell derives its seeds
            ("runs = 1\nseed = -3", 2, "seed must be at least 0"),
        ],
    )
    def test_spec_level_errors_name_the_line_that_made_them(self, text, line, message):
        with pytest.raises(ValueError) as info:
            parse_experiment_spec(text + "\n")
        assert str(info.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("field", ["runs", "width", "endmembers", "max_iter", "fcm_max_iter", "seed"])
    def test_a_fractional_count_fails_at_construction(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 2.5$"):
            ExperimentSpec(**{field: 2.5})

    def test_a_fractional_cluster_count_is_not_truncated(self):
        with pytest.raises(ValueError, match="^cluster_counts must be an integer, got 2.5$"):
            ExperimentSpec(cluster_counts=(2.5,))

    def test_numpy_integers_are_stored_as_int(self):
        spec = ExperimentSpec(runs=np.int64(2), cluster_counts=(np.int64(3),), max_iter=np.int32(7))
        assert (spec.runs, spec.cluster_counts, spec.max_iter) == (2, (3,), 7)
        assert type(spec.runs) is type(spec.cluster_counts[0]) is type(spec.max_iter) is int

    @pytest.mark.parametrize("init", ["VCA", "bogus"])
    def test_an_unknown_init_is_rejected_by_the_spec_and_the_initializer(self, scene_dir, init):
        with pytest.raises(ValueError, match=r"^init must be 'vca' or 'random'$"):
            ExperimentSpec(init=init)
        with pytest.raises(ValueError, match=r"^init must be 'vca' or 'random'$"):
            initial_estimates(read_cube(scene_dir / "Y.cube"), 3, init, 0)

    def test_solver_defaults_are_the_config_defaults(self):
        spec = parse_experiment_spec("")
        cfg = spec.config(spec.variants[0])
        assert cfg == UnmixingConfig()
        assert spec.config("lq_nmf").q == spec.q_lq

    def test_fcm_defaults_are_the_clustering_defaults(self):
        spec = parse_experiment_spec("")
        assert (spec.fcm_m, spec.fcm_tol, spec.fcm_max_iter) == (FCM_M, FCM_TOL, FCM_MAX_ITER)
        args = build_parser().parse_args(["cluster", "Y.cube", "--out", "out"])
        assert (args.m, args.tol, args.max_iter) == (FCM_M, FCM_TOL, FCM_MAX_ITER)

    def test_fcm_settings_are_checked_only_when_a_variant_clusters(self):
        assert parse_experiment_spec("variants = nmf\nfcm_m = 1.0\n").fcm_m == 1.0
        assert parse_experiment_spec("variants = nmf\nendmembers = 3\nwidth = 2\nheight = 2\n").cluster_counts == (6,)

    def test_endmembers_are_checked_against_the_pixels_only_under_vca(self):
        # a random start needs no pixel per endmember: the spec runs to the end
        spec = parse_experiment_spec(
            "variants = nmf\ninit = random\nwidth = 2\nheight = 2\nendmembers = 6\n"
            "snr_levels = 25\nruns = 1\nmax_iter = 3\n"
        )
        rows, _ = run_experiment(spec, bundled_library().data)
        assert [row["iterations"] for row in rows] == [3]
        assert parse_experiment_spec("width = 2\nheight = 2\nendmembers = 4\ncluster_counts = 4\n").endmembers == 4

    def test_scene_defaults_are_the_synth_defaults(self):
        scene = (SCENE_ENDMEMBERS, SCENE_WIDTH, SCENE_HEIGHT, SCENE_PATCH, SCENE_FILTER, SCENE_PURITY_CAP)
        spec = parse_experiment_spec("")
        assert (spec.endmembers, spec.width, spec.height, spec.patch, spec.filter_size, spec.purity_cap) == scene
        args = build_parser().parse_args(["synth", "--out", "out"])
        assert (args.c, args.width, args.height, args.patch, args.filter, args.purity_cap) == scene
        args = build_parser().parse_args(["unmix", "Y.cube", "--out", "out"])
        assert args.endmembers == SCENE_ENDMEMBERS
        args = build_parser().parse_args(["cluster", "Y.cube", "--out", "out"])
        assert args.clusters == FCM_CLUSTERS


TINY_SPEC = """\
variants = nmf, proposed
snr_levels = 20, 30
cluster_counts = 2
runs = 2
width = 8
height = 8
endmembers = 3
patch = 4
filter_size = 3
max_iter = 3
fcm_max_iter = 10
"""


def in_group_order(spec, rows):
    """``rows`` in the order their groups return: (snr, run), then (variant, cluster count)."""
    return sorted(rows, key=lambda r: (spec.snr_levels.index(r["snr_db"]), r["run"],
                                       spec.variants.index(r["variant"]), spec.cluster_counts.index(r["clusters"])))


class TestRunExperiment:
    def test_parallel_rows_and_progress_match_serial(self):
        spec = parse_experiment_spec(TINY_SPEC)
        library = bundled_library().data
        results, progress = {}, {}
        for jobs in (1, 2):
            calls = []
            rows, aggregates = run_experiment(
                spec, library, jobs=jobs,
                progress=lambda done, total, row: calls.append((done, total, row)),
            )
            n = spec.n_cells
            assert [(done, total) for done, total, _ in calls] == [(i, n) for i in range(1, n + 1)]
            assert [row for _, _, row in calls] == in_group_order(spec, rows)
            results[jobs], progress[jobs] = (rows, aggregates), calls
        assert results[2] == results[1]
        assert progress[2] == progress[1]

    def test_each_group_is_reported_before_the_next_one_starts(self, monkeypatch):
        events = []
        real_synth = hsunmix.experiment.generate_synthetic

        def logged_synth(*args, **kwargs):
            events.append(("synth", kwargs["snr_db"]))
            return real_synth(*args, **kwargs)

        monkeypatch.setattr(hsunmix.experiment, "generate_synthetic", logged_synth)
        spec = ExperimentSpec(**MIXED_SPEC)
        run_experiment(spec, bundled_library().data,
                       progress=lambda done, total, row: events.append(("row", row["snr_db"], row["run"])))
        per_group = len(spec.variants) * len(spec.cluster_counts)
        assert events == [
            event
            for snr in spec.snr_levels for run in range(spec.runs)
            for event in [("synth", snr)] + [("row", snr, run)] * per_group
        ]

    def test_clustering_follows_the_preset(self, monkeypatch):
        clustered = []
        real_fcm = hsunmix.experiment.fcm

        def counting_fcm(Y, n_clusters, **kwargs):
            clustered.append(n_clusters)
            return real_fcm(Y, n_clusters, **kwargs)

        monkeypatch.setattr(hsunmix.experiment, "fcm", counting_fcm)
        spec = ExperimentSpec(
            variants=tuple(v.value for v in AlgorithmVariant), snr_levels=(20,), cluster_counts=(2,),
            runs=1, width=8, height=8, endmembers=3, patch=4, filter_size=3, max_iter=3, fcm_max_iter=10,
        )
        rows, _ = run_experiment(spec, bundled_library().data)
        assert len(rows) == len(AlgorithmVariant)
        assert clustered == [2]

    @pytest.mark.parametrize("init", ["vca", "random"])
    def test_every_row_matches_the_pipeline_on_a_fresh_scene(self, init):
        # The cells of a group share one scene, start and clustering per
        # cluster count; a cell that wrote into them would change the rows
        # after it, which this oracle computes from scratch for every cell.
        spec = ExperimentSpec(**MIXED_SPEC, init=init)
        library = bundled_library().data
        rows, _ = run_experiment(spec, library)
        coords = product(range(3), range(2), range(2), range(2))
        for row, (vi, si, ci, run) in zip(rows, coords, strict=True):
            scene = generate_synthetic(
                library, **spec.scene_settings(spec.snr_levels[si]), seed=derive_seed(spec.seed, _SCENE, si, run)
            )
            A0, S0 = initial_estimates(scene.Y, spec.endmembers, init, derive_seed(spec.seed, _INIT, si, run))
            clusters = None
            if needs_clusters(spec.variants[vi]):
                clusters = fcm(
                    scene.Y, spec.cluster_counts[ci], seed=derive_seed(spec.seed, _FCM, si, ci, run),
                    m=spec.fcm_m, tol=spec.fcm_tol, max_iter=spec.fcm_max_iter,
                )
            result = run_unmixing(
                scene.Y, spec.config(spec.variants[vi]), A0, S0, clusters
            )
            report = evaluate(scene.A_true, scene.S_true, result)
            assert row == {
                "variant": spec.variants[vi], "snr_db": spec.snr_levels[si],
                "clusters": spec.cluster_counts[ci], "run": run,
                "rms_sad": report.rms_sad, "rms_aad": report.rms_aad,
                "iterations": result.iterations_run, "stop_reason": result.stop_reason.value,
            }
            assert run_cell(spec, library, vi, si, ci, run) == row

    @pytest.mark.parametrize(
        "variants,clusters", [(("proposed", "distributed", "fcls"), True), (("nmf", "fcls"), False)],
        ids=["clustered", "unclustered"],
    )
    def test_shared_work_runs_once_per_group(self, monkeypatch, variants, clusters):
        calls = {name: [] for name in ("generate_synthetic", "vca", "fcls_abundances", "fcm")}

        def counted(name):
            real = getattr(hsunmix.experiment, name)

            def wrapper(*args, **kwargs):
                calls[name].append(kwargs.get("seed"))
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(hsunmix.experiment, name, counted(name))
        spec = ExperimentSpec(**{**MIXED_SPEC, "variants": variants})
        rows, _ = run_experiment(spec, bundled_library().data)
        assert len(rows) == spec.n_cells
        groups = len(spec.snr_levels) * spec.runs
        for name in ("generate_synthetic", "vca", "fcls_abundances"):
            assert len(calls[name]) == groups, name
        assert len(set(calls["generate_synthetic"])) == len(set(calls["vca"])) == groups
        assert len(set(calls["fcm"])) == len(calls["fcm"]) == (groups * len(spec.cluster_counts) if clusters else 0)

    def test_each_distinct_problem_is_solved_once_per_group(self, monkeypatch):
        solved = []
        real_solve = hsunmix.experiment.run_unmixing

        def counting_solve(Y, cfg, A0, S0, clusters=None, **kwargs):
            solved.append((cfg.variant, None if clusters is None else clusters.memberships.shape[0]))
            return real_solve(Y, cfg, A0, S0, clusters, **kwargs)

        monkeypatch.setattr(hsunmix.experiment, "run_unmixing", counting_solve)
        spec = ExperimentSpec(**MIXED_SPEC)
        rows, _ = run_experiment(spec, bundled_library().data)
        assert len(rows) == spec.n_cells
        # the clustered variant once per cluster count, the others once
        per_group = [("clustered_sparse_distributed", 2), ("clustered_sparse_distributed", 3),
                     ("distributed", None), ("fcls", None)]
        assert solved == per_group * (len(spec.snr_levels) * spec.runs)

    @pytest.mark.parametrize("fix", [False, True])
    def test_fixed_signatures_are_the_same_columns_in_every_group(self, fix):
        spec = ExperimentSpec(variants=("nmf",), snr_levels=(20, 30), runs=2, width=8, height=8, endmembers=3,
                              patch=4, filter_size=3, max_iter=2, init="random", fix_signatures=fix)
        library = bundled_library().data
        truths = []
        for snr_idx, run in product(range(2), range(2)):
            group = {}
            run_cell(spec, library, 0, snr_idx, 0, run, group=group)
            truths.append(group["scene"].A_true.data)
        same = [np.array_equal(truth, truths[0]) for truth in truths[1:]]
        assert all(same) if fix else not any(same)

    def test_a_shared_solve_is_read_only(self):
        spec = ExperimentSpec(**MIXED_SPEC)
        library = bundled_library().data
        vi = spec.variants.index("distributed")
        group = {}
        first = run_cell(spec, library, vi, 0, 0, 0, group=group)
        result, _ = group[("distributed", None)]
        for array in (result.A.data, result.S.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        assert run_cell(spec, library, vi, 0, 1, 0, group=group) == {**first, "clusters": spec.cluster_counts[1]}

    def test_concurrent_calls_in_threads_match_serial(self):
        # Two sweeps that differ only in seed, started together in threads of
        # one process, must not see each other's scenes, starts or clusterings.
        library = bundled_library().data
        specs = [parse_experiment_spec(TINY_SPEC + f"seed = {seed}\n") for seed in (1, 2)]
        serial = [run_experiment(spec, library) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so the two sweeps interleave
        try:
            with ThreadPoolExecutor(max_workers=len(specs)) as pool:
                for _ in range(5):
                    barrier = threading.Barrier(len(specs), timeout=60)

                    def together(spec):
                        barrier.wait()
                        return run_experiment(spec, library)

                    assert list(pool.map(together, specs, timeout=300)) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_aggregates_are_the_means_of_each_cell(self):
        spec = ExperimentSpec(**{**MIXED_SPEC, "variants": ("nmf",), "cluster_counts": (2,)})
        rows, aggregates = run_experiment(spec, bundled_library().data)
        assert [a["rms_sad"] for a in aggregates] == [(rows[0]["rms_sad"] + rows[1]["rms_sad"]) / 2,
                                                       (rows[2]["rms_sad"] + rows[3]["rms_sad"]) / 2]

    def test_more_jobs_than_groups_match_serial(self):
        spec = ExperimentSpec(**{**MIXED_SPEC, "snr_levels": (25,), "runs": 1})
        library = bundled_library().data
        results = {}
        for jobs in (1, 2):
            calls = []
            results[jobs] = run_experiment(
                spec, library, jobs=jobs, progress=lambda done, total, row: calls.append((done, total, row)),
            )
            rows = in_group_order(spec, results[jobs][0])
            assert calls == [(i, spec.n_cells, row) for i, row in enumerate(rows, start=1)]
        assert results[2] == results[1]


# a clustered variant, an unclustered one and fcls; 2 SNRs x 2 cluster counts x 2 runs
MIXED_SPEC = dict(
    variants=("proposed", "distributed", "fcls"), snr_levels=(20, 30), cluster_counts=(2, 3), runs=2,
    width=8, height=8, endmembers=3, patch=4, filter_size=3, max_iter=4, fcm_max_iter=10,
)


def test_python_dash_m_runs_from_a_checkout():
    src = Path(hsunmix.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "hsunmix", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hsunmix")


def test_importing_the_cli_loads_no_scipy():
    # the package needs only NumPy at run time; scipy.sparse alone would add
    # about half to the start-up time and memory of every process
    src = Path(hsunmix.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, hsunmix, hsunmix.cli; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
