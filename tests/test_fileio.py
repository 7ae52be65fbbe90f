"""Binary cube format, spectral library CSV, and JSON run reports."""

import json
import os
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from hsunmix.errors import CubeFormatError, LibraryParseError
from hsunmix.fileio import (
    read_cube,
    read_spectral_library,
    write_cube,
    write_report,
    write_spectral_library,
)
from hsunmix.metrics import evaluate_matrices
from hsunmix.types import HyperspectralImage, SignatureMatrix, UnmixingConfig


def random_image(rng, width=4, height=3, bands=5):
    return HyperspectralImage(rng.random((bands, width * height)), width, height)


class TestCubeRoundtrip:
    def test_bit_identical_payload(self, tmp_path):
        rng = np.random.default_rng(0)
        img = random_image(rng)
        path = tmp_path / "a.cube"
        write_cube(path, img)
        back = read_cube(path)
        assert back.width == 4 and back.height == 3
        assert np.array_equal(back.data, img.data)
        assert back.data.tobytes() == img.data.tobytes()

    def test_single_band_single_pixel(self, tmp_path):
        img = HyperspectralImage(np.array([[0.25]]), 1, 1)
        path = tmp_path / "b.cube"
        write_cube(path, img)
        assert np.array_equal(read_cube(path).data, img.data)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        img = random_image(rng)
        p1, p2 = tmp_path / "c1.cube", tmp_path / "c2.cube"
        write_cube(p1, img)
        write_cube(p2, img)
        assert p1.read_bytes() == p2.read_bytes()

    def test_the_read_holds_one_copy_of_the_payload(self, tmp_path):
        # the payload is read into the image's own array; the entry checks
        # add one boolean mask of an eighth of it at a time, no second copy
        img = random_image(np.random.default_rng(3), width=50, height=50, bands=100)
        path = tmp_path / "big.cube"
        write_cube(path, img)
        tracemalloc.start()
        try:
            back = read_cube(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.data.tobytes() == img.data.tobytes()
        assert peak < 1.2 * img.data.nbytes, f"peak {peak / img.data.nbytes:.2f} x the payload"

    def test_the_write_makes_no_copy_of_the_payload(self, tmp_path):
        # the image's own buffer goes to the file, as the read fills one
        img = random_image(np.random.default_rng(5), width=50, height=50, bands=100)
        path = tmp_path / "big.cube"
        tracemalloc.start()
        try:
            write_cube(path, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_cube(path).data.tobytes() == img.data.tobytes()
        assert peak < 0.1 * img.data.nbytes, f"peak {peak / img.data.nbytes:.3f} x the payload"

    def test_a_pipe_is_refused(self, tmp_path):
        # its size is unknown before the read, and the header's claim alone
        # must not size an allocation
        write_cube(tmp_path / "a.cube", random_image(np.random.default_rng(4)))
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, (tmp_path / "a.cube").read_bytes())
            os.close(write_end)
            with pytest.raises(CubeFormatError, match="not a regular file"):
                read_cube(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)


class TestCubeErrors:
    def _valid_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "ok.cube"
        write_cube(path, random_image(rng))
        return bytearray(path.read_bytes())

    def test_bad_magic(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        raw[:8] = b"HSCUBEXX"
        bad = tmp_path / "bad.cube"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CubeFormatError) as err:
            read_cube(bad)
        assert str(err.value) == f"{bad}: bad magic b'HSCUBEXX' at offset 0 (expected b'HSCUBE01')"

    def test_truncated_payload_reports_sizes(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        bad = tmp_path / "short.cube"
        bad.write_bytes(bytes(raw[:-8]))
        with pytest.raises(CubeFormatError) as err:
            read_cube(bad)
        msg = str(err.value)
        assert msg.startswith(f"{bad}: truncated payload")
        assert str(len(raw) - 22) in msg  # expected payload size
        assert str(len(raw) - 22 - 8) in msg  # actual payload size

    def test_a_header_claiming_too_much_allocates_nothing(self, tmp_path):
        # 2^60 bytes declared: the file's size is checked before any allocation
        raw = self._valid_bytes(tmp_path)
        raw[8:20] = (2**19).to_bytes(4, "little") * 3
        bad = tmp_path / "huge.cube"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CubeFormatError) as err:
            read_cube(bad)
        assert str(err.value).startswith(f"{bad}: truncated payload: expected {2**60} bytes, got ")

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "tiny.cube"
        bad.write_bytes(b"HSCUBE01\x01\x00")
        with pytest.raises(CubeFormatError) as err:
            read_cube(bad)
        assert str(err.value).startswith(f"{bad}: truncated header")

    def test_zero_dimension_rejected(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        raw[8:12] = (0).to_bytes(4, "little")
        bad = tmp_path / "zdim.cube"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CubeFormatError) as err:
            read_cube(bad)
        assert str(err.value).startswith(f"{bad}: width must be positive")

    def test_unknown_dtype_rejected(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        raw[20] = 9
        bad = tmp_path / "dtype.cube"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CubeFormatError) as err:
            read_cube(bad)
        assert str(err.value).startswith(f"{bad}: unsupported dtype code 9")

    def test_trailing_garbage_rejected(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        bad = tmp_path / "long.cube"
        bad.write_bytes(bytes(raw) + b"\x00" * 16)
        with pytest.raises(CubeFormatError) as err:
            read_cube(bad)
        assert str(err.value).startswith(f"{bad}: oversized payload")

    @pytest.mark.parametrize(
        "entry,message",
        [(np.nan, "finite"), (np.inf, "finite"), (-0.5, "nonnegative")],
        ids=["nan", "inf", "negative"],
    )
    def test_an_invalid_entry_names_the_file(self, tmp_path, entry, message):
        raw = self._valid_bytes(tmp_path)
        raw[22:30] = np.array(entry, dtype="<f8").tobytes()  # the first payload entry
        bad = tmp_path / "entry.cube"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CubeFormatError) as err:
            read_cube(bad)
        assert str(err.value) == f"{bad}: image entries must be {message}"


class TestSpectralLibraryCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        sig = SignatureMatrix(
            rng.random((6, 2)) + 0.1,
            wavelengths=np.linspace(0.4, 2.5, 6),
            names=["alpha", "beta"],
        )
        path = tmp_path / "lib.csv"
        write_spectral_library(path, sig)
        back = read_spectral_library(path)
        assert np.array_equal(back.data, sig.data)
        assert np.array_equal(back.wavelengths, sig.wavelengths)
        assert list(back.names) == ["alpha", "beta"]

    def test_three_band_two_material(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("wavelength,a,b\n1.0,0.1,0.2\n2.0,0.3,0.4\n3.0,0.5,0.6\n")
        lib = read_spectral_library(path)
        assert lib.data.shape == (3, 2)
        assert np.array_equal(lib.data, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])

    def test_single_material(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("wavelength,solo\n1.0,0.5\n2.0,0.25\n")
        assert read_spectral_library(path).data.shape == (2, 1)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(LibraryParseError) as err:
            read_spectral_library(path)
        assert str(err.value) == f"{path}, line 1: empty library file"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("nm,a\n1.0,0.5\n")
        with pytest.raises(LibraryParseError) as err:
            read_spectral_library(path)
        assert str(err.value) == f"{path}, line 1: header must be 'wavelength,<name>[,<name>...]'"

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("wavelength,a,b\n1.0,0.1,0.2\n2.0,0.3\n")
        with pytest.raises(LibraryParseError) as err:
            read_spectral_library(path)
        assert str(err.value) == f"{path}, line 3: expected 3 fields, got 2"

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("wavelength,a\n1.0,zero\n")
        with pytest.raises(LibraryParseError) as err:
            read_spectral_library(path)
        assert str(err.value).startswith(f"{path}, line 2: non-numeric value")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2.0,nan,0.2", "finite"),
            ("2.0,0.1,inf", "finite"),
            ("-inf,0.1,0.2", "finite"),
            ("2.0,-0.1,0.2", "nonnegative"),
        ],
    )
    def test_bad_values_rejected_with_their_line(self, tmp_path, row, message):
        path = tmp_path / "values.csv"
        path.write_text(f"wavelength,a,b\n1.0,0.1,0.2\n{row}\n3.0,0.5,0.6\n")
        with pytest.raises(LibraryParseError, match=message) as err:
            read_spectral_library(path)
        assert str(err.value).startswith(f"{path}, line 3: ")


class TestReportJson:
    def _report(self):
        rng = np.random.default_rng(4)
        A = rng.random((6, 3)) + 0.1
        S = rng.dirichlet(np.ones(3), size=8).T
        return evaluate_matrices(A, S, rng.random((6, 3)) + 0.1, S)

    def test_roundtrip_values(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        write_report(path, report, [3.5, 2.25, 2.0], asdict(UnmixingConfig()))
        doc = json.loads(path.read_text())
        assert doc["rms_sad"] == report.rms_sad
        assert doc["rms_aad"] == report.rms_aad
        assert doc["per_endmember_sad"] == list(report.per_endmember_sad)
        assert doc["matching"] == [int(i) for i in report.matching]
        assert doc["cost_trace"] == [3.5, 2.25, 2.0]
        assert doc["config"]["mu"] == 0.02
        assert doc["config"]["variant"] == "clustered_sparse_distributed"

    def test_empty_trace_is_valid_document(self, tmp_path):
        path = tmp_path / "empty.json"
        write_report(path, None, [], asdict(UnmixingConfig()))
        doc = json.loads(path.read_text())
        assert doc["cost_trace"] == []
        assert doc["rms_sad"] is None

    def test_deterministic_bytes(self, tmp_path):
        report = self._report()
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(p1, report, [1.0, 0.5], asdict(UnmixingConfig()))
        write_report(p2, report, [1.0, 0.5], asdict(UnmixingConfig()))
        assert p1.read_bytes() == p2.read_bytes()

    def test_key_order_fixed(self, tmp_path):
        path = tmp_path / "order.json"
        write_report(path, self._report(), [1.0], asdict(UnmixingConfig()))
        doc = json.loads(path.read_text())
        assert list(doc.keys()) == [
            "config",
            "per_endmember_sad",
            "rms_sad",
            "rms_aad",
            "matching",
            "cost_trace",
        ]

    def test_floats_survive_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "exact.json"
        values = [1 / 3, 2.0 ** -40, 1e300, 0.1 + 0.2, 2.0, 0.0]
        write_report(path, self._report(), values, asdict(UnmixingConfig()))
        doc = json.loads(path.read_text())
        assert doc["cost_trace"] == values
        # integer-valued floats such as the default q = 1.0 must not come back as ints
        floats = [doc["config"][key] for key in ("mu", "eta", "q", "eps")]
        floats += [doc["rms_sad"], *doc["per_endmember_sad"], *doc["cost_trace"]]
        assert all(type(v) is float for v in floats)

    def test_perfect_recovery_scores_parse_as_float_zero(self, tmp_path):
        rng = np.random.default_rng(5)
        A = rng.random((6, 3)) + 0.1
        S = rng.dirichlet(np.ones(3), size=8).T
        path = tmp_path / "perfect.json"
        write_report(path, evaluate_matrices(A, S, A, S), [1.0], asdict(UnmixingConfig()))
        doc = json.loads(path.read_text())
        for v in (doc["rms_sad"], doc["rms_aad"], *doc["per_endmember_sad"]):
            assert type(v) is float and v == 0.0

    def test_a_numpy_integer_setting_round_trips(self, tmp_path):
        path = tmp_path / "int.json"
        write_report(path, None, [1.0], asdict(UnmixingConfig(max_iter=np.int64(5))))
        doc = json.loads(path.read_text())
        assert doc["config"]["max_iter"] == 5 and type(doc["config"]["max_iter"]) is int

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(tmp_path / "bad.json", None, [np.inf], asdict(UnmixingConfig()))
        assert not (tmp_path / "bad.json").exists()
