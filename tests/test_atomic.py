"""Output files are replaced whole or not at all.

Each writer goes through eprbm.atomic.atomic_write: a write that fails
partway, or whose final rename fails, leaves no file at a new target and an
existing target byte for byte as it was, with no temporary file left over.
"""

from __future__ import annotations

import json
import os

import pytest

from eprbm import atomic
from eprbm.atomic import atomic_write, write_json
from eprbm.cli import EXIT_DATA, main
from eprbm.epr import DetectorAngles, generate_dataset, save_dataset
from eprbm.trainer import (
    EpochRecord,
    TrainingTrace,
    load_reference_model,
    save_model,
)

OLD = b"old contents\n"


class TestAtomicWrite:
    def test_success_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(OLD)
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_raise_partway_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("half a file")
                raise RuntimeError("interrupted")
        assert os.listdir(tmp_path) == []

    def test_raise_partway_keeps_existing_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(OLD)
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("half a file")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_missing_directory_error_names_target(self, tmp_path):
        path = tmp_path / "absent" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_write(path) as fh:
                fh.write("x")
        assert info.value.filename == str(path)

    def test_permissions_match_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        with atomic_write(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        mode = os.stat(tmp_path / "atomic.txt").st_mode & 0o777
        assert mode == os.stat(plain).st_mode & 0o777

    @pytest.mark.parametrize("mode", [0o600, 0o664], ids=oct)
    def test_existing_target_keeps_its_permissions(self, tmp_path, mode):
        # plain open() keeps an existing file's mode, so a re-run must not
        # make a model or dataset that was made private world-readable
        path = tmp_path / "a.json"
        path.write_bytes(OLD)
        os.chmod(path, mode)
        write_json(path, {"a": 1})
        assert os.stat(path).st_mode & 0o777 == mode


class TestWriteJson:
    def test_format(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"a": [1, 2.5], "b": None})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": null\n}\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_refused(self, tmp_path, value):
        path = tmp_path / "x.json"
        path.write_bytes(OLD)
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(path, {"x": [value]})
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["x.json"]


def test_partial_json_dump_leaves_model_unwritten(tmp_path, monkeypatch):
    def dump_half(obj, fh, **kwargs):
        fh.write('{\n  "m": 4,\n')
        raise OSError("disk full")

    fresh, existing = tmp_path / "fresh.json", tmp_path / "existing.json"
    existing.write_bytes(OLD)
    monkeypatch.setattr(json, "dump", dump_half)
    for path in (fresh, existing):
        with pytest.raises(OSError, match="disk full"):
            save_model(path, load_reference_model())
    assert not fresh.exists()
    assert existing.read_bytes() == OLD
    assert sorted(os.listdir(tmp_path)) == ["existing.json"]


def _save_model(d):
    save_model(d / "m.json", load_reference_model())


def _trace_to_csv(d):
    TrainingTrace((EpochRecord(1, -2.5, 2.1),)).to_csv(d / "t.csv")


def _save_dataset(d):
    save_dataset(generate_dataset(DetectorAngles(), 50, 1), d / "data.csv")


def _cli(command, out):
    def write(d):
        model = d / "model.json"
        save_model(model, load_reference_model())
        return main([command, "--model", str(model), "--out", str(d / out)])

    return write


def _simulate(d):
    return main(["simulate", "--trials", "20", "--seed", "1", "--out", f"{d}/sim.csv"])


# Each writer: (file name of its target, call that writes it).
WRITERS = {
    "save_model": ("m.json", _save_model),
    "trace_to_csv": ("t.csv", _trace_to_csv),
    "save_dataset_csv": ("data.csv", _save_dataset),
    "save_dataset_sidecar": ("data.csv.meta.json", _save_dataset),
    "eval_out": ("cmp.csv", _cli("eval", "cmp.csv")),
    "diagnose_out": ("diag.json", _cli("diagnose", "diag.json")),
    "run_manifest": ("sim.csv.manifest.json", _simulate),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rename_keeps_existing_target(writer, tmp_path, monkeypatch):
    name, write = WRITERS[writer]
    target = tmp_path / name
    target.write_bytes(OLD)
    real_replace = os.replace

    def replace(src, dst):
        if os.fspath(dst) == os.fspath(target):
            raise OSError("rename failed")
        real_replace(src, dst)

    monkeypatch.setattr(atomic.os, "replace", replace)
    try:
        code = write(tmp_path)
    except OSError as err:
        assert str(err) == "rename failed"
    else:
        # the CLI reports the failure as a data error
        assert code == EXIT_DATA
    assert target.read_bytes() == OLD
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
