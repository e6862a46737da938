"""Atomic replacement of output files."""

import pytest

from fairsample.fileio import atomic_write


def test_atomic_write_replaces_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old", encoding="utf-8")
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("new")
    assert path.read_text(encoding="utf-8") == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path, "wb") as fh:
            fh.write(b"partial")
            fh.flush()
            raise RuntimeError("disk gone")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_atomic_write_failure_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "out.txt") as fh:
            fh.write("partial")
            raise RuntimeError("disk gone")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_rejects_other_modes(tmp_path):
    with pytest.raises(ValueError):
        with atomic_write(tmp_path / "out.txt", "a"):
            pass
