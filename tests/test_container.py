"""``container.write_file`` replaces an output whole or not at all;
``container.read_manifest`` reads a manifest as ``Path.read_text`` would."""

import errno
import json
import os
from pathlib import Path

import pytest

from panfuse.container import read_manifest, write_file
from panfuse.errors import FormatError

_FDS = Path("/proc/self/fd")


def open_descriptors() -> int:
    return len(os.listdir(_FDS))


@pytest.mark.parametrize("data, stored", [(b"\x00PANC\xff", b"\x00PANC\xff"),
                                          ('{"a": 1}\n', b'{"a": 1}\n'),
                                          (b"", b"")])
def test_write_file_leaves_only_the_target(tmp_path, data, stored):
    target = tmp_path / "out.json"
    write_file(target, data)
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == stored


def test_write_file_replaces_a_longer_file_whole(tmp_path):
    target = tmp_path / "segments.json"
    target.write_bytes(b"x" * 4096)
    write_file(str(target), b"short")
    assert target.read_bytes() == b"short"
    assert list(tmp_path.iterdir()) == [target]


def test_write_file_replaces_a_link_rather_than_writing_through_it(tmp_path):
    shared, target = tmp_path / "shared", tmp_path / "target"
    shared.write_bytes(b"kept")
    os.link(shared, target)
    write_file(target, b"new")
    assert (shared.read_bytes(), target.read_bytes()) == (b"kept", b"new")


def test_a_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "panoptic.panc"
    target.write_bytes(b"old bytes")

    def full_disk(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError) as exc:
        write_file(target, b"new bytes")
    monkeypatch.undo()
    assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, str(target))
    assert target.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_an_unwritable_target_is_named_and_leaves_no_sibling(tmp_path, where):
    target = {"missing-parent": tmp_path / "missing" / "x.json",
              "directory": tmp_path / "taken"}[where]
    if where == "directory":
        target.mkdir()
    with pytest.raises(OSError) as exc:
        write_file(target, b"{}")
    assert exc.value.filename == str(target)
    assert [p.name for p in tmp_path.iterdir()] == ([] if where == "missing-parent" else
                                                    ["taken"])


@pytest.mark.skipif(not _FDS.is_dir(), reason="descriptors are counted in /proc/self/fd")
def test_write_file_closes_every_descriptor(tmp_path, monkeypatch):
    # A raw descriptor from os.open raises no ResourceWarning when it leaks.
    before = open_descriptors()
    write_file(tmp_path / "a", b"a")

    def cross_device(*args):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
    monkeypatch.setattr(os, "rename", cross_device)
    with pytest.raises(OSError):
        write_file(tmp_path / "b", b"b")
    monkeypatch.undo()
    assert open_descriptors() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


@pytest.mark.parametrize("text", ['{"format": "x",\r\n "version": 1,\r\n  oops}',
                                  '{"format":\r"x", \r\n\r"version": [}', "﻿{}", ""])
def test_read_manifest_reports_a_parse_fault_as_read_text_would(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_bytes(text.encode())
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(path.read_text())
    with pytest.raises(FormatError) as exc:
        read_manifest(path, "x", "an x")
    assert str(exc.value) == f"unparseable manifest in {tmp_path}: {expected.value}"


def test_read_manifest_refuses_what_is_not_a_regular_file(tmp_path):
    (tmp_path / "dir" / "manifest.json").mkdir(parents=True)
    (tmp_path / "loop" / "manifest.json").parent.mkdir()
    (tmp_path / "loop" / "manifest.json").symlink_to("manifest.json")
    cases = ["dir", "loop", "missing", "not-a-dir/x"]
    (tmp_path / "not-a-dir").write_text("")
    if hasattr(os, "mkfifo"):
        (tmp_path / "fifo").mkdir()
        os.mkfifo(tmp_path / "fifo" / "manifest.json")
        cases.append("fifo")
    for case in cases:
        path = tmp_path / case / "manifest.json"
        assert not path.is_file()
        with pytest.raises(FormatError) as exc:
            read_manifest(path, "x", "an x")
        assert str(exc.value) == f"no manifest.json in {path.parent}"
