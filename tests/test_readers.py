"""Truncated or corrupt binary files: every reader raises ValidationError."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksdf import LinkSdf, TinyMlp, ValidationError, read_link_sdf, write_link_sdf
from linksdf.query import read_pointcloud_frame, write_pointcloud_frame


def _write_lsdf(path):
    values = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    write_link_sdf(path, LinkSdf(0.01, 0.01, values, link_id=1))


def _write_tmlp(path):
    TinyMlp(np.ones((9, 1)), np.zeros(1), np.ones((1, 3)), np.zeros(3)).save(path)


def _write_frame(path):
    write_pointcloud_frame(path, np.arange(6.0).reshape(2, 3))


# name -> (writer, reader); the files are small, so the cuts below cover
# every header length and every body length.
FORMATS = {
    "lsdf": (_write_lsdf, read_link_sdf),
    "tmlp": (_write_tmlp, TinyMlp.load),
    "frame": (_write_frame, read_pointcloud_frame),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    blobs = {}
    for name, (write, read) in FORMATS.items():
        path = root / name
        write(path)
        read(path)
        blobs[name] = path.read_bytes()
    return root, blobs


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_every_strict_prefix_rejected(files, name, data):
    root, blobs = files
    blob = blobs[name]
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1), label="cut")
    path = root / f"cut_{name}"
    path.write_bytes(blob[:cut])
    with pytest.raises(ValidationError, match="truncated"):
        FORMATS[name][1](path)


def test_oversized_frame_count_rejected(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(struct.pack("<I", 2**32 - 1) + bytes(12))
    with pytest.raises(ValidationError, match="truncated point data"):
        read_pointcloud_frame(path)
