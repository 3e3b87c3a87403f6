"""Tests for the real-filesystem interchange formats."""

import pytest

from repro.exceptions import EdgeListFormatError, ReproError
from repro.graph.edge_file import EdgeFile
from repro.graph.io_formats import (
    dump_edge_file,
    load_edge_file,
    read_edge_binary,
    read_edge_text,
    write_edge_binary,
    write_edge_text,
)

EDGES = [(0, 1), (1, 2), (42, 7)]


class TestText:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "g.txt"
        assert write_edge_text(path, EDGES) == 3
        assert list(read_edge_text(path)) == EDGES

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n# mid\n2 3\n")
        assert list(read_edge_text(path)) == [(0, 1), (2, 3)]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError):
            list(read_edge_text(path))

    @pytest.mark.parametrize(
        "token", ["x", "-3", "5000000000", "4294967296", "1.5", "+7", "1_0"]
    )
    def test_bad_id_names_line_and_token(self, tmp_path, token):
        path = tmp_path / "g.txt"
        path.write_text(f"# header\n0 1\n2 {token}\n")
        with pytest.raises(EdgeListFormatError) as info:
            list(read_edge_text(path))
        assert f"{path}:3:" in str(info.value)
        assert repr(token) in str(info.value)
        assert isinstance(info.value, ReproError)

    def test_non_ascii_rejected_cleanly(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes("0 1\n\u00e9 2\n".encode("utf-8"))
        with pytest.raises(EdgeListFormatError, match=":2:"):
            list(read_edge_text(path))

    def test_id_range_bounds(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 4294967295\n")
        assert list(read_edge_text(path)) == [(0, (1 << 32) - 1)]


class TestBinary:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "g.bin"
        assert write_edge_binary(path, EDGES) == 3
        assert list(read_edge_binary(path)) == EDGES

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        write_edge_binary(path, EDGES)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(EdgeListFormatError, match="byte 16"):
            list(read_edge_binary(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.bin"
        write_edge_binary(path, [])
        assert list(read_edge_binary(path)) == []


class TestDeviceBridge:
    @pytest.mark.parametrize("binary", [False, True])
    def test_load_dump_roundtrip(self, tmp_path, device, binary):
        src = tmp_path / "in"
        write_edge_binary(src, EDGES) if binary else write_edge_text(src, EDGES)
        ef = load_edge_file(device, src, binary=binary)
        assert list(ef.scan()) == EDGES
        dst = tmp_path / "out"
        assert dump_edge_file(ef, dst, binary=binary) == 3
        reader = read_edge_binary if binary else read_edge_text
        assert list(reader(dst)) == EDGES

    def test_load_charges_sequential_writes(self, tmp_path, device):
        src = tmp_path / "in.txt"
        write_edge_text(src, [(i, i + 1) for i in range(100)])
        load_edge_file(device, src)
        assert device.stats.seq_writes > 0
        assert device.stats.random == 0
