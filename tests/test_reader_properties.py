"""Property tests for the readers: a truncated or mutated raster, region
map, checkpoint, manifest or eval TSV is read, or rejected with a
``SceneParseError`` and its documented exit code, never another exception."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneparse import cli, model, taxonomy
from sceneparse.errors import SceneParseError
from sceneparse.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from sceneparse.segmentation import RegionMap, read_region_map, write_region_map
from tests.test_cli import _json_values

# any byte, with the ones a netpbm header is made of drawn more often
BYTES = st.integers(0, 255) | st.sampled_from(list(b"0123456789 \t\n\x0b#+-_P56"))
# any byte, with the ones of numbers and TSV lines drawn more often
TSV_BYTES = st.integers(0, 255) | st.sampled_from(list(b"0123456789 \t\r\n#,.+-_eE"))


@st.composite
def mangled(draw, data: bytes, alphabet=BYTES) -> bytes:
    """Up to three byte overwrites, insertions or deletions of ``data``,
    then possibly a truncation."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["set", "insert", "delete"]))
        at = draw(st.integers(0, len(buf)))
        if op == "insert":
            buf[at:at] = bytes(draw(st.lists(alphabet, min_size=1, max_size=3)))
        elif op == "set" and at < len(buf):
            buf[at] = draw(alphabet)
        else:
            del buf[at : at + draw(st.integers(1, 3))]
    return bytes(buf[: draw(st.just(len(buf)) | st.integers(0, len(buf)))])


def read_or_reject(reader, path, exit_code: int) -> None:
    try:
        reader(path)
    except SceneParseError as e:
        assert e.exit_code == exit_code, repr(e)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory of valid files, and their bytes by name."""
    d = tmp_path_factory.mktemp("readers")
    rng = np.random.Generator(np.random.PCG64(0))
    write_ppm(d / "a.ppm", rng.integers(0, 256, (2, 3, 3), dtype=np.uint8))
    write_pgm(d / "a8.pgm", rng.integers(0, 256, (2, 3), dtype=np.uint8))
    write_pgm(d / "a16.pgm", rng.integers(0, 65536, (2, 3), dtype=np.uint16), maxval=65535)
    write_region_map(d / "r.pgm", RegionMap(np.array([[0, 1, 2], [2, 1, 0]]), 3))
    cfg = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3,))
    params = {name: t.data.astype(np.float32) for name, t in model.init_params(cfg, seed=0).items()}
    ckpt = model.Checkpoint(cfg, model.MSCConfig(), ["a", "b", "c"], [1, 2, 3], params, {"epochs": 1})
    model.save_checkpoint(ckpt, str(d / "m.ckpt"))
    write_ppm(d / "t.ppm", rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
    (d / "m.tsv").write_text(f"# tiles\nt0\t{d / 't.ppm'}\t1\nt1\t{d / 't.ppm'}\t{2**63 - 1}\t1.5\t-2.25\n")
    (d / "labels.tsv").write_text("a\t0\nb\t9223372036854775807\n")
    (d / "scores.tsv").write_text("a\t0.9\t0.6\nb\t0.2\t8e-1\n")
    (d / "labelsets.tsv").write_text("a\t0,1\nb\t1\nc\t\n")
    return d, {p.name: p.read_bytes() for p in d.iterdir() if p.is_file()}


class TestBinaryReaders:
    @settings(max_examples=150)
    @given(which=st.sampled_from([("a.ppm", read_ppm), ("a8.pgm", read_pgm), ("a16.pgm", read_pgm)]), data=st.data())
    def test_mangled_raster(self, valid, which, data):
        d, files = valid
        name, reader = which
        (d / "x.pnm").write_bytes(data.draw(mangled(files[name])))
        read_or_reject(reader, d / "x.pnm", 3)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_mangled_region_map(self, valid, data):
        d, files = valid
        (d / "x.pgm").write_bytes(data.draw(mangled(files["r.pgm"])))
        (d / "x.pgm.meta").write_bytes(data.draw(mangled(files["r.pgm.meta"])))
        read_or_reject(read_region_map, d / "x.pgm", 3)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_mangled_checkpoint(self, valid, data):
        d, files = valid
        (d / "x.ckpt").write_bytes(data.draw(mangled(files["m.ckpt"])))
        read_or_reject(model.load_checkpoint, str(d / "x.ckpt"), 5)

    @settings(max_examples=200)
    @given(
        where=st.sampled_from(
            [(), ("meta",), ("labels",), ("label_ids",), ("params",), ("params", 0), ("payload_floats",)]
            + [("config", k) for k in ("input_size", "stage_channels", "stage_strides", "num_classes_per_task")]
            + [("msc", k) for k in ("stream_weights", "mu_g", "mu_m")]
        ),
        value=_json_values(),
    )
    def test_checkpoint_header_values(self, valid, where, value):
        # any JSON value in place of the header or one of its fields, with
        # the header's length record kept right
        d, files = valid
        raw = files["m.ckpt"]
        start = raw.index(b"\n") + 1
        body = raw.index(b"\n", start) + 1
        size = int(raw[start:body].split()[1])
        header = json.loads(raw[body : body + size])
        if where:
            *path, key = where
            node = header
            for k in path:
                node = node[k]
            node[key] = value
        else:
            header = value
        blob = json.dumps(header).encode()
        (d / "x.ckpt").write_bytes(raw[:start] + b"header %d\n" % len(blob) + blob + raw[body + size :])
        read_or_reject(model.load_checkpoint, str(d / "x.ckpt"), 5)


class TestTextReaders:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_mangled_manifest(self, valid, data):
        # read with its tiles, where a label beyond int64 once escaped
        d, files = valid
        (d / "x.tsv").write_bytes(data.draw(mangled(files["m.tsv"], TSV_BYTES)))
        read_or_reject(lambda p: model.load_tiles(taxonomy.load_manifest(p), 8), d / "x.tsv", 3)

    @settings(max_examples=150)
    @given(
        which=st.sampled_from(
            [
                ("labels.tsv", cli._read_label_tsv),
                ("scores.tsv", cli._read_scores_tsv),
                ("labelsets.tsv", cli._read_labelsets_tsv),
            ]
        ),
        data=st.data(),
    )
    def test_mangled_eval_tsv(self, valid, which, data):
        d, files = valid
        name, reader = which
        (d / "x.tsv").write_bytes(data.draw(mangled(files[name], TSV_BYTES)))
        read_or_reject(reader, str(d / "x.tsv"), 3)

    def test_one_blank_and_comment_rule(self, tmp_path):
        # whitespace-only lines and comments, indented or not, are skipped
        # alike by every TSV reader
        noise = "\n   \n\t\n# c\n  # indented\n\t#tab\r\n"
        write_ppm(tmp_path / "t.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        (tmp_path / "m.tsv").write_text(f"{noise}t0\t{tmp_path / 't.ppm'}\t1{noise}")
        (tmp_path / "l.tsv").write_text(f"{noise}a\t3{noise}")
        write_pgm(tmp_path / "r.pgm", np.array([[0, 1]], dtype=np.uint8))
        (tmp_path / "r.pgm.meta").write_text(f"{noise}region_count\t2{noise}")
        assert [s.fine_label for s in taxonomy.load_manifest(tmp_path / "m.tsv").samples] == [1]
        assert cli._read_label_tsv(str(tmp_path / "l.tsv")) == {"a": 3}
        assert read_region_map(tmp_path / "r.pgm").region_count == 2
