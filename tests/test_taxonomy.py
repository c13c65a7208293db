import pytest

from sceneparse.errors import ParseError
from sceneparse.taxonomy import DatasetManifest, SceneSample, load_manifest, write_manifest


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        m = DatasetManifest(
            [
                SceneSample("a", "a.ppm", 3),
                SceneSample("b", "b.ppm", 1, (12.5, -3.25)),
            ]
        )
        p = tmp_path / "m.tsv"
        write_manifest(p, m)
        back = load_manifest(p)
        assert [(s.sample_id, s.raster_path, s.fine_label, s.lon_lat) for s in back.samples] == [
            (s.sample_id, s.raster_path, s.fine_label, s.lon_lat) for s in m.samples
        ]

    def test_duplicate_sample_id(self):
        with pytest.raises(ParseError):
            DatasetManifest([SceneSample("a", "x", 0), SceneSample("a", "y", 1)])

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\tx.ppm\n")
        with pytest.raises(ParseError):
            load_manifest(p)
