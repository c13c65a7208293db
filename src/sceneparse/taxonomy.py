"""Dataset manifests: the tile samples a classifier trains on.

Manifest files are tab-separated text, one record per sample::

    sample_id<TAB>raster_path<TAB>fine_label[<TAB>lon<TAB>lat]

Lines starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .files import read_records, write_file

__all__ = [
    "SceneSample",
    "DatasetManifest",
    "label_id",
    "load_manifest",
    "write_manifest",
]


@dataclass(slots=True)
class SceneSample:
    sample_id: str
    raster_path: str
    fine_label: int
    lon_lat: tuple[float, float] | None = None


@dataclass(slots=True)
class DatasetManifest:
    samples: list[SceneSample] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for s in self.samples:
            if s.sample_id in seen:
                raise ParseError(f"duplicate sample_id {s.sample_id!r}")
            seen.add(s.sample_id)

    def __len__(self) -> int:
        return len(self.samples)


def label_id(text: str) -> int:
    """A label id read from a TSV field: an integer in [0, 2**63), the range
    of the int64 arrays labels are held in; ValueError otherwise."""
    label = int(text)
    if not 0 <= label < 2**63:
        raise ValueError(f"label id {label} is not in [0, 2**63)")
    return label


def _sample(fields) -> SceneSample:
    if len(fields) not in (3, 5):
        raise ValueError(f"{len(fields)} fields")
    lon_lat = (float(fields[3]), float(fields[4])) if len(fields) == 5 else None
    return SceneSample(fields[0], fields[1], label_id(fields[2]), lon_lat)


def load_manifest(path) -> DatasetManifest:
    return DatasetManifest(read_records(path, "sample_id<TAB>raster_path<TAB>fine_label[<TAB>lon<TAB>lat]", _sample))


def write_manifest(path, m: DatasetManifest) -> None:
    rows = ([s.sample_id, s.raster_path, str(s.fine_label), *map(repr, s.lon_lat or ())] for s in m.samples)
    write_file(path, "".join("\t".join(row) + "\n" for row in rows).encode("utf-8"))
