"""Dataset manifests: the tile samples a classifier trains on.

Manifest files are tab-separated text, one record per sample::

    sample_id<TAB>raster_path<TAB>fine_label[<TAB>lon<TAB>lat]

Lines starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IoError, ParseError

__all__ = [
    "SceneSample",
    "DatasetManifest",
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


def load_manifest(path) -> DatasetManifest:
    samples = []
    try:
        with open(path, "rb") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 5):
            raise ParseError(f"line {lineno}: expected 3 or 5 fields, got {len(parts)}")
        try:
            label = int(parts[2])
            lon_lat = (float(parts[3]), float(parts[4])) if len(parts) == 5 else None
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        samples.append(SceneSample(parts[0], parts[1], label, lon_lat))
    return DatasetManifest(samples)


def write_manifest(path, m: DatasetManifest) -> None:
    lines = []
    for s in m.samples:
        rec = f"{s.sample_id}\t{s.raster_path}\t{s.fine_label}"
        if s.lon_lat is not None:
            rec += f"\t{s.lon_lat[0]!r}\t{s.lon_lat[1]!r}"
        lines.append(rec)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))
