"""Hierarchical label system, dataset manifests, and train/test partitioning.

Taxonomy files are tab-separated text, one record per node::

    id<TAB>name<TAB>level<TAB>parent

ids must be contiguous from 0 in file order (this is what makes label ids
stable across runs); ``parent`` is ``-`` for level-1 roots.  Lines starting
with ``#`` and blank lines are ignored.

Manifest files are tab-separated text, one record per sample::

    sample_id<TAB>raster_path<TAB>fine_label[<TAB>lon<TAB>lat]

A three-level land-use schema with 8 major classes, 28 mid-level classes and
51 leaf categories (73 nodes) ships with the package; see
:func:`load_bundled_taxonomy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    CountError,
    CycleError,
    DanglingParentError,
    IoError,
    ParseError,
    UnknownLabelError,
)

__all__ = [
    "LabelNode",
    "LabelTaxonomy",
    "SceneSample",
    "DatasetManifest",
    "load_taxonomy",
    "load_taxonomy_file",
    "load_bundled_taxonomy",
    "write_taxonomy",
    "expand_labels",
    "split_manifest",
    "class_histogram",
    "load_manifest",
    "write_manifest",
]

BUNDLED_SCHEMA = "aerial_landuse_schema.tsv"


@dataclass(frozen=True, slots=True)
class LabelNode:
    id: int
    name: str
    level: int
    parent: int | None


class LabelTaxonomy:
    """Rooted forest of labels; immutable after construction."""

    def __init__(self, nodes: list[LabelNode]):
        self.nodes = list(nodes)
        self._validate()
        children: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent is not None:
                children[n.parent].append(n.id)
        self.children = children
        self.leaf_ids = frozenset(n.id for n in self.nodes if not children[n.id])
        self.root_ids = tuple(n.id for n in self.nodes if n.parent is None)

    def _validate(self) -> None:
        for i, n in enumerate(self.nodes):
            if n.id != i:
                raise ParseError(f"node ids must be contiguous from 0; got {n.id} at position {i}")
            if n.level < 1:
                raise ParseError(f"node {n.id} has level {n.level} < 1")
            if n.level == 1 and n.parent is not None:
                raise ParseError(f"level-1 node {n.id} must not have a parent")
            if n.level > 1 and n.parent is None:
                raise ParseError(f"level-{n.level} node {n.id} must have a parent")
        ids = {n.id for n in self.nodes}
        for n in self.nodes:
            if n.parent is None:
                continue
            if n.parent not in ids:
                raise DanglingParentError(f"node {n.id} references absent parent {n.parent}")
            parent = self.nodes[n.parent]
            if parent.level != n.level - 1:
                raise ParseError(
                    f"node {n.id} at level {n.level} has parent at level {parent.level}"
                )
        # parent level strictly decreases along any chain, so cycles can only
        # arise through self-reference
        for n in self.nodes:
            if n.parent == n.id:
                raise CycleError(f"node {n.id} is its own parent")

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, label_id: int) -> LabelNode:
        if not 0 <= label_id < len(self.nodes):
            raise UnknownLabelError(f"label id {label_id} out of range")
        return self.nodes[label_id]

    def count_at_level(self, level: int) -> int:
        return sum(1 for n in self.nodes if n.level == level)


@dataclass(slots=True)
class SceneSample:
    sample_id: str
    raster_path: str
    fine_label: int
    lon_lat: tuple[float, float] | None = None


@dataclass(slots=True)
class DatasetManifest:
    samples: list[SceneSample] = field(default_factory=list)
    taxonomy_ref: str = ""

    def __post_init__(self):
        seen = set()
        for s in self.samples:
            if s.sample_id in seen:
                raise ParseError(f"duplicate sample_id {s.sample_id!r}")
            seen.add(s.sample_id)

    def __len__(self) -> int:
        return len(self.samples)


def load_taxonomy(text: str) -> LabelTaxonomy:
    """Parse a taxonomy document (see module docstring for the format)."""
    nodes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 tab-separated fields, got {len(parts)}")
        id_s, name, level_s, parent_s = parts
        try:
            node_id = int(id_s)
            level = int(level_s)
            parent = None if parent_s == "-" else int(parent_s)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not name:
            raise ParseError(f"line {lineno}: empty node name")
        nodes.append(LabelNode(node_id, name, level, parent))
    if not nodes:
        raise ParseError("taxonomy document contains no nodes")
    return LabelTaxonomy(nodes)


def load_taxonomy_file(path) -> LabelTaxonomy:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return load_taxonomy(f.read())
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_bundled_taxonomy() -> LabelTaxonomy:
    """Load the packaged 73-node aerial land-use schema."""
    text = resources.files("sceneparse").joinpath("data", BUNDLED_SCHEMA).read_text("utf-8")
    return load_taxonomy(text)


def write_taxonomy(path, tax: LabelTaxonomy) -> None:
    lines = []
    for n in tax.nodes:
        parent = "-" if n.parent is None else str(n.parent)
        lines.append(f"{n.id}\t{n.name}\t{n.level}\t{parent}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def expand_labels(tax: LabelTaxonomy, fine: int) -> tuple[int, ...]:
    """Ancestor chain of a leaf, ordered root -> leaf, leaf included."""
    if fine not in tax.leaf_ids:
        raise UnknownLabelError(f"label {fine} is not a leaf of this taxonomy")
    chain = []
    cur: int | None = fine
    while cur is not None:
        chain.append(cur)
        cur = tax.nodes[cur].parent
    chain.reverse()
    return tuple(chain)


def split_manifest(
    m: DatasetManifest, train_count: int, seed: int
) -> tuple[DatasetManifest, DatasetManifest]:
    """Random disjoint partition into (train, test); train gets ``train_count``.

    Membership is drawn with a seeded PCG64 permutation; both subsets keep
    the original manifest order.
    """
    n = len(m.samples)
    if not 0 <= train_count <= n:
        raise CountError(f"train_count {train_count} outside [0, {n}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    train_idx = np.sort(perm[:train_count])
    test_idx = np.sort(perm[train_count:])
    train = DatasetManifest([m.samples[i] for i in train_idx], m.taxonomy_ref)
    test = DatasetManifest([m.samples[i] for i in test_idx], m.taxonomy_ref)
    return train, test


def class_histogram(
    m: DatasetManifest, tax: LabelTaxonomy, expanded: bool = False
) -> np.ndarray:
    """Counts per label id over all nodes.

    With ``expanded=False`` only the fine (leaf) label of each sample is
    counted, so the histogram sums to ``len(m)``.  With ``expanded=True``
    every ancestor of the fine label is counted as well.
    """
    counts = np.zeros(len(tax), dtype=np.int64)
    for s in m.samples:
        if s.fine_label not in tax.leaf_ids:
            raise UnknownLabelError(f"sample {s.sample_id!r} has non-leaf label {s.fine_label}")
        if expanded:
            for lab in expand_labels(tax, s.fine_label):
                counts[lab] += 1
        else:
            counts[s.fine_label] += 1
    return counts


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
