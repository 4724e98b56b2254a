"""Procedural synthetic objects with analytic occupancy and affordance labels.

Objects come from a four-template family (mug, hammer, chair, lamp) built
out of transformed primitives: boxes, spheres, cylinders, and torus
segments.  Canonical primitives have unit extent (box [-1,1]^3, sphere
and cylinder radius 1, cylinder half-height 1); a part places its
primitive via an anisotropic scale followed by a rigid pose:
``p_world = R @ (scale * p_local) + t``.  Torus segments keep unit scale
and carry their radii/arc in ``params`` so tubes stay circular.

Everything is a deterministic function of the object seed.  Per-template
parameters are uniform draws (in the documented order) from a seeded
generator, followed by one global uniform scale and translation folded
into each part, so all closed forms survive.

Query and part-label embeddings stand in for text/image encoders: a
seeded hash of the string expands to pseudo-random unit vectors.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnknownQueryError, record_integer
from .voxel import AffordanceHeatmap, _frozen, cell_centers, flat_order_indices

Array = np.ndarray

PRIMITIVES = ("box", "sphere", "cylinder", "torus_segment")
TEMPLATES = ("mug", "hammer", "chair", "lamp")

#: Default feature/embedding width used across the desk-scale pipeline.
DEFAULT_CHANNELS = 16

_ROT_RING_XZ = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_ROT_AXIS_X = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_CORNERS = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))


@dataclass(frozen=True)
class ObjectPart:
    """One primitive with its placement, label, and affordance tags."""

    primitive: str
    rotation: Array  # (3, 3) world-from-local
    translation: Array  # (3,)
    scale: Array  # (3,) positive per-axis factors
    part_label: str
    affordance_tags: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.primitive not in PRIMITIVES:
            raise DomainError(f"unknown primitive {self.primitive!r}")
        if not isinstance(self.part_label, str):
            raise DomainError(f"part label must be a string, got {type(self.part_label).__name__}")
        tags = self.affordance_tags
        if not isinstance(tags, (list, tuple)) or not all(isinstance(tag, str) for tag in tags):
            raise DomainError("affordance tags must be a list of strings")
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        tr = np.asarray(self.translation, dtype=float).reshape(3)
        sc = np.asarray(self.scale, dtype=float).reshape(3)
        if not all(np.all(np.isfinite(arr)) for arr in (rot, tr, sc)):
            raise DomainError("part rotation, translation and scale must be finite")
        if np.any(sc <= 0):
            raise DomainError("scale factors must be positive")
        # Entries beyond +-1 cannot be orthonormal, and bounding them first
        # keeps ``rot @ rot.T`` from overflowing.
        if np.any(np.abs(rot) > 1.0 + 1e-9) or not np.allclose(rot @ rot.T, np.eye(3), atol=1e-9):
            raise DomainError("part rotation must be orthonormal")
        if self.primitive == "torus_segment":
            required = {"major_radius", "minor_radius", "arc_start", "arc_end"}
            if not required <= set(self.params):
                raise DomainError(f"torus segment needs params {sorted(required)}")
            if not all(math.isfinite(self.params[name]) for name in required):
                raise DomainError("torus params must be finite")
            if self.params["minor_radius"] <= 0 or self.params["major_radius"] <= 0:
                raise DomainError("torus radii must be positive")
            if not -math.pi <= self.params["arc_start"] < self.params["arc_end"] <= math.pi:
                raise DomainError("arc must satisfy -pi <= start < end <= pi")
        # Squared local coordinates are largest at a corner, so finite
        # squares at the corners of [-1, 1]^3 (twice the cube)
        # keep ``contains`` and ``boundary_excess`` from overflowing on any
        # point near the cube.  A tiny scale can break that.
        with np.errstate(over="ignore"):
            local = ((_CORNERS - tr) @ rot) / sc
            reach = np.sum(local * local, axis=1)
        if not np.all(np.isfinite(reach)):
            raise DomainError("part scale too small for its placement: cube points overflow")
        for arr in (rot, tr, sc):
            arr.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)
        object.__setattr__(self, "scale", sc)
        object.__setattr__(self, "affordance_tags", tuple(self.affordance_tags))

    def to_local(self, points: Array) -> Array:
        """Map world points into the scaled local frame of the primitive."""
        return ((np.atleast_2d(points) - self.translation) @ self.rotation) / self.scale

    def contains(self, points: Array) -> Array:
        """Boolean inside test for an (n, 3) array of world points."""
        q = self.to_local(points)
        if self.primitive == "box":
            return np.max(np.abs(q), axis=1) <= 1.0
        if self.primitive == "sphere":
            return np.linalg.norm(q, axis=1) <= 1.0
        if self.primitive == "cylinder":
            radial = q[:, 0] ** 2 + q[:, 1] ** 2 <= 1.0
            return radial & (np.abs(q[:, 2]) <= 1.0)
        # torus segment: ring in the local xy-plane.  A large finite radius
        # may square past the float range; inf then reads as outside.
        major = self.params["major_radius"]
        minor = np.float64(self.params["minor_radius"])
        ring = np.hypot(q[:, 0], q[:, 1])
        with np.errstate(over="ignore"):
            tube = (ring - major) ** 2 + q[:, 2] ** 2 <= minor**2
        phi = np.arctan2(q[:, 1], q[:, 0])
        return tube & (phi >= self.params["arc_start"]) & (phi <= self.params["arc_end"])

    def boundary_excess(self, points: Array) -> Array:
        """Approximate world-units distance outside the primitive (0 inside).

        Used only to rank parts when attributing a surface point, so a
        cheap conservative estimate is fine.
        """
        q = self.to_local(points)
        if self.primitive == "box":
            return np.max(np.maximum(np.abs(q) - 1.0, 0.0) * self.scale, axis=1)
        if self.primitive == "sphere":
            return np.maximum(np.linalg.norm(q, axis=1) - 1.0, 0.0) * self.scale.min()
        if self.primitive == "cylinder":
            radial = (np.hypot(q[:, 0], q[:, 1]) - 1.0) * min(self.scale[0], self.scale[1])
            axial = (np.abs(q[:, 2]) - 1.0) * self.scale[2]
            return np.maximum(np.maximum(radial, axial), 0.0)
        major = self.params["major_radius"]
        minor = self.params["minor_radius"]
        ring = np.hypot(q[:, 0], q[:, 1])
        phi = np.arctan2(q[:, 1], q[:, 0])
        angular = np.maximum(self.params["arc_start"] - phi, phi - self.params["arc_end"])
        with np.errstate(over="ignore"):
            tube = np.sqrt((ring - major) ** 2 + q[:, 2] ** 2) - minor
            return np.maximum(np.maximum(tube, angular * major), 0.0)

    def world_aabb(self) -> tuple[Array, Array]:
        """Conservative axis-aligned world bounds of the part."""
        if self.primitive == "torus_segment":
            reach = self.params["major_radius"] + self.params["minor_radius"]
            local = np.array([reach, reach, self.params["minor_radius"]])
        else:
            local = np.ones(3)
        world = (_CORNERS * (local * self.scale)) @ self.rotation.T + self.translation
        return world.min(axis=0), world.max(axis=0)

    def _hole_holds_cube(self) -> bool:
        """Whether the whole cube lies in a torus segment's hole.

        A cube point lies at most ``|p - t| / min(scale)`` from the local
        origin, so if even the farthest cube corner is nearer than the
        tube's inner edge ``major - minor``, no cube point is in the tube.
        """
        if self.primitive != "torus_segment":
            return False
        farthest = float(np.linalg.norm(np.abs(self.translation) + 0.5)) / float(self.scale.min())
        return farthest < self.params["major_radius"] - self.params["minor_radius"]


@dataclass(frozen=True)
class SyntheticObject:
    """A deterministic multi-part object living inside the normalized cube."""

    object_id: str
    seed: int
    template: str
    parts: tuple[ObjectPart, ...]

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise DomainError(f"unknown template {self.template!r}")
        if not self.parts:
            raise DomainError("object needs at least one part")
        if not any(p.affordance_tags for p in self.parts):
            raise DomainError("object needs at least one affordance-tagged part")
        for part in self.parts:
            lo, hi = part.world_aabb()
            if np.any(lo > 0.5) or np.any(hi < -0.5) or part._hole_holds_cube():
                raise DomainError(f"part {part.part_label} misses the normalized cube")
        object.__setattr__(self, "parts", tuple(self.parts))

    def contains(self, points: Array) -> Array:
        points = np.atleast_2d(points)
        inside = np.zeros(points.shape[0], dtype=bool)
        for part in self.parts:
            inside |= part.contains(points)
        return inside

    def tags(self) -> set[str]:
        return {tag for part in self.parts for tag in part.affordance_tags}


def voxel_centers(r: int) -> Array:
    """(r^3, 3) cell centers in the x-fastest flat order."""
    return cell_centers(flat_order_indices(r), r)


def ground_truth_occupancy(obj: SyntheticObject, r: int) -> Array:
    """Read-only (r, r, r) boolean lattice, indexed ``[ix, iy, iz]``, that
    is True where the cell's center falls inside any part."""
    if r < 1:
        raise DomainError("resolution must be >= 1")
    return _frozen(obj.contains(voxel_centers(r)).reshape((r,) * 3, order="F"))


def signed_occupancy(lattice: Array) -> Array:
    """The structure flow's clean sample: the (r^3,) x-fastest flattening
    of a boolean occupancy lattice, +1 in occupied cells and -1 elsewhere."""
    return np.where(np.ravel(lattice, order="F"), 1.0, -1.0)


def occupied_indices(obj: SyntheticObject, r: int) -> Array:
    """Sorted index triples of cells whose centers fall inside the object."""
    return np.argwhere(ground_truth_occupancy(obj, r)).astype(np.int64, copy=False)


def hash_embedding(text: str, dim: int, salt: str) -> Array:
    """Unit-norm pseudo-random vector derived from a string.

    Deterministic in (text, salt): the sha256 digest of ``0:salt:text``
    seeds a generator whose first ``dim`` normal draws are normalized.
    """
    if dim < 1:
        raise DomainError("embedding dimension must be >= 1")
    digest = hashlib.sha256(f"0:{salt}:{text}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def query_embedding(query: str, dim: int = DEFAULT_CHANNELS) -> Array:
    """Stand-in text encoder output for a query string (unit norm)."""
    return hash_embedding(query, dim, salt="query")


@functools.lru_cache(maxsize=256)
def label_embedding(label: str, dim: int) -> Array:
    """Stand-in visual-feature identity for a part label (unit norm, read-only).

    Cached: every render embeds the labels of the same few parts.
    """
    return _frozen(hash_embedding(label, dim, salt="part"))


@dataclass(frozen=True)
class QueryTable:
    """Maps natural-language queries to affordance tags and embeddings."""

    entries: dict  # query -> (tag, embedding)
    dim: int

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise DomainError(f"query table dim must be a positive integer, got {self.dim!r}")
        for query, (tag, embedding) in self.entries.items():
            if not isinstance(tag, str):
                raise DomainError(f"query {query!r} has a tag that is not a string: {tag!r}")
            if np.shape(embedding) != (self.dim,) or not np.all(np.isfinite(embedding)):
                raise DomainError(f"query {query!r} needs a finite embedding of shape ({self.dim},)")

    def tag_of(self, query: str) -> str:
        try:
            return self.entries[query][0]
        except KeyError:
            raise UnknownQueryError(f"query {query!r} not in table") from None

    def embedding_of(self, query: str) -> Array:
        try:
            return self.entries[query][1]
        except KeyError:
            raise UnknownQueryError(f"query {query!r} not in table") from None

    def queries_for(self, obj: SyntheticObject) -> list[str]:
        """Queries whose tag appears on the object, sorted for determinism."""
        tags = obj.tags()
        return sorted(q for q, (tag, _) in self.entries.items() if tag in tags)


DEFAULT_QUERIES = {
    "grasp the handle": "grasp",
    "strike a nail": "strike",
    "sit on the seat": "sit",
    "attach a light fixture": "attach",
}


def default_query_table(dim: int = DEFAULT_CHANNELS) -> QueryTable:
    entries = {
        query: (tag, query_embedding(query, dim))
        for query, tag in DEFAULT_QUERIES.items()
    }
    return QueryTable(entries=entries, dim=dim)


def ground_truth_affordance(
    obj: SyntheticObject, query: str, r: int, table: QueryTable
) -> AffordanceHeatmap:
    """Binary affordance over occupied voxels: 1 inside any part carrying the tag."""
    tag = table.tag_of(query)
    occupied = occupied_indices(obj, r)
    centers = cell_centers(occupied, r)
    hot = np.zeros(occupied.shape[0], dtype=bool)
    for part in obj.parts:
        if tag in part.affordance_tags:
            hot |= part.contains(centers)
    return AffordanceHeatmap(
        resolution=r, positions=occupied, values=hot.astype(float)
    )


def part_index_of_points(obj: SyntheticObject, points: Array) -> Array:
    """Attribute each (surface) point to the part with least boundary excess.

    Points exactly inside a part have excess 0; quantized ray hits sit
    within half a voxel of their part, which dominates the ranking.  Ties
    go to the earlier part in declaration order.
    """
    points = np.atleast_2d(points)
    excess = np.stack([part.boundary_excess(points) for part in obj.parts], axis=0)
    return np.argmin(excess, axis=0)


def surface_features(
    obj: SyntheticObject, points: Array, normals: Array, channels: int = DEFAULT_CHANNELS
) -> Array:
    """Per-point surface descriptors: part-label embedding plus the normal.

    The label embedding fills ``channels - 3`` slots and the unit normal
    the remaining three, so two hits on the same part with the same
    normal produce identical features.
    """
    if channels < 4:
        raise DomainError("surface features need at least 4 channels")
    points = np.atleast_2d(points)
    normals = np.atleast_2d(normals)
    if normals.shape != points.shape:
        raise DomainError("one normal per point required")
    label_dim = channels - 3
    embeddings = np.stack(
        [label_embedding(part.part_label, label_dim) for part in obj.parts], axis=0
    )
    which = part_index_of_points(obj, points)
    return np.concatenate([embeddings[which], normals], axis=1)


# --- template family ------------------------------------------------------
#
# All uniform draws happen in the order written below; tests re-derive
# them.  Sizes keep every primitive at least ~0.13 thick so cells of the
# default r=8 lattice cannot slip between a primitive's walls, and keep
# every part inside the cube after the global scale/shift.


def _make_mug(rng) -> list[ObjectPart]:
    body_r = rng.uniform(0.20, 0.25)
    body_h = rng.uniform(0.20, 0.24)
    handle_major = rng.uniform(0.11, 0.14)
    handle_minor = rng.uniform(0.10, 0.11)
    handle_z = rng.uniform(0.00, 0.12)
    arc_half = rng.uniform(1.01, 1.19)
    body_center = np.array([-0.06, 0.0, 0.10])
    body = ObjectPart(
        primitive="cylinder",
        rotation=np.eye(3),
        translation=body_center,
        scale=np.array([body_r, body_r, body_h]),
        part_label="mug_body",
    )
    handle = ObjectPart(
        primitive="torus_segment",
        rotation=_ROT_RING_XZ,
        translation=np.array([body_center[0] + body_r, 0.0, handle_z]),
        scale=np.ones(3),
        part_label="mug_handle",
        affordance_tags=("grasp",),
        params={
            "major_radius": handle_major,
            "minor_radius": handle_minor,
            "arc_start": -arc_half,
            "arc_end": arc_half,
        },
    )
    return [body, handle]


def _make_hammer(rng) -> list[ObjectPart]:
    grip_r = rng.uniform(0.12, 0.135)
    grip_len = rng.uniform(0.28, 0.32)
    grip_x = rng.uniform(-0.11, -0.08)
    grip_z = rng.uniform(-0.24, -0.18)
    head = rng.uniform(0.10, 0.12), rng.uniform(0.14, 0.18), rng.uniform(0.12, 0.15)
    handle = ObjectPart(
        primitive="cylinder",
        rotation=_ROT_AXIS_X,
        translation=np.array([grip_x, 0.0, grip_z]),
        scale=np.array([grip_r, grip_r, grip_len]),
        part_label="hammer_handle",
        affordance_tags=("grasp",),
    )
    head_part = ObjectPart(
        primitive="box",
        rotation=np.eye(3),
        translation=np.array([grip_x + grip_len + head[0] - 0.04, 0.0, grip_z]),
        scale=np.array(head),
        part_label="hammer_head",
        affordance_tags=("strike",),
    )
    return [handle, head_part]


def _make_chair(rng) -> list[ObjectPart]:
    seat_x = rng.uniform(0.24, 0.28)
    seat_y = rng.uniform(0.24, 0.28)
    seat_t = rng.uniform(0.075, 0.09)
    seat_z = rng.uniform(-0.05, 0.03)
    leg_w = rng.uniform(0.065, 0.075)
    back_t = rng.uniform(0.06, 0.075)
    back_h = rng.uniform(0.13, 0.16)
    seat = ObjectPart(
        primitive="box",
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, seat_z]),
        scale=np.array([seat_x, seat_y, seat_t]),
        part_label="chair_seat",
        affordance_tags=("sit",),
    )
    floor_z = -0.45
    leg_h = (seat_z - seat_t - floor_z) / 2.0
    leg_center_z = (seat_z - seat_t + floor_z) / 2.0
    legs = [
        ObjectPart(
            primitive="box",
            rotation=np.eye(3),
            translation=np.array([sx * (seat_x - leg_w), sy * (seat_y - leg_w), leg_center_z]),
            scale=np.array([leg_w, leg_w, leg_h]),
            part_label=f"chair_leg_{i}",
        )
        for i, (sx, sy) in enumerate([(-1, -1), (-1, 1), (1, -1), (1, 1)])
    ]
    back = ObjectPart(
        primitive="box",
        rotation=np.eye(3),
        translation=np.array([0.0, seat_y - back_t, seat_z + seat_t + back_h]),
        scale=np.array([seat_x * 0.9, back_t, back_h]),
        part_label="chair_back",
    )
    return [seat, *legs, back]


def _make_lamp(rng) -> list[ObjectPart]:
    base_r = rng.uniform(0.20, 0.25)
    base_h = rng.uniform(0.07, 0.085)
    stem_r = rng.uniform(0.09, 0.10)
    shade_r = rng.uniform(0.17, 0.21)
    shade_h = rng.uniform(0.10, 0.13)
    shade_z = rng.uniform(0.18, 0.24)
    base_z = -0.46 + base_h
    base = ObjectPart(
        primitive="cylinder",
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, base_z]),
        scale=np.array([base_r, base_r, base_h]),
        part_label="lamp_base",
    )
    stem_lo = base_z + base_h
    stem_hi = shade_z - shade_h + 0.02
    stem = ObjectPart(
        primitive="cylinder",
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, (stem_lo + stem_hi) / 2.0]),
        scale=np.array([stem_r, stem_r, (stem_hi - stem_lo) / 2.0]),
        part_label="lamp_stem",
    )
    shade = ObjectPart(
        primitive="cylinder",
        rotation=np.eye(3),
        translation=np.array([0.0, 0.0, shade_z]),
        scale=np.array([shade_r, shade_r, shade_h]),
        part_label="lamp_shade",
        affordance_tags=("attach",),
    )
    return [base, stem, shade]


_BUILDERS = {"mug": _make_mug, "hammer": _make_hammer, "chair": _make_chair, "lamp": _make_lamp}


def generate_object(seed: int) -> SyntheticObject:
    """Deterministic object for a seed; templates cycle with ``seed % 4``.

    After the per-template draws, one global uniform scale in
    [0.88, 1.02] and a translation jitter (+-0.04 in x/y, +-0.03 in z)
    fold into every part, so objects vary in overall size and placement
    while all analytic tests stay exact.
    """
    if seed < 0:
        raise DomainError("seed must be non-negative")
    template = TEMPLATES[seed % len(TEMPLATES)]
    rng = np.random.default_rng(seed)
    parts = _BUILDERS[template](rng)
    g = rng.uniform(0.88, 1.02)
    shift = np.array(
        [rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04), rng.uniform(-0.03, 0.03)]
    )
    placed = []
    for part in parts:
        params = dict(part.params)
        if part.primitive == "torus_segment":
            params["major_radius"] *= g
            params["minor_radius"] *= g
            scale = part.scale
        else:
            scale = part.scale * g
        placed.append(
            ObjectPart(
                primitive=part.primitive,
                rotation=part.rotation,
                translation=part.translation * g + shift,
                scale=scale,
                part_label=part.part_label,
                affordance_tags=part.affordance_tags,
                params=params,
            )
        )
    return SyntheticObject(
        object_id=f"{template}-{seed:06d}", seed=seed, template=template, parts=tuple(placed)
    )


# --- serialization ---------------------------------------------------------


def object_to_dict(obj: SyntheticObject) -> dict:
    return {
        "object_id": obj.object_id,
        "seed": obj.seed,
        "template": obj.template,
        "parts": [
            {
                "primitive": p.primitive,
                "rotation": p.rotation.reshape(-1).tolist(),
                "translation": p.translation.tolist(),
                "scale": p.scale.tolist(),
                "part_label": p.part_label,
                "affordance_tags": sorted(p.affordance_tags),
                "params": {k: p.params[k] for k in sorted(p.params)},
            }
            for p in obj.parts
        ],
    }


def object_from_dict(data: dict) -> SyntheticObject:
    try:
        parts = tuple(
            ObjectPart(
                primitive=p["primitive"],
                rotation=np.array(p["rotation"], dtype=float).reshape(3, 3),
                translation=np.array(p["translation"], dtype=float),
                scale=np.array(p["scale"], dtype=float),
                part_label=p["part_label"],
                affordance_tags=p["affordance_tags"],
                params=dict(p.get("params", {})),
            )
            for p in data["parts"]
        )
        return SyntheticObject(
            object_id=str(data["object_id"]),
            seed=record_integer("scene", "seed", data["seed"]),
            template=str(data["template"]),
            parts=parts,
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed scene record: {exc}") from exc


def save_object(path, obj: SyntheticObject):
    with open(path, "w") as f:
        json.dump(object_to_dict(obj), f, sort_keys=True)
        f.write("\n")


def load_object(path) -> SyntheticObject:
    with open(path) as f:
        return object_from_dict(json.load(f))


def table_to_dict(table: QueryTable) -> dict:
    return {
        "dim": table.dim,
        "queries": {
            q: {"tag": tag, "embedding": emb.tolist()}
            for q, (tag, emb) in sorted(table.entries.items())
        },
    }


def table_from_dict(data: dict) -> QueryTable:
    try:
        entries = {
            q: (rec["tag"], np.array(rec["embedding"], dtype=float))
            for q, rec in data["queries"].items()
        }
        return QueryTable(entries=entries, dim=data["dim"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed query table: {exc}") from exc


def save_table(path, table: QueryTable):
    with open(path, "w") as f:
        json.dump(table_to_dict(table), f, sort_keys=True)
        f.write("\n")


def load_table(path) -> QueryTable:
    with open(path) as f:
        return table_from_dict(json.load(f))
