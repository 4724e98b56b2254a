"""Ray-cast renderer tests.

The traversal is checked against independent oracles: closed-form
entry depths for axis-aligned cameras, a fine-step ray marcher on
random objects, and the unprojection consistency guarantee (hit pixels
unproject back onto the face of the reported cell).
"""

import json

import numpy as np
import pytest

import voxaff.pipeline as pl
import voxaff.render as rd
import voxaff.synthscene as sc
from voxaff.errors import CameraInsideCubeError, DomainError, SupportError
from voxaff.geometry import (
    CameraIntrinsics,
    Pose,
    Viewpoint,
    eval_intrinsics,
    hemisphere_candidates,
    look_at,
    unproject_pixels,
)
from voxaff.voxel import AffordanceHeatmap


def _axis_view(axis: int, side: int, intrinsics: CameraIntrinsics) -> Viewpoint:
    """Camera on a coordinate axis at distance 2, looking at the origin."""
    if axis == 2:
        rotation = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
        if side < 0:
            rotation = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    elif axis == 0:
        rotation = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0]])
        if side > 0:
            rotation = np.array([[0, 0, -1.0], [-1.0, 0, 0], [0, 1.0, 0]])
    else:
        rotation = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])
        if side > 0:
            rotation = np.array([[-1.0, 0, 0], [0, 0, -1.0], [0, -1.0, 0]])
    origin = np.zeros(3)
    origin[axis] = 2.0 * side
    return Viewpoint(intrinsics=intrinsics, pose=Pose(rotation=rotation, translation=origin))


def _single_pixel_view() -> Viewpoint:
    """1x1 image whose only ray runs exactly down the optical axis."""
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1)
    return _axis_view(2, 1, intr)


def _box_object(scale, translation=(0.0, 0.0, 0.0), tag="grasp") -> sc.SyntheticObject:
    part = sc.ObjectPart(
        primitive="box",
        rotation=np.eye(3),
        translation=np.asarray(translation, dtype=float),
        scale=np.asarray(scale, dtype=float),
        part_label="slab",
        affordance_tags=(tag,),
    )
    return sc.SyntheticObject(object_id="slab-0", seed=0, template="mug", parts=(part,))


def _traverse(occ: np.ndarray, view: Viewpoint):
    """Reference first hits: march every pixel ray, whatever tables are cached.

    Returns the per-pixel arrays of ``_march`` (flattened row-major) plus
    the camera-frame z per unit ray length.
    """
    rays = rd._ray_setup(view, occ.shape[0])
    return (*rd._march(rays, occ.shape[0], occ), rays.z_per_t)


# --- analytic depth oracles -------------------------------------------------


def test_center_voxel_axis_ray_depth_exact():
    # Voxel (4,4,4) of an r=9 grid spans [-1/18, 1/18] on every axis.  A ray
    # from (0,0,2) straight down -z enters through the z = +1/18 face, and
    # the camera-frame z of that point is 2 - 1/18.
    view = _single_pixel_view()
    img = rd.raycast_depth([(4, 4, 4)], 9, view)
    assert img.values.shape == (1, 1)
    assert img.values[0, 0] == pytest.approx(2.0 - 1.0 / 18.0, abs=1e-12)


def test_axis_rays_from_all_six_sides():
    # The center voxel of an r=9 grid looks identical from every axis
    # direction: entry depth 2 - 1/18 for the on-axis ray.
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1)
    for axis in range(3):
        for side in (-1, 1):
            view = _axis_view(axis, side, intr)
            img = rd.raycast_depth([(4, 4, 4)], 9, view)
            assert img.values[0, 0] == pytest.approx(2.0 - 1.0 / 18.0, abs=1e-12), (axis, side)


def test_top_slab_constant_depth():
    # With the camera exactly on the +z axis, every ray that reaches the
    # full top layer (iz = r-1) first crosses its z = 0.5 plane, and the
    # camera-frame depth of any point on that plane is exactly 1.5.
    r = 8
    occupied = [(ix, iy, r - 1) for ix in range(r) for iy in range(r)]
    view = _axis_view(2, 1, eval_intrinsics(64))
    img = rd.raycast_depth(occupied, r, view)
    hits = img.values > 0
    assert hits.any() and not hits.all()
    assert np.max(np.abs(img.values[hits] - 1.5)) < 1e-12


def test_miss_pixels_read_zero_and_empty_scene_is_black():
    view = _axis_view(2, 1, eval_intrinsics(32))
    img = rd.raycast_depth(np.zeros((0, 3), dtype=np.int64), 8, view)
    assert img.values.shape == (32, 32)
    assert not img.values.any()


def test_camera_inside_cube_rejected():
    view = Viewpoint(
        intrinsics=eval_intrinsics(16),
        pose=Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.2])),
    )
    with pytest.raises(CameraInsideCubeError):
        rd.raycast_depth([(0, 0, 0)], 8, view)
    boundary = Viewpoint(
        intrinsics=eval_intrinsics(16),
        pose=Pose(rotation=np.eye(3), translation=np.array([0.5, 0.0, 0.0])),
    )
    with pytest.raises(CameraInsideCubeError):
        rd.raycast_depth([(0, 0, 0)], 8, boundary)


# --- marching oracle --------------------------------------------------------


def _march_depths(occ: np.ndarray, view: Viewpoint, t_step: float):
    """Fine-step sampling oracle: camera z of the first sample inside an
    occupied cell, per pixel (NaN = no sample hit).  The sampled depth can
    overshoot the true entry by at most one step."""
    r = occ.shape[0]
    intr = view.intrinsics
    us, vs = np.meshgrid(np.arange(intr.width) + 0.5, np.arange(intr.height) + 0.5)
    dirs_cam = np.stack(
        [(us - intr.cx) / intr.fx, (vs - intr.cy) / intr.fy, np.ones_like(us)], axis=-1
    ).reshape(-1, 3)
    dirs_cam /= np.linalg.norm(dirs_cam, axis=1, keepdims=True)
    dirs = dirs_cam @ view.pose.rotation.T
    ts = np.arange(1.0, 4.0, t_step)
    points = view.pose.translation + ts[None, :, None] * dirs[:, None, :]
    grid = np.floor((points + 0.5) * r).astype(int)
    valid = np.all((grid >= 0) & (grid < r), axis=-1)
    g = np.clip(grid, 0, r - 1)
    inside = valid & occ[g[..., 0], g[..., 1], g[..., 2]]
    any_hit = inside.any(axis=1)
    first = np.argmax(inside, axis=1)
    depth = np.where(any_hit, ts[first] * dirs_cam[:, 2], np.nan)
    return depth.reshape(intr.height, intr.width)


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_depth_matches_fine_ray_marching(seed):
    r = 8
    obj = sc.generate_object(seed)
    occ = sc.ground_truth_occupancy(obj, r).values[..., 0] > 0
    view = hemisphere_candidates(40, intrinsics=eval_intrinsics(16))[seed % 40]
    img = rd.raycast_depth(sc.occupied_indices(obj, r), r, view)
    t_step = 5e-4
    oracle = _march_depths(occ, view, t_step)
    marched = ~np.isnan(oracle)
    # every pixel the marcher hits, the exact traversal must hit too
    assert np.all(img.values[marched] > 0)
    # and the sampled depth overshoots the entry face by less than one step
    diff = oracle[marched] - img.values[marched]
    assert np.min(diff) > -1e-9
    assert np.max(diff) < t_step + 1e-9
    # traversal-only pixels can only be grazing silhouette rays
    extra = (img.values > 0) & ~marched
    assert extra.mean() < 0.02


def test_unprojected_hits_land_on_cell_faces():
    # Depth-consistency guarantee: unprojecting every hit pixel with its
    # rendered depth lands exactly on a face of an occupied cell, i.e.
    # within half a cell (inf-norm) of some occupied center.
    r = 8
    for seed in (0, 5, 9):
        obj = sc.generate_object(seed)
        occupied = sc.occupied_indices(obj, r)
        centers = (occupied + 0.5) / r - 0.5
        view = hemisphere_candidates(40, intrinsics=eval_intrinsics(24))[(7 * seed) % 40]
        img = rd.raycast_depth(occupied, r, view)
        vs, us = np.nonzero(img.values)
        assert len(us) > 0
        points = unproject_pixels(us + 0.5, vs + 0.5, img.values[vs, us], view)
        gaps = np.abs(points[:, None, :] - centers[None, :, :]).max(axis=2).min(axis=1)
        assert np.max(gaps) <= 0.5 / r + 1e-9


def test_occlusion_added_voxels_behind_do_not_change_image():
    r = 8
    wall = [(2, iy, iz) for iy in range(r) for iz in range(r)]
    behind = wall + [(6, iy, iz) for iy in range(r) for iz in range(r)]
    view = _axis_view(0, -1, eval_intrinsics(48))
    front = rd.raycast_depth(wall, r, view)
    both = rd.raycast_depth(behind, r, view)
    assert np.array_equal(front.values, both.values)


def test_render_is_deterministic():
    obj = sc.generate_object(2)
    view = hemisphere_candidates(40, intrinsics=eval_intrinsics(16))[13]
    a = rd.raycast_depth(sc.occupied_indices(obj, 8), 8, view)
    b = rd.raycast_depth(sc.occupied_indices(obj, 8), 8, view)
    assert np.array_equal(a.values, b.values)


# --- feature renders --------------------------------------------------------


def test_render_views_features_carry_label_and_normal():
    # A box slab seen from +z: every hit pixel shows the part's label
    # embedding in the leading channels and the +z face normal behind it.
    obj = _box_object(scale=(0.3, 0.3, 0.2))
    view = _axis_view(2, 1, eval_intrinsics(32))
    depth, feats = rd.render_views(obj, view, r=8, channels=16)
    assert feats.shape == (32, 32, 16)
    hits = depth.values > 0
    assert hits.any()
    label = sc.label_embedding("slab", 13)
    assert np.allclose(feats[hits][:, :13], label)
    assert np.allclose(feats[hits][:, 13:], [0.0, 0.0, 1.0])
    assert not feats[~hits].any()


def test_render_views_depth_matches_raycast():
    obj = sc.generate_object(4)
    view = hemisphere_candidates(40, intrinsics=eval_intrinsics(16))[5]
    depth, _ = rd.render_views(obj, view, r=8, channels=16)
    plain = rd.raycast_depth(sc.occupied_indices(obj, 8), 8, view)
    assert np.array_equal(depth.values, plain.values)


def test_render_views_normals_flip_with_camera_side():
    obj = _box_object(scale=(0.3, 0.3, 0.2))
    below = _axis_view(2, -1, eval_intrinsics(16))
    depth, feats = rd.render_views(obj, below, r=8, channels=16)
    hits = depth.values > 0
    assert hits.any()
    assert np.allclose(feats[hits][:, 13:], [0.0, 0.0, -1.0])


# --- affordance renders -----------------------------------------------------


def test_render_affordance_reads_first_hit_value():
    r = 8
    wall = [(2, iy, iz) for iy in range(r) for iz in range(r)]
    heat = AffordanceHeatmap.from_entries(r, {(2, 4, 4): 0.7}, logits=False)
    view = _axis_view(0, -1, eval_intrinsics(48))
    img = rd.render_affordance(wall, heat, view)
    occ = rd.occupancy_cube(wall, r)
    hit, _, cells, _, _, _ = _traverse(occ, view)
    expect = np.zeros(hit.shape[0])
    expect[hit] = (cells[hit] == [2, 4, 4]).all(axis=1) * 0.7
    assert np.array_equal(img.values.ravel(), expect)
    assert img.total() > 0


def test_render_affordance_respects_occlusion():
    # Heat hidden behind an unheated wall contributes nothing.
    r = 8
    wall = [(2, iy, iz) for iy in range(r) for iz in range(r)]
    hidden = wall + [(6, 4, 4)]
    heat = AffordanceHeatmap.from_entries(r, {(6, 4, 4): 1.0}, logits=False)
    view = _axis_view(0, -1, eval_intrinsics(48))
    img = rd.render_affordance(hidden, heat, view)
    assert img.total() == 0.0


def test_render_affordance_requires_support():
    heat = AffordanceHeatmap.from_entries(8, {(1, 1, 1): 0.5}, logits=False)
    view = _axis_view(0, -1, eval_intrinsics(16))
    with pytest.raises(SupportError):
        rd.render_affordance([(2, 2, 2)], heat, view)


# --- ray tables ---------------------------------------------------------------


def _assert_table_matches_march(occupied, r, view, rng):
    """First hits read from the table equal those of the march: the affordance
    render's hit mask, cell and heat, and every array the depth renders use."""
    occupied = np.asarray(occupied, dtype=np.int64).reshape(-1, 3)
    strides = np.array([1, r, r * r])
    occ = rd.occupancy_cube(occupied, r)
    marched = _traverse(occ, view)
    hit, _, cells, _, _, _ = marched
    first = cells @ strides
    # Heat (flat + 1) / (r^3 + 1) on every occupied cell names the first hit.
    tagged = AffordanceHeatmap(
        resolution=r, positions=occupied, values=(occupied @ strides + 1.0) / (r**3 + 1.0)
    )
    seen = rd.render_affordance(occupied, tagged, view).values.ravel()
    assert np.array_equal(seen > 0, hit)
    assert np.array_equal(np.rint(seen[hit] * (r**3 + 1.0)).astype(np.int64) - 1, first[hit])
    keep = rng.random(len(occupied)) < 0.5
    heat = AffordanceHeatmap(
        resolution=r, positions=occupied[keep], values=rng.random(int(keep.sum()))
    )
    values = np.zeros(r**3)
    values[heat.positions @ strides] = heat.values
    expect = np.where(hit, values[first], 0.0).reshape(view.intrinsics.height, -1)
    assert np.array_equal(rd.render_affordance(occupied, heat, view).values, expect)
    read = rd._read_table(rd._cached_ray_table(view, r), rd._ray_setup(view, r), r, occ)
    for got, want in zip(read, marched):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_render_views_matches_march(obj, r, view):
    """``render_views`` from a cached table equals the march it replaces."""
    table = rd._ray_table(view, r)
    del rd._ray_tables[rd._table_key(view, r)]
    marched_depth, marched_feats = rd.render_views(obj, view, r)
    rd._ray_tables[rd._table_key(view, r)] = table
    depth, feats = rd.render_views(obj, view, r)
    assert np.array_equal(depth.values, marched_depth.values)
    assert np.array_equal(feats, marched_feats)


@pytest.mark.parametrize("seed", range(1000, 1020))
def test_ray_table_matches_march_on_every_shipped_candidate(seed):
    # Ground-truth occupancy, then a seeded random subset of it standing in
    # for a partial reconstruction.
    r = 8
    rng = np.random.default_rng(seed)
    obj = sc.generate_object(seed)
    truth = sc.occupied_indices(obj, r)
    partial = truth[rng.random(len(truth)) < 0.6]
    for view in hemisphere_candidates(40, intrinsics=eval_intrinsics(128)):
        _assert_render_views_matches_march(obj, r, view)
        for occupied in (truth, partial):
            _assert_table_matches_march(occupied, r, view, rng)


def test_ray_table_matches_march_at_r16():
    r = 16
    rng = np.random.default_rng(16)
    for seed in (1000, 1001):
        obj = sc.generate_object(seed)
        truth = sc.occupied_indices(obj, r)
        for view in hemisphere_candidates(40, intrinsics=eval_intrinsics(48)):
            _assert_render_views_matches_march(obj, r, view)
            _assert_table_matches_march(truth, r, view, rng)


def test_ray_table_reads_hits_in_the_entry_cell():
    # A box filling the cube: every hit is in the ray's first cell, whose
    # entry axis and t come from the slab entry rather than from a step.
    r = 8
    obj = _box_object(scale=(0.6, 0.6, 0.6))
    full = sc.occupied_indices(obj, r)
    assert len(full) == r**3
    rng = np.random.default_rng(8)
    views = hemisphere_candidates(40, intrinsics=eval_intrinsics(32))
    for view in views + [_axis_view(axis, side, eval_intrinsics(16)) for axis in range(3) for side in (-1, 1)]:
        _assert_render_views_matches_march(obj, r, view)
        _assert_table_matches_march(full, r, view, rng)


def test_ray_table_non_square_image():
    intr = CameraIntrinsics(fx=30.0, fy=28.0, cx=21.0, cy=11.5, width=40, height=24)
    view = Viewpoint(intrinsics=intr, pose=look_at([1.2, -1.0, 1.1], [0.0, 0.0, 0.0]))
    obj = sc.generate_object(1003)
    _assert_render_views_matches_march(obj, 8, view)
    _assert_table_matches_march(sc.occupied_indices(obj, 8), 8, view, np.random.default_rng(0))
    assert rd._ray_table(view, 8).rows.shape == (40 * 24,)


def test_ray_table_view_that_misses_the_cube():
    # On the +z axis looking further up: no ray meets the cube.
    view = Viewpoint(
        intrinsics=eval_intrinsics(16),
        pose=Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0])),
    )
    table = rd._ray_table(view, 8)
    assert table.cells.size == 0 and table.lengths.size == 0
    assert not table.rows.any()
    obj = sc.generate_object(1004)
    _assert_render_views_matches_march(obj, 8, view)
    assert not rd.render_views(obj, view, 8)[0].values.any()
    _assert_table_matches_march(sc.occupied_indices(obj, 8), 8, view, np.random.default_rng(1))


def test_ray_table_cells_widen_past_uint16():
    # r^3 + 1 = 68922 needs more than 16 bits; r = 40 still fits.
    view = hemisphere_candidates(40, intrinsics=eval_intrinsics(16))[7]
    assert rd._ray_table(view, 40).cells.dtype == np.uint16
    table = rd._ray_table(view, 41)
    assert table.cells.dtype == np.uint32
    assert table.cells.max() >= 2**16
    truth = sc.occupied_indices(sc.generate_object(1005), 41)
    _assert_table_matches_march(truth, 41, view, np.random.default_rng(2))


def test_render_affordance_rejects_camera_inside_cube():
    view = Viewpoint(
        intrinsics=eval_intrinsics(16),
        pose=Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.2])),
    )
    heat = AffordanceHeatmap.from_entries(8, {(0, 0, 0): 0.5}, logits=False)
    with pytest.raises(CameraInsideCubeError):
        rd.render_affordance([(0, 0, 0)], heat, view)


def test_ray_table_arrays_are_read_only():
    table = rd._ray_table(hemisphere_candidates(40, intrinsics=eval_intrinsics(16))[3], 8)
    for array in table:
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        table.cells[0] = 0


def test_ray_table_cache_keys_on_intrinsics_and_resolution():
    rd._ray_tables.clear()
    pose = hemisphere_candidates(40)[11].pose
    views = [Viewpoint(intrinsics=eval_intrinsics(size), pose=pose) for size in (16, 24)]
    tables = [rd._ray_table(view, 8) for view in views]
    rd._ray_table(views[0], 12)
    assert len(rd._ray_tables) == 3
    assert rd._ray_table(views[1], 8) is tables[1]
    assert len(rd._ray_tables) == 3


def test_ray_table_cache_stays_within_its_bound():
    rd._ray_tables.clear()
    views = hemisphere_candidates(rd.RAY_TABLE_CACHE_SIZE + 6, intrinsics=eval_intrinsics(4))
    for view in views:
        rd._ray_table(view, 4)
        assert len(rd._ray_tables) <= rd.RAY_TABLE_CACHE_SIZE
    assert len(rd._ray_tables) == rd.RAY_TABLE_CACHE_SIZE
    # The least recently used tables go first, and a lookup counts as a use.
    assert rd._cached_ray_table(views[5], 4) is None
    assert rd._cached_ray_table(views[6], 4) is not None
    rd._ray_table(views[0], 4)
    assert rd._cached_ray_table(views[6], 4) is not None
    assert rd._cached_ray_table(views[7], 4) is None


def test_second_selection_over_same_candidates_hits_the_cache(monkeypatch):
    r = 8
    cands = hemisphere_candidates(40, intrinsics=eval_intrinsics(32))
    occ = sc.occupied_indices(sc.generate_object(1006), r)
    heat = AffordanceHeatmap(resolution=r, positions=occ, values=np.full(len(occ), 0.5))
    rd._ray_tables.clear()
    first = pl.select_next_view(occ, heat, cands)
    tables = dict(rd._ray_tables)
    assert len(tables) == 40

    def build(*args):
        raise AssertionError("a cached camera built its table again")

    monkeypatch.setattr(rd, "_build_ray_table", build)
    second = pl.select_next_view(occ, heat, cands)
    assert rd._ray_tables.keys() == tables.keys()
    assert all(rd._ray_tables[key] is table for key, table in tables.items())
    assert (second.index, second.scores) == (first.index, first.scores)


def test_depth_renders_of_an_uncached_camera_leave_the_cache_alone():
    r = 8
    obj = sc.generate_object(1007)
    cands = hemisphere_candidates(3, intrinsics=eval_intrinsics(32))
    rd._ray_tables.clear()
    tables = {rd._table_key(view, r): rd._ray_table(view, r) for view in cands[:2]}
    rd.render_views(obj, cands[2], r)
    rd.raycast_depth(sc.occupied_indices(obj, r), r, cands[2])
    assert list(rd._ray_tables) == list(tables)
    assert all(rd._ray_tables[key] is table for key, table in tables.items())


def test_scalar_image_total_and_validation():
    img = rd.ScalarImage(width=2, height=2, values=np.array([[0.25, 0.5], [0.0, 1.0]]))
    assert img.total() == pytest.approx(1.75)
    with pytest.raises(DomainError):
        rd.DepthImage(width=2, height=2, values=-np.ones((2, 2)))
    with pytest.raises(Exception):
        rd.ScalarImage(width=3, height=2, values=np.zeros((2, 2)))
