"""Ray-cast renderer tests.

The traversal is checked against independent oracles: closed-form
entry depths for axis-aligned cameras, a fine-step ray marcher on
random objects, and the unprojection consistency guarantee (hit pixels
unproject back onto the face of the reported cell).
"""

import itertools
import json
from typing import NamedTuple

import numpy as np
import pytest

import voxaff.pipeline as pl
import voxaff.render as rd
import voxaff.synthscene as sc
from oracles import heatmap_from_entries, occupancy_cube, raycast_depth
from voxaff.errors import CameraInsideCubeError, DomainError, SupportError
from voxaff.geometry import (
    CameraIntrinsics,
    Pose,
    Viewpoint,
    _up_for,
    eval_intrinsics,
    hemisphere_candidates,
    look_at,
    unproject_pixels,
)
from voxaff.netcore import random_hemisphere_view
from voxaff.voxel import AffordanceHeatmap, as_index_array, flat_index


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


def _reference_march(rays: rd._Rays, r: int, occ: np.ndarray | None = None):
    """The (n, 3)-array walk that ``rd._march`` replaced, kept as its reference.

    Amanatides & Woo walk of every reaching ray through the r^3 lattice.

    Given an (r, r, r) boolean ``occ``, each ray stops at its first
    occupied cell and the result is per-pixel ``hit`` mask, world ray
    length ``t`` to the entry face, hit ``cells`` (n, 3), entry ``axis``
    and face ``sign`` (+-1, pointing against the ray).  Given none, each
    ray walks to the cube exit and the result is an (n, 3r + 2) table of
    the flat cells ``ix + r*iy + r^2*iz`` it crosses, in order, padded
    with r^3.
    """
    n = rays.dirs.shape[0]
    if occ is None:
        table = np.full((n, 3 * r + 2), r**3, dtype=np.min_scalar_type(r**3))
    else:
        hit = np.zeros(n, dtype=bool)
        t_hit = np.zeros(n)
        cells_hit = np.zeros((n, 3), dtype=np.int64)
        axis_hit = np.zeros(n, dtype=np.int64)
        sign_hit = np.zeros(n, dtype=np.int64)

    idx = np.nonzero(rays.reaches)[0]
    og = rays.og
    d = rays.dg[idx]
    t_curr = rays.t_enter[idx]
    axis_curr = rays.enter_axis[idx]
    step = np.sign(d).astype(np.int64)
    pos = og + t_curr[:, None] * d
    cell = np.clip(np.floor(pos).astype(np.int64), 0, r - 1)
    # Entry axis is known exactly: the ray enters through that cube face.
    rows = np.arange(idx.size)
    cell[rows, axis_curr] = np.where(step[rows, axis_curr] > 0, 0, r - 1)

    with np.errstate(divide="ignore"):
        t_delta = np.where(d != 0.0, 1.0 / np.abs(d), np.inf)
        next_bound = cell + (step > 0)
        t_max = np.where(d != 0.0, (next_bound - og) / d, np.inf)

    for k in range(3 * r + 2):
        if idx.size == 0:
            break
        if occ is None:
            table[idx, k] = flat_index(cell, r)
        else:
            occ_here = occ[cell[:, 0], cell[:, 1], cell[:, 2]]
            if np.any(occ_here):
                out = idx[occ_here]
                hit[out] = True
                t_hit[out] = t_curr[occ_here]
                cells_hit[out] = cell[occ_here]
                axis_hit[out] = axis_curr[occ_here]
                rows_out = np.nonzero(occ_here)[0]
                sign_hit[out] = -step[rows_out, axis_curr[occ_here]]
                keep = ~occ_here
                idx, d, t_curr, axis_curr = idx[keep], d[keep], t_curr[keep], axis_curr[keep]
                step, cell, t_delta, t_max = step[keep], cell[keep], t_delta[keep], t_max[keep]
                if idx.size == 0:
                    break
        axis_curr = np.argmin(t_max, axis=1)
        rows = np.arange(idx.size)
        t_curr = t_max[rows, axis_curr]
        cell[rows, axis_curr] += step[rows, axis_curr]
        t_max[rows, axis_curr] += t_delta[rows, axis_curr]
        inside = (cell[rows, axis_curr] >= 0) & (cell[rows, axis_curr] < r)
        if not np.all(inside):
            idx, d, t_curr, axis_curr = (
                idx[inside], d[inside], t_curr[inside], axis_curr[inside],
            )
            step, cell, t_delta, t_max = (
                step[inside], cell[inside], t_delta[inside], t_max[inside],
            )

    if occ is None:
        return table
    return hit, t_hit, cells_hit, axis_hit, sign_hit


def _traverse(occ: np.ndarray, view: Viewpoint):
    """Reference first hits: march every pixel ray, whatever tables are cached.

    Returns the per-pixel arrays of the march (flattened row-major) plus
    the camera-frame z per unit ray length.
    """
    rays = rd._ray_setup(view, occ.shape[0])
    return (*_reference_march(rays, occ.shape[0], occ), rays.z_per_t)


# --- analytic depth oracles -------------------------------------------------


def test_center_voxel_axis_ray_depth_exact():
    # Voxel (4,4,4) of an r=9 grid spans [-1/18, 1/18] on every axis.  A ray
    # from (0,0,2) straight down -z enters through the z = +1/18 face, and
    # the camera-frame z of that point is 2 - 1/18.
    view = _single_pixel_view()
    img = raycast_depth([(4, 4, 4)], 9, view)
    assert img.values.shape == (1, 1)
    assert img.values[0, 0] == pytest.approx(2.0 - 1.0 / 18.0, abs=1e-12)


def test_axis_rays_from_all_six_sides():
    # The center voxel of an r=9 grid looks identical from every axis
    # direction: entry depth 2 - 1/18 for the on-axis ray.
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1)
    for axis in range(3):
        for side in (-1, 1):
            view = _axis_view(axis, side, intr)
            img = raycast_depth([(4, 4, 4)], 9, view)
            assert img.values[0, 0] == pytest.approx(2.0 - 1.0 / 18.0, abs=1e-12), (axis, side)


def test_top_slab_constant_depth():
    # With the camera exactly on the +z axis, every ray that reaches the
    # full top layer (iz = r-1) first crosses its z = 0.5 plane, and the
    # camera-frame depth of any point on that plane is exactly 1.5.
    r = 8
    occupied = [(ix, iy, r - 1) for ix in range(r) for iy in range(r)]
    view = _axis_view(2, 1, eval_intrinsics(64))
    img = raycast_depth(occupied, r, view)
    hits = img.values > 0
    assert hits.any() and not hits.all()
    assert np.max(np.abs(img.values[hits] - 1.5)) < 1e-12


def test_miss_pixels_read_zero_and_empty_scene_is_black():
    view = _axis_view(2, 1, eval_intrinsics(32))
    img = raycast_depth(np.zeros((0, 3), dtype=np.int64), 8, view)
    assert img.values.shape == (32, 32)
    assert not img.values.any()


def test_camera_inside_cube_rejected():
    view = Viewpoint(
        intrinsics=eval_intrinsics(16),
        pose=Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.2])),
    )
    with pytest.raises(CameraInsideCubeError):
        raycast_depth([(0, 0, 0)], 8, view)
    boundary = Viewpoint(
        intrinsics=eval_intrinsics(16),
        pose=Pose(rotation=np.eye(3), translation=np.array([0.5, 0.0, 0.0])),
    )
    with pytest.raises(CameraInsideCubeError):
        raycast_depth([(0, 0, 0)], 8, boundary)


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
    occ = sc.ground_truth_occupancy(obj, r)
    view = hemisphere_candidates(40, intrinsics=eval_intrinsics(16))[seed % 40]
    img = raycast_depth(sc.occupied_indices(obj, r), r, view)
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
        img = raycast_depth(occupied, r, view)
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
    front = raycast_depth(wall, r, view)
    both = raycast_depth(behind, r, view)
    assert np.array_equal(front.values, both.values)


def test_render_is_deterministic():
    obj = sc.generate_object(2)
    view = hemisphere_candidates(40, intrinsics=eval_intrinsics(16))[13]
    a = raycast_depth(sc.occupied_indices(obj, 8), 8, view)
    b = raycast_depth(sc.occupied_indices(obj, 8), 8, view)
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
    plain = raycast_depth(sc.occupied_indices(obj, 8), 8, view)
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
    heat = heatmap_from_entries(r, {(2, 4, 4): 0.7})
    view = _axis_view(0, -1, eval_intrinsics(48))
    img = rd.render_affordance(wall, heat, view)
    occ = occupancy_cube(wall, r)
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
    heat = heatmap_from_entries(r, {(6, 4, 4): 1.0})
    view = _axis_view(0, -1, eval_intrinsics(48))
    img = rd.render_affordance(hidden, heat, view)
    assert img.total() == 0.0


def test_render_affordance_requires_support():
    heat = heatmap_from_entries(8, {(1, 1, 1): 0.5})
    view = _axis_view(0, -1, eval_intrinsics(16))
    with pytest.raises(SupportError):
        rd.render_affordance([(2, 2, 2)], heat, view)


# --- the march against its reference -----------------------------------------


def _truth_cube(seed: int, r: int) -> np.ndarray:
    return sc.ground_truth_occupancy(sc.generate_object(seed), r)


def _assert_march_matches_reference(view, r, occupancies):
    """``rd._march`` equals the reference walk array by array, dtypes
    included: to the first hit in each occupancy, and to the cube exit."""
    rays = rd._ray_setup(view, r)
    for occ in (*occupancies, None):
        with np.errstate(invalid="ignore"):  # the reference's 0/0 on a parallel axis
            want = _reference_march(rays, r, occ)
        got = rd._march(rays, r, occ)
        if occ is None:
            got, want = (got,), (want,)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("r", [8, 16])
def test_march_matches_reference_on_random_and_candidate_views(r):
    # 120 cameras per resolution: random training views at 64^2 and 128^2,
    # then the 40 shipped candidates at 128^2, each against the ground truth
    # of one of 20 objects and a random subset of it.
    rng = np.random.default_rng(r)
    truths = [_truth_cube(seed, r) for seed in range(1000, 1020)]
    views = [random_hemisphere_view(rng, eval_intrinsics(64)) for _ in range(60)]
    views += [random_hemisphere_view(rng, eval_intrinsics(128)) for _ in range(20)]
    views += hemisphere_candidates(40, intrinsics=eval_intrinsics(128))
    for i, view in enumerate(views):
        truth = truths[i % 20]
        partial = truth & (rng.random(truth.shape) < 0.6)
        _assert_march_matches_reference(view, r, [truth, partial])


def test_march_matches_reference_at_r41():
    # r^3 = 68921 needs 32-bit table cells.
    view = hemisphere_candidates(40, intrinsics=eval_intrinsics(32))[7]
    assert rd._march(rd._ray_setup(view, 41), 41).dtype == np.uint32
    _assert_march_matches_reference(view, 41, [_truth_cube(1005, 41)])


def test_march_matches_reference_on_axis_aligned_cameras():
    # An odd image puts pixel rays on the central row and column, so some
    # direction components are exactly 0 and their t_delta and t_max are inf.
    for axis in range(3):
        for side in (-1, 1):
            view = _axis_view(axis, side, eval_intrinsics(15))
            assert (rd._ray_setup(view, 8).dg == 0.0).sum(axis=1).max() == 2
            _assert_march_matches_reference(view, 8, [_truth_cube(1001, 8), _truth_cube(1002, 8)])


def test_march_matches_reference_on_the_cube_diagonal():
    # The optical-axis ray of a camera on the diagonal has three equal
    # direction components, so its t_max tie exactly on all three axes.
    for corner in ([1.2, 1.2, 1.2], [-1.2, -1.2, -1.2], [1.2, -1.2, 1.2]):
        view = Viewpoint(intrinsics=eval_intrinsics(15), pose=look_at(corner, [0.0, 0.0, 0.0]))
        dg = np.abs(rd._ray_setup(view, 8).dg[7 * 15 + 7])
        assert dg[0] == dg[1] == dg[2]
        _assert_march_matches_reference(view, 8, [_truth_cube(1003, 8), np.zeros((8, 8, 8), dtype=bool)])


def test_march_matches_reference_on_a_full_and_an_empty_cube():
    # Full: every hit is in the ray's entry cell.  Empty: every ray misses.
    full, empty = np.ones((8, 8, 8), dtype=bool), np.zeros((8, 8, 8), dtype=bool)
    views = hemisphere_candidates(40, intrinsics=eval_intrinsics(32))[::4]
    for view in views + [_axis_view(2, 1, eval_intrinsics(15))]:
        rays = rd._ray_setup(view, 8)
        assert np.array_equal(rd._march(rays, 8, full)[0], rays.reaches)
        assert not rd._march(rays, 8, empty)[0].any()
        _assert_march_matches_reference(view, 8, [full, empty])


def test_march_matches_reference_when_no_ray_meets_the_cube():
    view = Viewpoint(
        intrinsics=eval_intrinsics(16),
        pose=Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0])),
    )
    assert not rd._ray_setup(view, 8).reaches.any()
    _assert_march_matches_reference(view, 8, [np.ones((8, 8, 8), dtype=bool)])


# --- the box cull against the reference walk ----------------------------------


def _reference_ray_setup(view: Viewpoint, r: int) -> rd._Rays:
    """The per-view ray set-up that ``rd._ray_setup`` replaced: every pixel
    direction recomputed from the intrinsics, kept as its reference."""
    intr = view.intrinsics
    h, w = intr.height, intr.width
    n = h * w
    uu = (np.arange(w) + 0.5 - intr.cx) / intr.fx
    vv = (np.arange(h) + 0.5 - intr.cy) / intr.fy
    du, dv = np.meshgrid(uu, vv)
    dirs_cam = np.stack([du, dv, np.ones_like(du)], axis=-1).reshape(n, 3)
    inv_norm = 1.0 / np.linalg.norm(dirs_cam, axis=1)
    dirs = (dirs_cam * inv_norm[:, None]) @ view.pose.rotation.T
    og = (view.pose.translation + 0.5) * r
    dg = dirs * r
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (0.0 - og) / dg
        t_hi = (float(r) - og) / dg
    parallel = dg == 0.0
    t_near = np.where(parallel, -np.inf, np.minimum(t_lo, t_hi))
    t_far = np.where(parallel, np.inf, np.maximum(t_lo, t_hi))
    miss_parallel = np.any(parallel & ((og < 0.0) | (og > r)), axis=1)
    t_enter = np.max(t_near, axis=1)
    t_exit = np.min(t_far, axis=1)
    enter_axis = np.argmax(t_near, axis=1)
    reaches = (t_enter <= t_exit) & (t_exit > 0.0) & ~miss_parallel
    return rd._Rays(dirs, inv_norm, og, dg, t_enter, enter_axis, reaches)


def _sphere_views(rng, count: int, pixels: int, targets) -> list:
    """Cameras at random directions on the full view sphere, each aimed at
    one of ``targets`` (world points) in turn."""
    views = []
    for i in range(count):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        pose = look_at(1.4 * direction, targets[i % len(targets)], up=_up_for(-direction))
        views.append(Viewpoint(intrinsics=eval_intrinsics(pixels), pose=pose))
    return views


def _single_cell(r: int, cell) -> np.ndarray:
    occ = np.zeros((r, r, r), dtype=bool)
    occ[tuple(cell)] = True
    return occ


def test_ray_setup_matches_reference():
    # Cached pixel rays change no float: random, candidate, axis-aligned
    # (exact zero components) and non-square cameras, at two resolutions.
    rng = np.random.default_rng(5)
    views = [random_hemisphere_view(rng, eval_intrinsics(64)) for _ in range(6)]
    views += hemisphere_candidates(40, intrinsics=eval_intrinsics(32))[::8]
    views += [_axis_view(axis, side, eval_intrinsics(15)) for axis in range(3) for side in (-1, 1)]
    pose = views[0].pose
    views.append(Viewpoint(CameraIntrinsics(fx=20.0, fy=24.0, cx=9.0, cy=6.5, width=17, height=12), pose))
    for view in views:
        for r in (8, 16):
            got, want = rd._ray_setup(view, r), _reference_ray_setup(view, r)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_pixel_rays_are_cached_read_only_per_intrinsics():
    intr = eval_intrinsics(24)
    unit, inv_norm = rd._pixel_rays(intr)
    assert rd._pixel_rays(eval_intrinsics(24))[0] is unit
    assert not unit.flags.writeable and not inv_norm.flags.writeable
    assert rd._pixel_rays(eval_intrinsics(32))[0].shape == (32 * 32, 3)


@pytest.mark.parametrize("r", [8, 16])
def test_cull_matches_reference_on_single_cells_at_corners_and_centre(r):
    # One occupied cell at each cube corner and at the centre, seen from
    # all round the sphere: cameras aimed at the cell's centre, at one of
    # its lattice corners, and at the cube's centre.
    rng = np.random.default_rng(r + 1)
    for cell in [*itertools.product((0, r - 1), repeat=3), (r // 2,) * 3]:
        centre = (np.array(cell) + 0.5) / r - 0.5
        corner = np.array(cell) / r - 0.5
        views = _sphere_views(rng, 6, 24, [centre, corner, np.zeros(3)])
        _assert_march_matches_reference_first_hits(views, r, [_single_cell(r, cell)])


def _plane_view(origin, pixels: int = 15) -> Viewpoint:
    """Camera at ``origin`` looking straight down -z, camera x along world x:
    its central pixel column has an exactly zero x direction, its central
    row an exactly zero y direction, and its central pixel looks along -z."""
    rotation = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
    pose = Pose(rotation=rotation, translation=np.asarray(origin, dtype=float))
    return Viewpoint(intrinsics=eval_intrinsics(pixels), pose=pose)


def test_cull_matches_reference_on_rays_in_the_grown_box_faces_and_edges():
    # Cells 3..4 on every axis at r = 8: the grown box is [2, 6]^3 in grid
    # units, world -0.25 and 0.25.  Central pixel rays lie exactly in its
    # face planes x = const and y = const, and the central ray of a camera
    # over a face edge runs along that edge.
    r = 8
    block = np.zeros((r, r, r), dtype=bool)
    block[3:5, 3:5, 3:5] = True
    sparse = np.zeros((r, r, r), dtype=bool)
    sparse[3, 3, 3] = sparse[4, 4, 4] = True
    planes = (-0.25, 0.25)
    views = [_plane_view((x, y, 2.0)) for x in planes for y in (*planes, 0.0, 0.1)]
    views += [_plane_view((x, y, 2.0)) for x in (0.0, 0.1) for y in planes]
    for view in views:
        rays = rd._ray_setup(view, r)
        dg = rays.dg.reshape(15, 15, 3)
        assert np.all(dg[:, 7, 0] == 0.0) and np.all(dg[7, :, 1] == 0.0)
        assert np.isin(rays.og[:2], (2.0, 6.0)).any()
    # Oblique rays in a face plane: cameras on the plane x = -0.25 aimed
    # at points of it, so their central row has no x direction.
    for target in ([-0.25, 0.0, 0.0], [-0.25, 0.25, 0.25], [-0.25, -0.25, 0.25]):
        pose = look_at([-0.25, 1.5, 1.2], target, up=[1.0, 0.0, 0.0])
        view = Viewpoint(intrinsics=eval_intrinsics(15), pose=pose)
        assert np.all(rd._ray_setup(view, r).dg.reshape(15, 15, 3)[7, :, 0] == 0.0)
        views.append(view)
    _assert_march_matches_reference_first_hits(views, r, [block, sparse])


def test_cull_matches_reference_when_the_grown_box_is_the_whole_cube():
    # Opposite corner cells (the box is the cube before growing) and cells
    # one in from them (growing reaches the cube exactly).
    r = 8
    rng = np.random.default_rng(3)
    corners, inner = np.zeros((r, r, r), dtype=bool), np.zeros((r, r, r), dtype=bool)
    corners[0, 0, 0] = corners[r - 1, r - 1, r - 1] = True
    inner[1, 1, 1] = inner[r - 2, r - 2, r - 2] = True
    views = _sphere_views(rng, 12, 24, [np.zeros(3), np.full(3, 0.375), np.full(3, -0.375)])
    views += [_axis_view(axis, side, eval_intrinsics(15)) for axis in range(3) for side in (-1, 1)]
    _assert_march_matches_reference_first_hits(views, r, [corners, inner])


def test_cull_matches_reference_at_r1():
    rng = np.random.default_rng(1)
    views = _sphere_views(rng, 8, 16, [np.zeros(3), np.full(3, 0.5), np.array([0.5, -0.5, 0.0])])
    views += [_axis_view(axis, side, eval_intrinsics(15)) for axis in range(3) for side in (-1, 1)]
    full, empty = np.ones((1, 1, 1), dtype=bool), np.zeros((1, 1, 1), dtype=bool)
    _assert_march_matches_reference_first_hits(views, 1, [full, empty])


def _assert_march_matches_reference_first_hits(views, r, occupancies):
    for view in views:
        rays = rd._ray_setup(view, r)
        for occ in occupancies:
            with np.errstate(invalid="ignore"):  # the reference's 0/0 on a parallel axis
                want = _reference_march(rays, r, occ)
            got = rd._march(rays, r, occ)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_render_views_with_a_given_occupancy_matches_the_built_one():
    rng = np.random.default_rng(9)
    for seed in (1000, 1003):
        obj = sc.generate_object(seed)
        occ = _truth_cube(seed, 8)
        for view in [random_hemisphere_view(rng, eval_intrinsics(32)) for _ in range(3)]:
            built = rd.render_views(obj, view, 8)
            given = rd.render_views(obj, view, 8, occ=occ)
            assert np.array_equal(given[0].values, built[0].values)
            assert np.array_equal(given[1], built[1])


# --- ray tables ---------------------------------------------------------------


def _assert_table_matches_march(occupied, r, view, rng):
    """First hits read from the table equal those of the march: the affordance
    render's hit mask, cell and heat, and every array the depth renders use."""
    occupied = np.asarray(occupied, dtype=np.int64).reshape(-1, 3)
    strides = np.array([1, r, r * r])
    occ = occupancy_cube(occupied, r)
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
    assert table.cells.size == 0 and table.indptr.tolist() == [0]
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
    heat = heatmap_from_entries(8, {(0, 0, 0): 0.5})
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
    pose = hemisphere_candidates(40, eval_intrinsics())[11].pose
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
    raycast_depth(sc.occupied_indices(obj, r), r, cands[2])
    assert list(rd._ray_tables) == list(tables)
    assert all(rd._ray_tables[key] is table for key, table in tables.items())


# --- candidate scoring against its reference -----------------------------------


class _LengthsTable(NamedTuple):
    """A ray table in the layout the reference reads: row sizes, not offsets."""

    cells: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray


def _lengths_table(table: rd._RayTable) -> _LengthsTable:
    return _LengthsTable(table.cells, np.diff(table.indptr).astype(np.uint8), table.rows)


def _reference_check_support(heat: AffordanceHeatmap, occupied):
    """The ``np.isin`` support check that the lattice test replaced, verbatim
    but for reading the rows unsorted: the count does not depend on order."""
    r = heat.resolution
    occ = np.asarray(occupied, dtype=np.int64).reshape(-1, 3)
    occ = occ[np.all((occ >= 0) & (occ < r), axis=1)]
    missing = np.count_nonzero(~np.isin(flat_index(heat.positions, r), flat_index(occ, r)))
    if missing:
        raise SupportError(f"{missing} heatmap positions outside occupancy")


def _reference_first_occupied(table, occ_flat):
    """Where each row of ``table`` starts in ``table.cells``, and where its
    first cell set in the flat occupancy ``occ_flat`` sits (``cells.size``: none).

    The per-call row-start version that ``rd._first_occupied`` replaced,
    kept verbatim as its reference.
    """
    lengths = table.lengths.astype(np.int64)
    starts = np.cumsum(lengths) - lengths
    order = np.where(occ_flat[table.cells], np.arange(table.cells.size), table.cells.size)
    return starts, np.minimum.reduceat(order, starts)


def _reference_render_affordance(occupied, heat: AffordanceHeatmap, view: Viewpoint):
    """The ``render_affordance`` that the lean scoring replaced, verbatim but
    for reading the table and checking support through the references."""
    r = heat.resolution
    occ_arr = as_index_array(occupied, r)
    _reference_check_support(heat, occ_arr)
    table = _lengths_table(rd._ray_table(view, r))
    occ = np.zeros(r**3, dtype=bool)
    occ[flat_index(occ_arr, r)] = True
    # Heat per flat cell; slot r^3 stands for "no occupied cell" and reads 0.
    values = np.zeros(r**3 + 1)
    values[flat_index(heat.positions, r)] = heat.values
    _, first = _reference_first_occupied(table, occ)
    first_cell = np.append(table.cells, r**3)[first]
    out = np.append(0.0, values[first_cell])[table.rows]
    intr = view.intrinsics
    return rd.ScalarImage(
        width=intr.width, height=intr.height, values=out.reshape(intr.height, intr.width)
    )


def _assert_scoring_matches_reference(occupied, heat, view):
    """Image and total equal the reference's bit for bit, and so does every
    row's first occupied cell."""
    got = rd.render_affordance(occupied, heat, view)
    want = _reference_render_affordance(occupied, heat, view)
    assert np.array_equal(got.values, want.values)
    assert got.total() == want.total()
    r = heat.resolution
    table = rd._ray_table(view, r)
    occ = np.zeros(r**3, dtype=bool)
    occ[flat_index(as_index_array(occupied, r), r)] = True
    crosses, first = rd._first_occupied(table, occ)
    starts, ref_first = _reference_first_occupied(_lengths_table(table), occ)
    assert np.array_equal(starts, table.indptr[:-1])
    assert np.array_equal(crosses, ref_first < table.cells.size)
    assert np.array_equal(first, ref_first[crosses])


def _random_heat(occupied, r: int, rng) -> AffordanceHeatmap:
    """Random heat on a random ~70% of ``occupied``: hits on unheated cells read 0."""
    occupied = as_index_array(occupied, r)
    keep = rng.random(len(occupied)) < 0.7
    return AffordanceHeatmap(resolution=r, positions=occupied[keep], values=rng.random(int(keep.sum())))


@pytest.mark.parametrize("r", [8, 16])
def test_scoring_matches_reference_on_every_shipped_candidate(r):
    # The 40 shipped candidates at 128^2 against the ground truth of each of
    # 20 objects and a seeded 60% subset of it standing in for a partial
    # reconstruction, each with random heat.
    rng = np.random.default_rng(r)
    views = hemisphere_candidates(40, intrinsics=eval_intrinsics(128))
    for seed in range(1000, 1020):
        truth = sc.occupied_indices(sc.generate_object(seed), r)
        partial = truth[rng.random(len(truth)) < 0.6]
        for occupied in (truth, partial):
            heat = _random_heat(occupied, r, rng)
            for view in views:
                _assert_scoring_matches_reference(occupied, heat, view)


def test_scoring_matches_reference_on_a_non_square_image():
    intr = CameraIntrinsics(fx=30.0, fy=28.0, cx=21.0, cy=11.5, width=40, height=24)
    view = Viewpoint(intrinsics=intr, pose=look_at([1.2, -1.0, 1.1], [0.0, 0.0, 0.0]))
    rng = np.random.default_rng(40)
    truth = sc.occupied_indices(sc.generate_object(1003), 8)
    _assert_scoring_matches_reference(truth, _random_heat(truth, 8, rng), view)
    assert rd.render_affordance(truth, _random_heat(truth, 8, rng), view).values.shape == (24, 40)


def test_scoring_matches_reference_when_every_ray_misses():
    view = Viewpoint(
        intrinsics=eval_intrinsics(16),
        pose=Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 2.0])),
    )
    truth = sc.occupied_indices(sc.generate_object(1004), 8)
    heat = _random_heat(truth, 8, np.random.default_rng(41))
    _assert_scoring_matches_reference(truth, heat, view)
    assert rd.render_affordance(truth, heat, view).total() == 0.0


def test_scoring_matches_reference_on_a_filled_cube():
    # Every hit is in the ray's entry cell, the first cell of its row.
    r = 8
    full = sc.occupied_indices(_box_object(scale=(0.6, 0.6, 0.6)), r)
    assert len(full) == r**3
    rng = np.random.default_rng(42)
    views = hemisphere_candidates(40, intrinsics=eval_intrinsics(32))
    for view in views + [_axis_view(axis, side, eval_intrinsics(15)) for axis in range(3) for side in (-1, 1)]:
        _assert_scoring_matches_reference(full, _random_heat(full, r, rng), view)


def _support_error(check, *args) -> str | None:
    try:
        check(*args)
    except SupportError as exc:
        return str(exc)
    return None


def test_support_check_matches_reference_counts():
    # Random heat against random occupancies, some with triples outside the
    # lattice whose flat index aliases a cell inside it.
    r = 4
    rng = np.random.default_rng(43)
    for _ in range(200):
        cells = rng.choice(r**3, size=int(rng.integers(1, 20)), replace=False)
        positions = np.column_stack(np.unravel_index(np.sort(cells), (r, r, r), order="F"))
        heat = AffordanceHeatmap(
            resolution=r, positions=as_index_array(positions, r), values=rng.random(len(cells))
        )
        occupied = positions[rng.random(len(positions)) < 0.7]
        stray = rng.integers(-1, r + 2, size=(int(rng.integers(0, 6)), 3))
        occupied = np.concatenate([occupied, stray])
        want = _support_error(_reference_check_support, heat, occupied)
        assert _support_error(heat.check_support, occupied) == want
    heat = AffordanceHeatmap(resolution=r, positions=np.array([[0, 1, 0]]), values=np.array([1.0]))
    assert _support_error(heat.check_support, np.array([[4, 0, 0]])) == (
        "1 heatmap positions outside occupancy"
    )


def test_render_affordance_support_error_matches_reference():
    r = 8
    rng = np.random.default_rng(44)
    truth = sc.occupied_indices(sc.generate_object(1005), r)
    heat = AffordanceHeatmap(resolution=r, positions=truth, values=rng.random(len(truth)))
    view = hemisphere_candidates(40, intrinsics=eval_intrinsics(16))[9]
    for drop in (1, 5, len(truth) // 2):
        occupied = truth[rng.permutation(len(truth))[drop:]]
        want = _support_error(_reference_render_affordance, occupied, heat, view)
        assert want == f"{drop} heatmap positions outside occupancy"
        assert _support_error(rd.render_affordance, occupied, heat, view) == want


def test_scalar_image_total_and_validation():
    img = rd.ScalarImage(width=2, height=2, values=np.array([[0.25, 0.5], [0.0, 1.0]]))
    assert img.total() == pytest.approx(1.75)
    with pytest.raises(DomainError):
        rd.DepthImage(width=2, height=2, values=-np.ones((2, 2)))
    with pytest.raises(Exception):
        rd.ScalarImage(width=3, height=2, values=np.zeros((2, 2)))
