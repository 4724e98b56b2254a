"""Camera geometry tests.

Oracles used here are independent of the implementation: unprojection is
checked against a homogeneous 4x4 matrix route (solve K for the camera
ray, then apply the pose matrix) and against the scalar camera model in
``oracles``, look_at against projective properties (the target must land
on the principal point), and the view sampler against direct evaluation
of its documented closed form.
"""

import json
import math

import numpy as np
import pytest

from oracles import (
    ScriptedRng,
    project_point,
    reference_hemisphere_candidates,
    reference_random_hemisphere_view,
    reference_sequential_view,
    unproject_pixel,
    viewpoint_from_dict,
)
from voxaff.errors import DomainError
from voxaff import geometry as geo
from voxaff import netcore as nc
from voxaff import pipeline as pl


def _identity_view(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4):
    intr = geo.CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
    pose = geo.Pose(rotation=np.eye(3), translation=np.zeros(3))
    return geo.Viewpoint(intrinsics=intr, pose=pose)


def _matrix_unproject_oracle(u, v, d, view):
    """Independent route: solve K @ cam = [u d, v d, d], then 4x4 pose multiply."""
    intr = view.intrinsics
    k = np.array([[intr.fx, 0.0, intr.cx], [0.0, intr.fy, intr.cy], [0.0, 0.0, 1.0]])
    cam = np.linalg.solve(k, np.array([u * d, v * d, d]))
    hom = view.pose.matrix() @ np.array([*cam, 1.0])
    return hom[:3]


def _random_view(rng):
    # Random rotation via QR; re-orient to det +1.
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    pose = geo.Pose(rotation=q, translation=rng.uniform(-2, 2, size=3))
    intr = geo.CameraIntrinsics(
        fx=rng.uniform(50, 300),
        fy=rng.uniform(50, 300),
        cx=rng.uniform(20, 100),
        cy=rng.uniform(20, 100),
        width=128,
        height=128,
    )
    return geo.Viewpoint(intrinsics=intr, pose=pose)


def _unproject(u, v, d, view):
    """The library's vectorised unprojection of a single pixel."""
    return geo.unproject_pixels([u], [v], [d], view)[0]


class TestUnprojectProject:
    def test_identity_camera_center_ray(self):
        view = _identity_view()
        np.testing.assert_array_equal(_unproject(0.0, 0.0, 1.0, view), [0.0, 0.0, 1.0])

    def test_zero_depth_returns_camera_origin(self):
        rng = np.random.default_rng(3)
        view = _random_view(rng)
        out = _unproject(10.0, 20.0, 0.0, view)
        np.testing.assert_allclose(out, view.pose.translation, atol=0)

    def test_rotated_translated_case_by_hand(self):
        # fx = fy = 100, principal point (64, 64), camera rotated 90 degrees
        # about z and shifted to (1, 0, 0).  Pixel (164, 64) at depth 2:
        # camera point (2, 0, 2); Rz(90) maps it to (0, 2, 2); plus t -> (1, 2, 2).
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        intr = geo.CameraIntrinsics(fx=100, fy=100, cx=64, cy=64, width=256, height=256)
        view = geo.Viewpoint(
            intrinsics=intr, pose=geo.Pose(rotation=rot, translation=np.array([1.0, 0.0, 0.0]))
        )
        out = _unproject(164.0, 64.0, 2.0, view)
        np.testing.assert_allclose(out, [1.0, 2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(
            out, _matrix_unproject_oracle(164.0, 64.0, 2.0, view), atol=1e-12
        )

    def test_matches_matrix_oracle_on_random_views(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            view = _random_view(rng)
            u = rng.uniform(0, view.intrinsics.width)
            v = rng.uniform(0, view.intrinsics.height)
            d = rng.uniform(0.1, 5.0)
            np.testing.assert_allclose(
                _unproject(u, v, d, view),
                _matrix_unproject_oracle(u, v, d, view),
                atol=1e-12,
            )

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            view = _random_view(rng)
            u = rng.uniform(0, view.intrinsics.width)
            v = rng.uniform(0, view.intrinsics.height)
            d = rng.uniform(1e-3, 10.0)
            p = _unproject(u, v, d, view)
            u2, v2, d2 = project_point(p, view)
            assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9 and abs(d2 - d) < 1e-9

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(13)
        view = _random_view(rng)
        us = rng.uniform(0, view.intrinsics.width, size=32)
        vs = rng.uniform(0, view.intrinsics.height, size=32)
        ds = rng.uniform(0, 4.0, size=32)
        batch = geo.unproject_pixels(us, vs, ds, view)
        for i in range(32):
            np.testing.assert_allclose(
                batch[i], unproject_pixel(us[i], vs[i], ds[i], view), atol=1e-12
            )

    def test_point_behind_camera_rejected(self):
        view = _identity_view()
        with pytest.raises(DomainError, match="non-positive camera depth"):
            project_point([0.0, 0.0, -1.0], view)
        with pytest.raises(DomainError, match="non-positive camera depth"):
            project_point([0.0, 0.0, 0.0], view)  # zero depth also rejected

    def test_non_finite_rejected(self):
        view = _identity_view()
        with pytest.raises(DomainError):
            _unproject(float("nan"), 0.0, 1.0, view)
        with pytest.raises(DomainError):
            _unproject(0.0, 0.0, float("inf"), view)
        with pytest.raises(DomainError):
            project_point([np.nan, 0.0, 1.0], view)

    def test_out_of_bounds_pixel_rejected(self):
        view = _identity_view(width=4, height=4)
        with pytest.raises(DomainError):
            unproject_pixel(5.0, 0.0, 1.0, view)
        with pytest.raises(DomainError):
            unproject_pixel(0.0, -1.0, 1.0, view)

    def test_negative_depth_rejected(self):
        view = _identity_view()
        with pytest.raises(DomainError):
            _unproject(0.0, 0.0, -0.5, view)


class TestLookAt:
    def test_forward_axis_points_at_target(self):
        pose = geo.look_at([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], up=[0.0, 1.0, 0.0])
        np.testing.assert_allclose(pose.rotation[:, 2], [0.0, 0.0, -1.0], atol=1e-12)

    def test_target_projects_to_principal_point(self):
        rng = np.random.default_rng(5)
        intr = geo.eval_intrinsics()
        for _ in range(50):
            origin = rng.uniform(-3, 3, size=3)
            target = rng.uniform(-0.3, 0.3, size=3)
            forward = target - origin
            if np.linalg.norm(forward) < 0.5:
                continue
            if abs(forward[2]) > 0.999 * np.linalg.norm(forward):
                continue
            pose = geo.look_at(origin, target)
            view = geo.Viewpoint(intrinsics=intr, pose=pose)
            u, v, d = project_point(target, view)
            assert abs(u - intr.cx) < 1e-9
            assert abs(v - intr.cy) < 1e-9
            assert abs(d - np.linalg.norm(forward)) < 1e-9

    def test_rotation_is_orthonormal_and_keeps_up_upward(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            origin = rng.uniform(-3, 3, size=3)
            forward = -origin
            if abs(forward[2]) > 0.99 * np.linalg.norm(forward):
                continue
            pose = geo.look_at(origin, [0.0, 0.0, 0.0])
            r = pose.rotation
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
            # camera +y is image "down": it must not point along world +z
            assert r[2, 1] <= 1e-12

    def test_degenerate_directions_rejected(self):
        with pytest.raises(DomainError):
            geo.look_at([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            geo.look_at([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], up=[0.0, 0.0, 1.0])


class TestHemisphereCandidates:
    def test_single_candidate_sits_at_pole(self):
        (view,) = geo.hemisphere_candidates(1, geo.eval_intrinsics())
        np.testing.assert_allclose(view.pose.translation, [0.0, 0.0, 2.0], atol=1e-12)

    def test_positions_match_documented_sequence(self):
        k, radius = 40, 2.0
        views = geo.hemisphere_candidates(k, geo.eval_intrinsics())
        assert len(views) == k
        golden = math.pi * (3.0 - math.sqrt(5.0))
        for i, view in enumerate(views):
            z = 1.0 - i / (k - 1)
            s = math.sqrt(1.0 - z * z)
            expected = radius * np.array(
                [s * math.cos(i * golden), s * math.sin(i * golden), z]
            )
            np.testing.assert_allclose(view.pose.translation, expected, atol=1e-12)

    def test_all_candidates_on_upper_hemisphere_at_radius(self):
        for view in geo.hemisphere_candidates(25, geo.eval_intrinsics()):
            offset = view.pose.translation
            assert abs(np.linalg.norm(offset) - geo.VIEW_RADIUS) < 1e-12
            assert offset[2] >= -1e-12

    def test_candidates_look_at_target(self):
        for view in geo.hemisphere_candidates(10, geo.eval_intrinsics()):
            u, v, d = project_point(np.zeros(3), view)
            assert abs(u - view.intrinsics.cx) < 1e-9
            assert abs(v - view.intrinsics.cy) < 1e-9
            assert abs(d - geo.VIEW_RADIUS) < 1e-9

    def test_bit_identical_across_calls(self):
        a = geo.hemisphere_candidates(40, geo.eval_intrinsics())
        b = geo.hemisphere_candidates(40, geo.eval_intrinsics())
        for va, vb in zip(a, b):
            assert np.array_equal(va.pose.rotation, vb.pose.rotation)
            assert np.array_equal(va.pose.translation, vb.pose.translation)

    def test_bad_arguments_rejected(self):
        with pytest.raises(DomainError):
            geo.hemisphere_candidates(0, geo.eval_intrinsics())


def _assert_same_camera(view, want):
    # Bytes, not values: a -0.0 where the old code had 0.0 would change
    # the trace files that record these poses.
    assert view.intrinsics == want.intrinsics
    assert view.pose.matrix().tobytes() == want.pose.matrix().tobytes()


class TestOrbitView:
    """The three cameras on the view sphere equal the inline constructions
    that ``orbit_view`` replaced, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 40])
    def test_candidates_equal_the_inline_construction(self, k):
        intr = geo.eval_intrinsics()
        views = geo.hemisphere_candidates(k, intr)
        want = reference_hemisphere_candidates(k, intr)
        assert len(views) == len(want) == k
        for view, old in zip(views, want):
            _assert_same_camera(view, old)

    def test_random_views_equal_the_inline_construction(self):
        intr = geo.eval_intrinsics(64)
        rng, old_rng = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(200):
            _assert_same_camera(
                nc.random_hemisphere_view(rng, intr), reference_random_hemisphere_view(old_rng, intr)
            )
        # The pole itself, next to it, and the equator.
        for draws in ([1.0, 0.25], [1.0 - 1e-13, 0.25], [0.0, 0.75]):
            _assert_same_camera(
                nc.random_hemisphere_view(ScriptedRng(draws), intr),
                reference_random_hemisphere_view(ScriptedRng(draws), intr),
            )

    def test_sequential_circle_equals_the_inline_construction(self):
        # One full circle from a shipped candidate, stepped as ``active_loop`` steps it.
        k = 40
        intr = geo.eval_intrinsics()
        azimuth = pl._azimuth_of(geo.hemisphere_candidates(k, intr)[7])
        for _ in range(k + 1):
            _assert_same_camera(
                pl._sequential_view(azimuth, intr), reference_sequential_view(azimuth, intr)
            )
            azimuth += 2.0 * math.pi / k

    def test_orbit_view_sits_on_the_sphere_and_looks_at_the_origin(self):
        intr = geo.eval_intrinsics(32)
        for direction in ([0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -1.0, 0.0]):
            view = geo.orbit_view(np.array(direction), intr)
            assert np.array_equal(view.pose.translation, geo.VIEW_RADIUS * np.array(direction))
            u, v, d = project_point(np.zeros(3), view)
            assert abs(u - intr.cx) < 1e-9 and abs(v - intr.cy) < 1e-9
            assert abs(d - geo.VIEW_RADIUS) < 1e-12


class TestSerialization:
    def test_viewpoint_round_trip_is_exact(self):
        rng = np.random.default_rng(23)
        view = _random_view(rng)
        back = viewpoint_from_dict(json.loads(json.dumps(geo.viewpoint_to_dict(view))))
        assert np.array_equal(back.pose.rotation, view.pose.rotation)
        assert np.array_equal(back.pose.translation, view.pose.translation)
        assert back.intrinsics == view.intrinsics

    def test_pose_field_is_row_major_4x4(self):
        view = _identity_view()
        data = json.loads(json.dumps(geo.viewpoint_to_dict(view)))
        assert data["pose"] == [
            1.0, 0.0, 0.0, 0.0,
            0.0, 1.0, 0.0, 0.0,
            0.0, 0.0, 1.0, 0.0,
            0.0, 0.0, 0.0, 1.0,
        ]

    def test_malformed_record_rejected(self):
        with pytest.raises(DomainError):
            viewpoint_from_dict({"fx": 1.0})
        good = geo.viewpoint_to_dict(_identity_view())
        bad = dict(good, pose=good["pose"][:12])
        with pytest.raises(DomainError):
            viewpoint_from_dict(bad)
