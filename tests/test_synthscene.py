"""Synthetic object family tests.

The occupancy oracle is the analytic inside test evaluated directly at
voxel centers; the template oracle re-derives one object's parameter
draws from the documented sampling order.
"""

import numpy as np
import pytest

from voxaff.errors import DomainError, UnknownQueryError
from voxaff import synthscene as sc
from voxaff.voxel import dense_threshold


def _sphere_object(center, radius, tag="grasp"):
    part = sc.ObjectPart(
        primitive="sphere",
        rotation=np.eye(3),
        translation=np.asarray(center, dtype=float),
        scale=np.array([radius, radius, radius]),
        part_label="ball",
        affordance_tags=(tag,),
    )
    return sc.SyntheticObject(object_id="ball-0", seed=0, template="mug", parts=(part,))


class TestGeneration:
    def test_bit_identical_for_same_seed(self):
        a, b = sc.generate_object(11), sc.generate_object(11)
        assert a.object_id == b.object_id
        for pa, pb in zip(a.parts, b.parts):
            assert np.array_equal(pa.translation, pb.translation)
            assert np.array_equal(pa.scale, pb.scale)
            assert pa.params == pb.params

    def test_templates_cycle_with_seed(self):
        for seed, template in [(0, "mug"), (1, "hammer"), (2, "chair"), (3, "lamp"), (4, "mug")]:
            assert sc.generate_object(seed).template == template

    def test_hundred_seeds_valid(self):
        table = sc.default_query_table()
        for seed in range(100):
            obj = sc.generate_object(seed)
            assert any(p.affordance_tags for p in obj.parts)
            for part in obj.parts:
                lo, hi = part.world_aabb()
                assert np.all(lo >= -0.5 - 1e-12) and np.all(hi <= 0.5 + 1e-12)
                for tag in part.affordance_tags:
                    assert tag in {t for t, _ in table.entries.values()}
            assert len(sc.occupied_indices(obj, 8)) > 0

    def test_mug_seed0_matches_documented_draws(self):
        # Re-derive the parameter stream: per-template uniforms in
        # declaration order, then global scale and shift.
        rng = np.random.default_rng(0)
        body_r = rng.uniform(0.20, 0.25)
        body_h = rng.uniform(0.20, 0.24)
        handle_major = rng.uniform(0.11, 0.14)
        handle_minor = rng.uniform(0.10, 0.11)
        handle_z = rng.uniform(0.00, 0.12)
        arc_half = rng.uniform(1.01, 1.19)
        g = rng.uniform(0.88, 1.02)
        shift = np.array(
            [rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04), rng.uniform(-0.03, 0.03)]
        )
        obj = sc.generate_object(0)
        body, handle = obj.parts
        np.testing.assert_allclose(body.scale, np.array([body_r, body_r, body_h]) * g, atol=0)
        np.testing.assert_allclose(
            body.translation, np.array([-0.06, 0.0, 0.10]) * g + shift, atol=0
        )
        assert handle.params["major_radius"] == handle_major * g
        assert handle.params["minor_radius"] == handle_minor * g
        assert handle.params["arc_start"] == -arc_half
        np.testing.assert_allclose(
            handle.translation,
            np.array([-0.06 + body_r, 0.0, handle_z]) * g + shift,
            atol=0,
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            sc.generate_object(-1)


class TestOccupancy:
    def test_sphere_matches_analytic_test(self):
        obj = _sphere_object([0.1, -0.05, 0.0], 0.3)
        r = 8
        occ = sc.ground_truth_occupancy(obj, r)
        for ix in range(r):
            for iy in range(r):
                for iz in range(r):
                    center = (np.array([ix, iy, iz]) + 0.5) / r - 0.5
                    expected = 1.0 if np.linalg.norm(center - [0.1, -0.05, 0.0]) <= 0.3 else -1.0
                    assert occ.values[ix, iy, iz, 0] == expected

    def test_values_are_plus_minus_one(self):
        occ = sc.ground_truth_occupancy(sc.generate_object(7), 8)
        assert set(np.unique(occ.values)) <= {-1.0, 1.0}

    def test_voxel_count_tracks_analytic_volume(self):
        radius = 0.4
        obj = _sphere_object([0.0, 0.0, 0.0], radius)
        r = 16
        count = len(sc.occupied_indices(obj, r))
        expected = 4.0 / 3.0 * np.pi * radius**3 * r**3
        assert abs(count - expected) / expected < 0.10

    def test_mirror_symmetric_object_mirror_symmetric_occupancy(self):
        part = sc.ObjectPart(
            primitive="box",
            rotation=np.eye(3),
            translation=np.zeros(3),
            scale=np.array([0.3, 0.2, 0.1]),
            part_label="slab",
            affordance_tags=("sit",),
        )
        obj = sc.SyntheticObject(object_id="slab-0", seed=0, template="chair", parts=(part,))
        r = 8
        occ = sc.ground_truth_occupancy(obj, r).values[..., 0]
        np.testing.assert_array_equal(occ, occ[::-1, :, :])

    def test_occupied_indices_match_dense_threshold(self):
        obj = sc.generate_object(3)
        occ = sc.ground_truth_occupancy(obj, 8)
        np.testing.assert_array_equal(sc.occupied_indices(obj, 8), dense_threshold(occ, 0.0))


class TestAffordance:
    def test_hammer_grasp_marks_exactly_handle_voxels(self):
        obj = sc.generate_object(1)  # hammer
        handle = next(p for p in obj.parts if "grasp" in p.affordance_tags)
        heat = sc.ground_truth_affordance(obj, "grasp the handle", 8)
        centers = (heat.positions + 0.5) / 8 - 0.5
        np.testing.assert_array_equal(heat.values.astype(bool), handle.contains(centers))

    def test_support_is_occupancy_and_values_binary(self):
        obj = sc.generate_object(2)  # chair
        heat = sc.ground_truth_affordance(obj, "sit on the seat", 8)
        np.testing.assert_array_equal(heat.positions, sc.occupied_indices(obj, 8))
        assert set(np.unique(heat.values)) <= {0.0, 1.0}
        assert heat.values.sum() > 0

    def test_unknown_query_rejected(self):
        with pytest.raises(UnknownQueryError):
            sc.ground_truth_affordance(sc.generate_object(0), "fly to the moon", 8)

    def test_absent_tag_gives_all_zero(self):
        obj = sc.generate_object(0)  # mug: no "sit" part
        heat = sc.ground_truth_affordance(obj, "sit on the seat", 8)
        assert heat.values.sum() == 0.0


class TestEmbeddings:
    def test_unit_norm_and_deterministic(self):
        a = sc.query_embedding("grasp the handle")
        b = sc.query_embedding("grasp the handle")
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_frozen_regression_values(self):
        e = sc.query_embedding("grasp the handle")
        np.testing.assert_allclose(
            e[:3], [0.24399505, -0.4189541, -0.13980969], atol=1e-7
        )
        le = sc.label_embedding("mug_handle", 13)
        np.testing.assert_allclose(
            le[:3], [-0.35350558, -0.20848744, 0.23001771], atol=1e-7
        )

    def test_default_queries_well_separated(self):
        table = sc.default_query_table()
        embs = np.stack([table.embedding_of(q) for q in sorted(table.entries)])
        cos = embs @ embs.T
        np.fill_diagonal(cos, 0.0)
        assert np.abs(cos).max() < 0.9

    def test_queries_for_object(self):
        table = sc.default_query_table()
        assert table.queries_for(sc.generate_object(1)) == [
            "grasp the handle",
            "strike a nail",
        ]
        assert table.queries_for(sc.generate_object(3)) == ["attach a light fixture"]

    def test_table_lookup_errors(self):
        table = sc.default_query_table()
        with pytest.raises(UnknownQueryError):
            table.tag_of("dance")
        with pytest.raises(UnknownQueryError):
            table.embedding_of("dance")


class TestSurfaceFeatures:
    def test_same_part_same_normal_identical(self):
        obj = sc.generate_object(0)
        body = obj.parts[0]
        p1 = body.translation + np.array([body.scale[0], 0.0, 0.0])
        p2 = body.translation + np.array([0.0, body.scale[1], 0.0])
        n = np.array([1.0, 0.0, 0.0])
        f1 = sc.surface_features(obj, p1[None], n[None])[0]
        f2 = sc.surface_features(obj, p2[None], n[None])[0]
        assert np.array_equal(f1, f2)
        assert f1.shape == (16,)

    def test_layout_is_label_embedding_then_normal(self):
        obj = _sphere_object([0.0, 0.0, 0.0], 0.3)
        n = np.array([0.0, 0.0, 1.0])
        f = sc.surface_features(obj, np.array([[0.0, 0.0, 0.3]]), n[None], channels=16)[0]
        np.testing.assert_array_equal(f[:13], sc.label_embedding("ball", 13))
        np.testing.assert_array_equal(f[13:], n)

    def test_distinct_parts_differ(self):
        obj = sc.generate_object(1)  # hammer: handle + head
        handle, head = obj.parts
        n = np.array([[0.0, 0.0, 1.0]])
        f_handle = sc.surface_features(obj, handle.translation[None], n)[0]
        f_head = sc.surface_features(obj, head.translation[None], n)[0]
        assert not np.array_equal(f_handle[:13], f_head[:13])

    def test_point_attributed_to_nearest_part(self):
        obj = sc.generate_object(0)  # mug
        handle = obj.parts[1]
        # outermost point of the handle ring, slightly outside the tube
        reach = handle.params["major_radius"] + handle.params["minor_radius"] + 0.01
        point = handle.translation + np.array([reach, 0.0, 0.0])
        idx = sc.part_index_of_points(obj, point[None])[0]
        assert obj.parts[idx].part_label == "mug_handle"


class TestSerialization:
    def test_object_round_trip_exact(self, tmp_path):
        obj = sc.generate_object(13)
        path = tmp_path / "obj.scene.json"
        sc.save_object(path, obj)
        back = sc.load_object(path)
        assert back.object_id == obj.object_id
        for pa, pb in zip(obj.parts, back.parts):
            assert np.array_equal(pa.rotation, pb.rotation)
            assert np.array_equal(pa.translation, pb.translation)
            assert np.array_equal(pa.scale, pb.scale)
            assert pa.params == pb.params
            assert pa.affordance_tags == pb.affordance_tags

    def test_save_is_byte_stable(self, tmp_path):
        obj = sc.generate_object(5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        sc.save_object(p1, obj)
        sc.save_object(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()

    def test_table_round_trip(self, tmp_path):
        table = sc.default_query_table()
        path = tmp_path / "queries.json"
        sc.save_table(path, table)
        back = sc.load_table(path)
        assert sorted(back.entries) == sorted(table.entries)
        for q in sorted(table.entries):
            assert np.array_equal(back.embedding_of(q), table.embedding_of(q))
            assert back.tag_of(q) == table.tag_of(q)

    def test_malformed_record_rejected(self):
        with pytest.raises(DomainError):
            sc.object_from_dict({"object_id": "x"})
