"""Sparse voxel grid tests.

Backprojection cases are worked by hand in the comments: the camera sits
at (0, 0, -2) with identity rotation (so camera +z is world +z), pixels
are unprojected at their centers, and cells are floor((p + 0.5) * r).
"""

import numpy as np
import pytest

from voxaff.errors import DomainError, ShapeMismatchError
from oracles import sparse_grid_from_entries
from voxaff import geometry as geo
from voxaff import voxel as vx


def _front_view(fx, cx, size):
    intr = geo.CameraIntrinsics(fx=fx, fy=fx, cx=cx, cy=cx, width=size, height=size)
    pose = geo.Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, -2.0]))
    return geo.Viewpoint(intrinsics=intr, pose=pose)


def _random_grid(rng, r=4, channels=3, max_entries=10):
    n = int(rng.integers(0, max_entries + 1))
    flat = rng.choice(r**3, size=n, replace=False) if n else np.array([], dtype=int)
    indices = np.stack([flat % r, (flat // r) % r, flat // (r * r)], axis=-1).astype(np.int64)
    indices = indices.reshape(-1, 3)
    return sparse_grid_from_entries(
        r,
        channels,
        indices,
        rng.standard_normal((n, channels)),
        rng.integers(1, 4, size=n),
    )


class TestSparseVoxelGrid:
    def test_unsorted_entries_rejected(self):
        with pytest.raises(DomainError):
            vx.SparseVoxelGrid(
                resolution=4,
                channels=1,
                indices=np.array([[1, 0, 0], [0, 0, 0]]),
                features=np.zeros((2, 1)),
                weights=np.ones(2, dtype=np.int64),
            )

    def test_duplicate_indices_rejected(self):
        with pytest.raises(DomainError):
            vx.SparseVoxelGrid(
                resolution=4,
                channels=1,
                indices=np.array([[0, 0, 0], [0, 0, 0]]),
                features=np.zeros((2, 1)),
                weights=np.ones(2, dtype=np.int64),
            )

    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError):
            vx.SparseVoxelGrid(
                resolution=4,
                channels=1,
                indices=np.array([[0, 0, 0]]),
                features=np.zeros((1, 1)),
                weights=np.zeros(1, dtype=np.int64),
            )

    def test_from_entries_sorts(self):
        g = sparse_grid_from_entries(
            4, 1, [[1, 0, 0], [0, 2, 1], [0, 0, 3]], [[1.0], [2.0], [3.0]], [1, 1, 1]
        )
        assert g.indices.tolist() == [[0, 0, 3], [0, 2, 1], [1, 0, 0]]
        assert g.features[:, 0].tolist() == [3.0, 2.0, 1.0]


class TestBackprojection:
    def test_all_zero_depth_gives_empty_grid(self):
        view = _front_view(fx=8.0, cx=2.0, size=4)
        grid = vx.backproject_view(np.zeros((4, 4)), np.zeros((4, 4, 2)), view, r=4)
        assert len(grid) == 0
        assert grid.channels == 2

    def test_single_pixel_lands_in_hand_computed_cell(self):
        # Camera (0,0,-2), fx=2, cx=1, 2x2 image.  Pixel (0,0) center (0.5, 0.5)
        # at depth 2: camera point (-0.5, -0.5, 2) -> world (-0.5, -0.5, 0).
        # r=4: cell floor((p+0.5)*4) = (0, 0, 2).
        view = _front_view(fx=2.0, cx=1.0, size=2)
        depth = np.zeros((2, 2))
        depth[0, 0] = 2.0
        feats = np.zeros((2, 2, 1))
        feats[0, 0, 0] = 7.0
        grid = vx.backproject_view(depth, feats, view, r=4)
        assert grid.indices.tolist() == [[0, 0, 2]]
        assert grid.features.tolist() == [[7.0]]
        assert grid.weights.tolist() == [1]

    def test_two_pixels_same_cell_average(self):
        # fx=8, cx=2, 4x4 image, both depths 2.4 (world z = +0.4).  Pixels
        # (u=0,v=1) and (u=1,v=1) unproject to (-0.45,-0.15,0.4) and
        # (-0.15,-0.15,0.4); with r=2 both quantize to cell (0, 0, 1).
        view = _front_view(fx=8.0, cx=2.0, size=4)
        depth = np.zeros((4, 4))
        depth[1, 0] = 2.4
        depth[1, 1] = 2.4
        feats = np.zeros((4, 4, 1))
        feats[1, 0, 0] = 3.0
        feats[1, 1, 0] = 5.0
        grid = vx.backproject_view(depth, feats, view, r=2)
        assert grid.indices.tolist() == [[0, 0, 1]]
        assert grid.features.tolist() == [[4.0]]
        assert grid.weights.tolist() == [1]

    def test_out_of_cube_points_dropped_and_counted(self):
        # Depth 3.0 puts the point at world z = +1.0, outside the cube.
        view = _front_view(fx=8.0, cx=2.0, size=4)
        depth = np.zeros((4, 4))
        depth[1, 1] = 2.4  # inside
        depth[2, 2] = 3.0  # outside
        feats = np.zeros((4, 4, 1))
        feats[1, 1, 0] = 2.0
        feats[2, 2, 0] = 7.0
        grid = vx.backproject_view(depth, feats, view, r=2)
        assert len(grid) == 1
        assert grid.features.tolist() == [[2.0]]

    def test_weights_are_one_per_view(self):
        rng = np.random.default_rng(2)
        view = _front_view(fx=8.0, cx=2.0, size=4)
        depth = rng.uniform(1.6, 2.4, size=(4, 4))
        feats = rng.standard_normal((4, 4, 3))
        grid = vx.backproject_view(depth, feats, view, r=4)
        assert np.all(grid.weights == 1)

    def test_image_shape_mismatch_rejected(self):
        view = _front_view(fx=8.0, cx=2.0, size=4)
        with pytest.raises(ShapeMismatchError):
            vx.backproject_view(np.zeros((2, 2)), np.zeros((2, 2, 1)), view, r=4)
        with pytest.raises(ShapeMismatchError):
            vx.backproject_view(np.zeros((4, 4)), np.zeros((4, 3, 1)), view, r=4)


class TestFusion:
    def test_single_grid_round_trips(self):
        rng = np.random.default_rng(3)
        g = _random_grid(rng)
        fused = vx.fuse([g])
        assert np.array_equal(fused.indices, g.indices)
        np.testing.assert_allclose(fused.features, g.features, atol=0)
        assert np.array_equal(fused.weights, g.weights)

    def test_disjoint_union(self):
        a = sparse_grid_from_entries(4, 1, [[0, 0, 0]], [[1.0]], [1])
        b = sparse_grid_from_entries(4, 1, [[3, 3, 3]], [[2.0]], [2])
        fused = vx.fuse([a, b])
        assert fused.indices.tolist() == [[0, 0, 0], [3, 3, 3]]
        assert fused.features.tolist() == [[1.0], [2.0]]
        assert fused.weights.tolist() == [1, 2]

    def test_shared_voxel_weighted_mean_by_hand(self):
        # (1*[2,4] + 3*[4,8]) / 4 = [3.5, 7.0], weight 4.
        a = sparse_grid_from_entries(4, 2, [[1, 2, 3]], [[2.0, 4.0]], [1])
        b = sparse_grid_from_entries(4, 2, [[1, 2, 3]], [[4.0, 8.0]], [3])
        fused = vx.fuse([a, b])
        assert fused.features.tolist() == [[3.5, 7.0]]
        assert fused.weights.tolist() == [4]

    def test_associative_within_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = (_random_grid(rng) for _ in range(3))
            nested = vx.fuse([vx.fuse([a, b]), c])
            flat = vx.fuse([a, b, c])
            assert np.array_equal(nested.indices, flat.indices)
            assert np.array_equal(nested.weights, flat.weights)
            np.testing.assert_allclose(nested.features, flat.features, atol=1e-12)

    def test_permutation_invariant_within_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            grids = [_random_grid(rng) for _ in range(4)]
            perm = [grids[i] for i in rng.permutation(4)]
            fwd = vx.fuse(grids)
            rev = vx.fuse(perm)
            assert np.array_equal(fwd.indices, rev.indices)
            assert np.array_equal(fwd.weights, rev.weights)
            np.testing.assert_allclose(fwd.features, rev.features, atol=1e-12)

    def test_entry_count_is_union_size(self):
        rng = np.random.default_rng(11)
        grids = [_random_grid(rng) for _ in range(3)]
        union = {tuple(row) for g in grids for row in g.indices}
        fused = vx.fuse(grids)
        assert len(fused) == len(union)
        assert len(fused) <= fused.resolution ** 3

    def test_mismatched_grids_rejected(self):
        a = vx.SparseVoxelGrid.empty(4, 2)
        b = vx.SparseVoxelGrid.empty(8, 2)
        c = vx.SparseVoxelGrid.empty(4, 3)
        with pytest.raises(ShapeMismatchError):
            vx.fuse([a, b])
        with pytest.raises(ShapeMismatchError):
            vx.fuse([a, c])
        with pytest.raises(DomainError):
            vx.fuse([])


class TestPositionalEncoding:
    def test_origin_index_gives_sin0_cos0_pattern(self):
        pe = vx.encode_positions([[0, 0, 0]], r=4, dim=12)[0]
        # d_a = 4: each block is [sin 0, cos 0, sin 0, cos 0] = [0, 1, 0, 1]
        assert pe.tolist() == [0.0, 1.0, 0.0, 1.0] * 3

    def test_unit_x_index_by_hand(self):
        # dim=12 -> d_a=4, frequencies 1 and 10000^(-1/2) = 1/100.
        pe = vx.encode_positions([[1, 0, 0]], r=4, dim=12)[0]
        expected = [
            np.sin(1.0), np.cos(1.0), np.sin(0.01), np.cos(0.01),
            0.0, 1.0, 0.0, 1.0,
            0.0, 1.0, 0.0, 1.0,
        ]
        np.testing.assert_allclose(pe, expected, atol=0)

    def test_padding_slots_stay_zero(self):
        pe = vx.encode_positions([[2, 3, 1]], r=4, dim=16)[0]
        # d_a = 5, pairs occupy 4 slots per block; slot 4 of each block and
        # the final slot (3 * 5 = 15) remain zero.
        assert pe[4] == 0.0 and pe[9] == 0.0 and pe[14] == 0.0 and pe[15] == 0.0

    def test_narrow_dim_rejected(self):
        with pytest.raises(DomainError):
            vx.encode_positions([[0, 0, 0]], r=4, dim=5)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DomainError):
            vx.encode_positions([[4, 0, 0]], r=4, dim=12)


class TestConditionTokens:
    """``pooled_condition``: the mean of the per-voxel tokens, each the
    fused feature plus the voxel's positional code."""

    def test_zero_features_give_pure_positional_codes(self):
        g = sparse_grid_from_entries(
            4, 12, [[1, 0, 0], [0, 0, 0]], np.zeros((2, 12)), [1, 1]
        )
        codes = vx.encode_positions([[0, 0, 0], [1, 0, 0]], 4, 12)
        np.testing.assert_array_equal(vx.pooled_condition(g), codes.mean(axis=0))

    def test_single_voxel_token_is_feature_plus_code(self):
        feat = 0.5 * np.ones((1, 12))
        g = sparse_grid_from_entries(4, 12, [[2, 1, 3]], feat, [1])
        np.testing.assert_array_equal(
            vx.pooled_condition(g), feat[0] + vx.encode_positions([[2, 1, 3]], 4, 12)[0]
        )

    def test_empty_grid_pools_to_the_zero_vector(self):
        cond = vx.pooled_condition(vx.SparseVoxelGrid.empty(4, 12))
        assert cond.dtype == np.float64
        np.testing.assert_array_equal(cond, np.zeros(12))

    def test_pooled_is_token_mean(self):
        rng = np.random.default_rng(17)
        g = _random_grid(rng, r=4, channels=12, max_entries=9)
        while len(g) == 0:
            g = _random_grid(rng, r=4, channels=12, max_entries=9)
        tokens = g.features + vx.encode_positions(g.indices, 4, 12)
        np.testing.assert_array_equal(vx.pooled_condition(g), tokens.mean(axis=0))


def test_cell_centers_are_the_cell_midpoints():
    centers = vx.cell_centers(np.array([[0, 0, 0], [7, 3, 1]]), 8)
    np.testing.assert_array_equal(centers, [[-0.4375] * 3, [0.4375, -0.0625, -0.3125]])


class TestHeatmap:
    def test_probability_range_enforced(self):
        with pytest.raises(DomainError):
            vx.AffordanceHeatmap(
                resolution=4, positions=np.array([[0, 0, 0]]), values=np.array([1.5])
            )
        # there is no flag under which values may leave [0, 1]
        with pytest.raises(TypeError):
            vx.AffordanceHeatmap(
                resolution=4, positions=np.array([[0, 0, 0]]), values=np.array([4.2]), logits=True
            )


class TestSerialization:
    def test_heatmap_round_trip_exact(self):
        heat = vx.AffordanceHeatmap(
            resolution=4,
            positions=np.array([[0, 1, 2], [3, 0, 0]]),
            values=np.array([0.125, 0.7]),
        )
        record = vx.heatmap_to_dict(heat)
        assert record["logits"] is False
        back = vx.heatmap_from_dict(record)
        assert np.array_equal(back.positions, heat.positions)
        assert np.array_equal(back.values, heat.values)
        del record["logits"]
        assert np.array_equal(vx.heatmap_from_dict(record).values, heat.values)

    @pytest.mark.parametrize(
        "key, value",
        [("resolution", 8.9), ("resolution", 4.0), ("resolution", True), ("resolution", "4"),
         ("positions", [[0.5, 1, 2], [3.5, 0, 0]]), ("logits", True), ("logits", "false"),
         ("logits", 0), ("logits", None)],
        ids=["resolution-8.9", "resolution-4.0", "resolution-true", "resolution-str",
             "positions-half-cell", "logits-true", "logits-str-false", "logits-0", "logits-null"],
    )
    def test_heatmap_record_is_refused_not_coerced(self, key, value):
        record = vx.heatmap_to_dict(vx.AffordanceHeatmap(
            resolution=4, positions=np.array([[0, 1, 2], [3, 0, 0]]), values=np.array([0.125, 0.7])
        ))
        record[key] = value
        with pytest.raises(DomainError):
            vx.heatmap_from_dict(record)


@pytest.mark.parametrize("r", [0, -2, 8.5, 8.0, True, "8", None], ids=repr)
def test_resolution_must_be_a_positive_integer(r):
    with pytest.raises(DomainError, match="^resolution must be a positive integer"):
        vx.AffordanceHeatmap(resolution=r, positions=np.zeros((0, 3), dtype=np.int64), values=[])
    with pytest.raises(DomainError, match="^resolution must be a positive integer"):
        vx.SparseVoxelGrid.empty(r, 2)


def test_numpy_integer_resolution_is_accepted():
    heat = vx.AffordanceHeatmap(resolution=np.int64(4), positions=[[1, 2, 3]], values=[0.5])
    assert heat.positions.tolist() == [[1, 2, 3]]


class TestAsIndexArray:
    """Arrays and nested sequences of triples become the sorted (n, 3)
    array; the oracle is Python's sort of the int tuples."""

    def _oracle(self, occupied):
        return np.array(sorted(tuple(int(c) for c in idx) for idx in occupied)).reshape(-1, 3)

    def test_set(self):
        occupied = np.array([(1, 2, 3), (0, 5, 1), (0, 0, 7), (3, 2, 1), (0, 5, 0)])
        arr = vx.as_index_array(occupied, 8)
        assert arr.dtype == np.int64
        assert np.array_equal(arr, self._oracle(occupied))
        assert np.array_equal(arr, vx.as_index_array(self._oracle(occupied)[::-1], 8))
        assert np.array_equal(arr, vx.as_index_array(occupied.astype(np.int32), 8))

    def test_list_with_duplicates_keeps_them(self):
        occupied = [(1, 2, 3), (1, 2, 3), (0, 0, 0), (2, 1, 0), (0, 0, 0), (np.int64(1), 0, 2)]
        arr = vx.as_index_array(occupied, 4)
        assert arr.shape == (6, 3) and arr.dtype == np.int64
        assert np.array_equal(arr, self._oracle(occupied))

    def test_empty_set(self):
        for empty in ([], np.zeros((0, 3)), np.zeros(0, dtype=bool)):
            arr = vx.as_index_array(empty, 4)
            assert arr.shape == (0, 3) and arr.dtype == np.int64

    def test_empty_rows_of_another_width_rejected(self):
        # Only [] and shape (0, 3) are the empty set: [[], []] holds two
        # rows without coordinates.
        for occupied in ([[], []], np.zeros((2, 0)), np.zeros((0, 5)), np.zeros((0, 3, 1))):
            with pytest.raises(DomainError, match="must have shape"):
                vx.as_index_array(occupied, 4)

    def test_ragged_input_raises_value_error(self):
        for occupied in ([(1, 2, 3), (1, 2)], [(1, 2), (1, 2, 3)]):
            with pytest.raises(ValueError):
                vx.as_index_array(occupied, 8)
        # Three pairs hold six numbers but are not two triples.
        for occupied in ([(1, 2, 3, 4)], [(4, 5), (0, 1), (2, 3)], [1, 2, 3]):
            with pytest.raises(DomainError, match="must have shape"):
                vx.as_index_array(occupied, 8)

    def test_out_of_range_triples_rejected(self):
        with pytest.raises(DomainError):
            vx.as_index_array([(0, 0, 4)], 4)

    @pytest.mark.parametrize(
        "occupied",
        [np.array([[0.5, 0.0, 0.0]]), np.array([[1.0, 2.0, 3.0]]), [[0, 0, "1"]], [[0, 0, None]],
         np.array([[True, False, True]]), {(0, 0, 1)}],
        ids=["fractional", "integral-float", "string", "none", "bool", "set"],
    )
    def test_non_integer_triples_rejected(self, occupied):
        with pytest.raises(DomainError):
            vx.as_index_array(occupied, 4)


class TestFlatKeys:
    """Sorting, grouping and the sorted/unique checks on flat keys agree with
    the lexsort plus ``np.unique(axis=0)`` form they replaced."""

    UNSORTED = [[1, 0, 0], [0, 0, 0]]
    DUPLICATED = [[0, 1, 2], [0, 1, 2]]
    BOTH = [[2, 0, 1], [0, 3, 0], [2, 0, 1]]

    @staticmethod
    def _reference_error(indices, unsorted, repeated):
        """The message the lexsort and ``np.unique`` checks raise, or None."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
        if indices.shape[0] > 1:
            order = np.lexsort((indices[:, 2], indices[:, 1], indices[:, 0]))
            if not np.array_equal(indices, indices[order]):
                return unsorted
        if indices.shape[0] != len(np.unique(indices, axis=0)):
            return repeated
        return None

    @staticmethod
    def _grid(indices):
        n = len(indices)
        return vx.SparseVoxelGrid(
            resolution=4, channels=1, indices=np.array(indices, dtype=np.int64).reshape(n, 3),
            features=np.zeros((n, 1)), weights=np.ones(n, dtype=np.int64),
        )

    @staticmethod
    def _heat(indices):
        n = len(indices)
        return vx.AffordanceHeatmap(
            resolution=4, positions=np.array(indices, dtype=np.int64).reshape(n, 3),
            values=np.full(n, 0.5),
        )

    GRID = ("entries must be sorted lexicographically by index", "entries must have unique indices")
    HEAT = ("positions must be sorted lexicographically", "positions must be unique")

    @pytest.mark.parametrize(
        "indices, which",
        [(UNSORTED, 0), (DUPLICATED, 1), (BOTH, 0)],
        ids=["unsorted", "duplicated", "unsorted-and-duplicated"],
    )
    def test_grid_and_heatmap_messages(self, indices, which):
        with pytest.raises(DomainError, match=f"^{self.GRID[which]}$"):
            self._grid(indices)
        with pytest.raises(DomainError, match=f"^{self.HEAT[which]}$"):
            self._heat(indices)

    def test_checks_match_reference_on_random_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(0, 7))
            rows = rng.integers(0, 4, size=(n, 3))
            if n > 1 and rng.random() < 0.5:
                rows = rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))]
            for build, messages in ((self._grid, self.GRID), (self._heat, self.HEAT)):
                want = self._reference_error(rows, *messages)
                try:
                    build(rows.tolist())
                    got = None
                except DomainError as exc:
                    got = str(exc)
                assert got == want, rows

    def test_keys_stay_exact_up_to_the_largest_resolution(self):
        # At r = 2^21 the largest key is 2^63 - 1; one more and keys would wrap.
        top = 2**21 - 1
        rows = [[top, top, top - 1], [top, top, top]]
        assert len(vx.AffordanceHeatmap(resolution=2**21, positions=rows, values=[0.5, 0.5])) == 2
        with pytest.raises(DomainError, match="^positions must be sorted lexicographically$"):
            vx.AffordanceHeatmap(resolution=2**21, positions=rows[::-1], values=[0.5, 0.5])
        with pytest.raises(DomainError, match="too large"):
            vx.AffordanceHeatmap(resolution=2**21 + 1, positions=[[0, 0, 0]], values=[0.5])

    def test_group_by_key_matches_lexsort_and_unique(self):
        rng = np.random.default_rng(1)
        for r in (1, 3, 8):
            for n in (1, 2, 40, 500):
                cells = rng.integers(0, r, size=(n, 3))
                order, rows, start = vx._group_by_key(cells, r)
                want = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
                uniq, first = np.unique(cells[want], axis=0, return_index=True)
                assert np.array_equal(order, want)
                assert np.array_equal(rows, cells[want])
                assert np.array_equal(start, first) and np.array_equal(rows[start], uniq)


class TestDenseGrid:
    """The dense r^3 lattice, indexed ``[ix, iy, iz]``, flattens x-fastest."""

    def test_flat_layout_is_x_fastest(self):
        r = 3
        values = np.zeros((r, r, r))
        for ix in range(r):
            for iy in range(r):
                for iz in range(r):
                    values[ix, iy, iz] = ix + r * iy + r * r * iz
        np.testing.assert_array_equal(values.ravel(order="F"), np.arange(r**3))
        idx = vx.flat_order_indices(r)
        np.testing.assert_array_equal(values[idx[:, 0], idx[:, 1], idx[:, 2]], np.arange(r**3))
        back = np.arange(r**3).reshape((r,) * 3, order="F")
        np.testing.assert_array_equal(back, values)
