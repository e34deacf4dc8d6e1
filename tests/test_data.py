"""Synthetic dataset determinism and label structure."""

import numpy as np
import numpy.testing as npt
import pytest

from ppvit import ConfigError, ShapeError, SyntheticDataset, generate_sample, load_batch
from ppvit.data import GENERATOR_KINDS, MEMO_BYTES, nearest_centroid_accuracy

BLOBS = SyntheticDataset("blobs", 32, 32, 4, seed=7)


class TestDeterminism:
    def test_same_index_identical_bytes(self):
        a, la = generate_sample(BLOBS, 5)
        b, lb = generate_sample(BLOBS, 5)
        assert la == lb
        assert a.data.tobytes() == b.data.tobytes()

    def test_different_index_differs(self):
        a, _ = generate_sample(BLOBS, 0)
        b, _ = generate_sample(BLOBS, 4)  # same label bucket, other content
        assert a.data.tobytes() != b.data.tobytes()

    def test_different_seed_differs(self):
        other = SyntheticDataset("blobs", 32, 32, 4, seed=8)
        a, _ = generate_sample(BLOBS, 0)
        b, _ = generate_sample(other, 0)
        assert a.data.tobytes() != b.data.tobytes()

    def test_batch_matches_single_samples(self):
        batch, labels = load_batch(BLOBS, [3, 1, 7])
        for row, idx in enumerate([3, 1, 7]):
            single, label = generate_sample(BLOBS, idx)
            npt.assert_array_equal(batch.data[row], single.data)
            assert labels[row] == label


class TestSampleContract:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_shape_range_dtype(self, kind):
        ds = SyntheticDataset(kind, 8, 16, 3, seed=1)
        for i in range(8):
            img, label = generate_sample(ds, i)
            assert img.shape == (16, 16, 3)
            assert img.dtype == np.float32
            assert img.data.min() >= 0.0 and img.data.max() <= 1.0
            assert 0 <= label < 3

    def test_labels_cycle_through_classes(self):
        for i in range(12):
            _, label = generate_sample(BLOBS, i)
            assert label == i % 4

    def test_histogram_balanced_within_one(self):
        ds = SyntheticDataset("stripes", 33, 16, 4, seed=0)
        _, labels = load_batch(ds, range(33))
        assert list(np.bincount(labels, minlength=4)) == [9, 8, 8, 8]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            generate_sample(BLOBS, 32)
        with pytest.raises(IndexError):
            generate_sample(BLOBS, -1)

    def test_batch_labels_are_int64(self):
        _, labels = load_batch(BLOBS, range(4))
        assert labels.dtype == np.int64


class TestRenderMemo:
    """A set small enough to keep renders each sample once per object."""

    def test_memo_matches_stacked_samples_bit_for_bit(self):
        ds = SyntheticDataset("blobs", 32, 32, 4, seed=7)
        order = [5, 0, 31, 5, 17]
        for _ in range(2):  # the second pass reads only the memo
            batch, labels = load_batch(ds, order)
            ref = np.stack([generate_sample(ds, i)[0].data for i in order])
            assert batch.data.dtype == np.float32
            assert batch.data.tobytes() == ref.tobytes()
            assert list(labels) == [generate_sample(ds, i)[1] for i in order]
        assert ds._memo["rendered"].sum() == 4

    def test_writing_into_a_batch_leaves_the_next_unchanged(self):
        ds = SyntheticDataset("checkers", 8, 16, 2, seed=3)
        first, _ = load_batch(ds, [1, 2])
        clean = first.data.copy()
        first.data[...] = -1.0
        again, _ = load_batch(ds, [1, 2])
        npt.assert_array_equal(again.data, clean)

    def test_index_out_of_range_after_memo_is_full(self):
        ds = SyntheticDataset("stripes", 8, 16, 4, seed=0)
        load_batch(ds, range(8))
        assert ds._memo["rendered"].all()
        for bad in (8, -1):
            with pytest.raises(IndexError):
                load_batch(ds, [0, bad])

    def test_set_over_budget_holds_no_memo(self):
        s = 64
        n = MEMO_BYTES // (3 * s * s * 4) + 1
        ds = SyntheticDataset("blobs", n, s, 4, seed=0)
        batch, _ = load_batch(ds, [0, n - 1])
        npt.assert_array_equal(batch.data[1], generate_sample(ds, n - 1)[0].data)
        assert ds._memo == {}

    def test_memo_is_not_part_of_identity(self):
        a = SyntheticDataset("blobs", 8, 16, 2, seed=0)
        b = SyntheticDataset("blobs", 8, 16, 2, seed=0)
        load_batch(a, [0])
        assert a == b and hash(a) == hash(b) and "_memo" not in repr(a)


class TestValidation:
    @pytest.mark.parametrize("num_samples,size", [(4, 32), (64, 224)], ids=["memo", "rendered"])
    def test_empty_indices(self, num_samples, size):
        ds = SyntheticDataset("blobs", num_samples, size, 4, seed=0)
        assert (num_samples * 3 * size * size * 4 > MEMO_BYTES) == (size == 224)
        with pytest.raises(ShapeError, match="indices"):
            load_batch(ds, [])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            SyntheticDataset("plasma", 8, 16, 2, seed=0)

    def test_image_size_floor(self):
        with pytest.raises(ConfigError):
            SyntheticDataset("blobs", 8, 4, 2, seed=0)

    def test_class_floor(self):
        with pytest.raises(ConfigError):
            SyntheticDataset("blobs", 8, 16, 1, seed=0)

    def test_num_samples_floor(self):
        with pytest.raises(ConfigError):
            SyntheticDataset("blobs", 0, 16, 2, seed=0)


class TestTaskDifficulty:
    """Per-class mean images must not solve the task; otherwise the overfit
    run would prove nothing about the network."""

    def test_centroid_classifier_stays_weak(self):
        assert nearest_centroid_accuracy(BLOBS) < 0.70

    def test_centroid_classifier_weak_at_scale(self):
        big = SyntheticDataset("blobs", 256, 32, 4, seed=7)
        assert nearest_centroid_accuracy(big) < 0.70
