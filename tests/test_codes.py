"""Tests for the binary linear block codes and their soft-decision decoder."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oslc import codes

bit_vectors_12 = st.lists(st.integers(0, 1), min_size=12, max_size=12).map(
    lambda b: np.array(b, dtype=np.int64)
)


class TestGolayStructure:
    def test_parameters(self):
        g = codes.GOLAY
        assert (g.n, g.k, g.d_min) == (24, 12, 8)
        assert g.codebook.shape == (4096, 24)

    def test_systematic_identity_block(self):
        assert np.array_equal(codes.GOLAY.generator[:, :12], np.eye(12, dtype=np.int64))

    def test_weight_enumerator(self):
        assert codes.GOLAY.weight_enumerator() == {
            0: 1,
            8: 759,
            12: 2576,
            16: 759,
            24: 1,
        }

    def test_self_dual(self):
        g = codes.GOLAY
        assert g.is_self_dual()
        assert np.all((g.generator @ g.generator.T) % 2 == 0)

    def test_rank_check_rejects_dependent_rows(self):
        gen = np.zeros((2, 4), dtype=np.int64)
        gen[0] = [1, 0, 1, 0]
        gen[1] = [1, 0, 1, 0]
        with pytest.raises(ValueError):
            codes.BinaryBlockCode(gen)


class TestEncoding:
    def test_zero_message(self):
        out = codes.GOLAY.encode(np.zeros(12, dtype=np.int64))
        assert not out.any()

    def test_single_bit_messages_have_weight_at_least_8(self):
        for i in range(12):
            msg = np.zeros(12, dtype=np.int64)
            msg[i] = 1
            assert codes.GOLAY.encode(msg).sum() >= 8

    @given(bit_vectors_12, bit_vectors_12)
    def test_linearity(self, a, b):
        enc = codes.GOLAY.encode
        assert np.array_equal(enc((a + b) % 2), (enc(a) + enc(b)) % 2)

    @given(bit_vectors_12)
    def test_message_roundtrip(self, msg):
        word = codes.GOLAY.encode(msg)
        assert np.array_equal(codes.GOLAY.message_of(word), msg)
        assert codes.GOLAY.is_codeword(word)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            codes.GOLAY.encode(np.zeros(11, dtype=np.int64))


class TestSoftDecode:
    def test_all_favor_zero(self):
        cost0 = np.zeros(24)
        cost1 = np.ones(24)
        res = codes.GOLAY.soft_ml_decode(cost0, cost1)
        assert not res.codeword.any()
        assert res.metric == 0.0

    @given(bit_vectors_12)
    def test_noiseless_codeword_recovered_with_zero_metric(self, msg):
        word = codes.GOLAY.encode(msg)
        cost0 = word.astype(float)
        cost1 = 1.0 - cost0
        res = codes.GOLAY.soft_ml_decode(cost0, cost1)
        assert np.array_equal(res.codeword, word)
        assert res.metric == 0.0

    def test_random_metrics_match_independent_scan(self):
        rng = np.random.default_rng(7)
        book = codes.GOLAY.codebook
        for _ in range(100):
            cost0 = rng.normal(size=24)
            cost1 = rng.normal(size=24)
            res = codes.GOLAY.soft_ml_decode(cost0, cost1)
            # independent re-implementation: plain python accumulation
            best = min(
                sum(cost1[j] if int(word[j]) else cost0[j] for j in range(24))
                for word in book
            )
            assert res.metric == pytest.approx(best, abs=1e-12)
            got = sum(
                cost1[j] if int(res.codeword[j]) else cost0[j] for j in range(24)
            )
            assert got == pytest.approx(best, abs=1e-12)

    def test_dominates_hard_decoding(self):
        rng = np.random.default_rng(11)
        g = codes.GOLAY
        for _ in range(10**4 // 100):
            msgs = rng.integers(0, 2, size=(100, 12))
            for msg in msgs:
                sent = g.encode(msg)
                y = sent + rng.normal(scale=0.6, size=24)
                cost0 = y**2
                cost1 = (y - 1.0) ** 2
                soft = g.soft_ml_decode(cost0, cost1)
                hard_bits = (y > 0.5).astype(np.int64)
                # syndrome-style hard decision: nearest codeword in Hamming
                # distance, then score it with the Euclidean metric
                dists = (g.codebook ^ hard_bits).sum(axis=1)
                hard_word = g.codebook[int(dists.argmin())]
                hard_metric = float(
                    np.where(hard_word == 1, cost1, cost0).sum()
                )
                assert soft.metric <= hard_metric + 1e-12

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        cost0 = rng.normal(size=(50, 24))
        cost1 = rng.normal(size=(50, 24))
        idx = codes.GOLAY.soft_ml_decode_batch(cost0, cost1)
        for i in range(50):
            one = codes.GOLAY.soft_ml_decode(cost0[i], cost1[i])
            word = codes.GOLAY.codebook[int(idx[i])]
            metric = float(np.where(word == 1, cost1[i], cost0[i]).sum())
            assert np.array_equal(word, one.codeword)
            assert metric == pytest.approx(one.metric, abs=1e-12)

    @pytest.mark.parametrize(
        "code",
        [
            codes.GOLAY,
            codes.HAMMING8,
            codes.BinaryBlockCode(
                np.hstack([np.eye(9, dtype=np.uint8), np.ones((9, 1), dtype=np.uint8)])
            ),
        ],
        ids=["golay", "hamming8", "even10"],
    )
    def test_block_decoder_matches_exhaustive_scan(self, code):
        assert code._blocks is not None
        rng = np.random.default_rng(11)
        rows = 3000
        delta = tie_heavy_deltas(code, rng, rows)
        cost0 = rng.normal(size=(rows, code.n))
        cost1 = cost0 + delta
        scan = np.argmin((cost1 - cost0) @ code.codebook.T.astype(np.float64), axis=1)
        assert np.array_equal(code.soft_ml_decode_batch(cost0, cost1), scan)
        _, sure = code._blocks.decode(cost1 - cost0)
        assert 0 < sure.sum() < rows

    @pytest.mark.parametrize("code", [codes.GOLAY, codes.HAMMING8], ids=["golay", "hamming8"])
    def test_reused_workspace_matches_fresh_one(self, code):
        # soft_ml_decode_batch fills one workspace for all the chunks of a
        # batch; what an earlier chunk left in it, or garbage, must not leak
        # into a later one.  Chunk sizes shrink as in a batch's last chunk.
        rng = np.random.default_rng(5)
        delta = tie_heavy_deltas(code, rng, 1200)
        work = code._blocks.workspace(512)
        work[:] = 0xFF  # NaN in every float table, True in every flag
        lo, unsure = 0, 0
        for size in (512, 512, 150, 25, 1):
            chunk = delta[lo : lo + size]
            lo += size
            got_idx, got_sure = code._blocks.decode(chunk, work)
            want_idx, want_sure = code._blocks.decode(chunk)
            assert np.array_equal(got_idx, want_idx)
            assert np.array_equal(got_sure, want_sure)
            unsure += int((~got_sure).sum())
        assert unsure > 0  # tie rows took part

    @given(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=24, max_size=24), min_size=1, max_size=16
        )
    )
    @settings(max_examples=60)
    def test_batch_matches_scan_on_small_integer_costs(self, rows):
        # Small integer costs tie often: every tie must resolve as the scan does.
        delta = np.array(rows, dtype=np.float64)
        scan = np.argmin(delta @ codes.GOLAY.codebook.T.astype(np.float64), axis=1)
        got = codes.GOLAY.soft_ml_decode_batch(np.zeros_like(delta), delta)
        assert np.array_equal(got, scan)

    def test_golay_blocks_form_a_sextet(self):
        blocks = codes.GOLAY._blocks.blocks
        assert blocks.shape == (6, 4)
        assert np.array_equal(np.sort(blocks.ravel()), np.arange(24))
        for i, j in itertools.combinations(range(6), 2):
            word = np.zeros(24, dtype=np.int64)
            word[np.concatenate([blocks[i], blocks[j]])] = 1
            assert codes.GOLAY.is_codeword(word)

    def test_code_without_blocks_is_scanned(self):
        # Odd minimum distance: no block partition, every row is scanned.
        repetition = codes.BinaryBlockCode(np.ones((1, 5), dtype=np.uint8))
        assert repetition._blocks is None
        rng = np.random.default_rng(5)
        cost0, cost1 = rng.normal(size=(2, 40, 5))
        idx = repetition.soft_ml_decode_batch(cost0, cost1)
        assert np.array_equal(idx, ((cost1 - cost0).sum(axis=1) < 0).astype(np.int64))


def tie_heavy_deltas(code, rng, rows):
    """cost1 - cost0 rows near a codeword with 0..4 unreliable coordinates,
    plus rows of exact ties (zero, rounded or small-integer cost gaps), which
    the block decoder must hand to the scan so the lowest-index rule holds."""
    words = code.codebook[rng.integers(0, 1 << code.k, size=rows)]
    margin = rng.uniform(0.05, 1.0, size=(rows, code.n))
    for r in range(rows):
        flip = rng.choice(code.n, size=r % 5, replace=False)
        margin[r, flip] = -rng.uniform(0.0, 0.3, size=flip.size)
    delta = np.where(words == 1, -margin, margin)
    delta[::7] = np.round(delta[::7])
    delta[::11] = 0.0
    delta[::13] = rng.normal(size=delta[::13].shape)
    delta[::5] = rng.integers(-2, 3, size=delta[::5].shape)
    return delta


def parity_encode(message):
    """Systematic single-parity-check encoding: append the XOR of all bits."""
    k = len(message)
    code = codes.BinaryBlockCode(
        np.hstack([np.eye(k, dtype=np.uint8), np.ones((k, 1), dtype=np.uint8)])
    )
    return code.encode(message)


class TestParityCode:
    def test_even_weight_input(self):
        out = parity_encode(np.array([1, 0, 1]))
        assert np.array_equal(out, [1, 0, 1, 0])

    def test_odd_weight_input(self):
        out = parity_encode(np.array([1, 0, 0]))
        assert np.array_equal(out, [1, 0, 0, 1])

    def test_all_outputs_even_weight_n6(self):
        for bits in itertools.product((0, 1), repeat=5):
            out = parity_encode(np.array(bits))
            assert out.sum() % 2 == 0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_even_weight_subcode(self, n):
        spanned = set()
        for bits in itertools.product((0, 1), repeat=n - 1):
            spanned.add(tuple(parity_encode(np.array(bits)).tolist()))
        even = {
            w
            for w in itertools.product((0, 1), repeat=n)
            if sum(w) % 2 == 0
        }
        assert spanned == even


class TestHamming8:
    def test_parameters(self):
        h = codes.HAMMING8
        assert (h.n, h.k, h.d_min) == (8, 4, 4)

    def test_self_dual(self):
        assert codes.HAMMING8.is_self_dual()
