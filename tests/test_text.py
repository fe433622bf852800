import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atcadet import text as tx
from atcadet.errors import (
    BadJson,
    DimMismatch,
    DuplicateUtt,
    BadHeader,
    EmptyCaption,
    ShapeMismatch,
    UnknownStyle,
)
from atcadet.text import CaptionSet, TextEmbedding, ToyEmbedderConfig


def _oracle_fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) % (1 << 64)
    return h


def _oracle_mix64(x: int) -> int:
    m = (1 << 64) - 1
    z = x & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31)


def _oracle_token_vector(token: str, cfg: ToyEmbedderConfig) -> np.ndarray:
    bucket = _oracle_fnv1a64(token.encode()) % cfg.vocab_hash_buckets
    state = _oracle_mix64(bucket ^ _oracle_mix64(cfg.seed))
    vals = []
    for _ in range(cfg.dim):
        state = (state + 0x9E3779B97F4A7C15) % (1 << 64)
        z = _oracle_mix64(state)
        vals.append((z >> 11) * 2.0**-53 * 2.0 - 1.0)
    return np.array(vals)


def _token_vector_scalar_seed_ref(bucket: int, dim: int, seed: int) -> np.ndarray:
    """``text._token_vector`` as it was with the start state mixed by the
    scalar splitmix64 finalizer and the stream by the array one."""
    state0 = _oracle_mix64(bucket ^ _oracle_mix64(seed))
    with np.errstate(over="ignore"):
        steps = np.arange(1, dim + 1, dtype=np.uint64)
        states = np.uint64(state0) + np.uint64(0x9E3779B97F4A7C15) * steps
        draws = tx._mix64_array(states)
    floats = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53 * 2.0 - 1.0
    floats /= np.sqrt(np.add.reduce(floats * floats))
    return floats


class TestCaptions:
    def test_single_style_decode(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"utt_id":"u1","captions":{"clotho":"rain on a roof"}}\n')
        sets = tx.load_captions(p)
        assert len(sets) == 1
        assert sets[0].utt_id == "u1"
        assert sets[0].captions == {"clotho": "rain on a roof"}

    def test_duplicate_utt(self, tmp_path):
        p = tmp_path / "c.jsonl"
        line = '{"utt_id":"u1","captions":{"clotho":"x"}}\n'
        p.write_text(line + line)
        with pytest.raises(DuplicateUtt):
            tx.load_captions(p)

    def test_unknown_style(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"utt_id":"u1","captions":{"audioset2":"x"}}\n')
        with pytest.raises(UnknownStyle):
            tx.load_captions(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"utt_id": "u1", "captions": {\n')
        with pytest.raises(BadJson):
            tx.load_captions(p)

    def test_empty_captions_rejected(self):
        with pytest.raises(BadJson):
            CaptionSet("u1", {})

    def test_write_read_round_trip(self, tmp_path):
        p = tmp_path / "c.jsonl"
        sets = [
            CaptionSet("a", {"audioset": "dog bark", "clotho": "a dog barking outside"}),
            CaptionSet("b", {"audiocaps": "rain falls"}),
        ]
        tx.write_captions(p, sets)
        again = tx.load_captions(p)
        assert [c.utt_id for c in again] == ["a", "b"]
        assert again[0].captions == sets[0].captions


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tx.tokenize("Rain, on a ROOF!") == ["rain", "on", "a", "roof"]

    def test_digits_kept(self):
        assert tx.tokenize("50Hz hum") == ["50hz", "hum"]

    def test_empty(self):
        assert tx.tokenize("...") == []


class TestToyEmbed:
    def test_matches_independent_reimplementation(self):
        cfg = ToyEmbedderConfig(dim=32, seed=7, vocab_hash_buckets=4096)
        emb = tx.toy_embed(CaptionSet("u", {"audioset": "rain"}), cfg)
        oracle = _oracle_token_vector("rain", cfg)
        scaled = emb.matrix[0] * np.linalg.norm(oracle)
        np.testing.assert_allclose(scaled, oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_token_vector_same_bytes_as_scalar_seed_mixing(self, seed):
        buckets = [0, 1, 2, 3, 4095, 4096, 2**20 - 1, 2**32, 2**63, 2**64 - 1]
        buckets += [int(b) for b in np.random.default_rng(seed % 7).integers(0, 2**20, size=200)]
        for bucket in buckets:
            got = tx._token_vector(bucket, 40, seed)
            assert got.tobytes() == _token_vector_scalar_seed_ref(bucket, 40, seed).tobytes()

    def test_determinism(self):
        cs = CaptionSet("u", {"audioset": "dog bark", "clotho": "a dog barking"})
        a = tx.toy_embed(cs)
        b = tx.toy_embed(cs)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.style_spans == b.style_spans

    def test_repeated_token_rows_identical(self):
        emb = tx.toy_embed(CaptionSet("u", {"audiocaps": "rain rain"}))
        np.testing.assert_array_equal(emb.matrix[0], emb.matrix[1])

    def test_rows_unit_norm(self):
        emb = tx.toy_embed(CaptionSet("u", {"clotho": "wind in tall trees at night"}))
        np.testing.assert_allclose(np.linalg.norm(emb.matrix, axis=1), 1.0, atol=1e-6)

    def test_style_order_fixed(self):
        a = tx.toy_embed(CaptionSet("u", {"clotho": "wind", "audioset": "rain"}))
        b = tx.toy_embed(CaptionSet("u", {"audioset": "rain", "clotho": "wind"}))
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.style_spans == (("audioset", 0, 1), ("clotho", 1, 2))

    def test_empty_caption(self):
        with pytest.raises(EmptyCaption):
            tx.toy_embed(CaptionSet("u", {"audioset": "!!!"}))

    def test_default_dim(self):
        emb = tx.toy_embed(CaptionSet("u", {"audioset": "rain"}))
        assert emb.matrix.shape == (1, 768)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_pure_in_caption_text(self, caption):
        cfg = ToyEmbedderConfig(dim=16, seed=3, vocab_hash_buckets=64)
        if not tx.tokenize(caption):
            return
        first = tx.toy_embed(CaptionSet("u", {"audiocaps": caption}), cfg)
        second = tx.toy_embed(CaptionSet("u", {"audiocaps": caption}), cfg)
        np.testing.assert_array_equal(first.matrix, second.matrix)


class TestPooling:
    def test_single_row_identity(self):
        emb = TextEmbedding("u", np.array([[1.0, 2.0, 3.0]]), (("audioset", 0, 1),))
        np.testing.assert_array_equal(tx.pool_text_vector(emb), [1.0, 2.0, 3.0])

    def test_symmetry(self):
        emb = TextEmbedding("u", np.array([[1.0, 0.0], [0.0, 1.0]]), (("audioset", 0, 2),))
        np.testing.assert_array_equal(tx.pool_text_vector(emb), [0.5, 0.5])

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 3))
        emb = TextEmbedding("u", m, (("clotho", 0, 5),))
        expected = np.array([sum(m[i, j] for i in range(5)) / 5.0 for j in range(3)])
        np.testing.assert_allclose(tx.pool_text_vector(emb), expected, atol=1e-12)

    def test_row_permutation_commutes(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        a = tx.pool_text_vector(TextEmbedding("u", m, (("audioset", 0, 6),)))
        b = tx.pool_text_vector(TextEmbedding("u", m[perm], (("audioset", 0, 6),)))
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestEmbeddingFiles:
    def _random_embeddings(self, rng, n=3):
        out = []
        for i in range(n):
            rows_a = int(rng.integers(1, 4))
            rows_b = int(rng.integers(1, 4))
            m = rng.normal(size=(rows_a + rows_b, 8)).astype(np.float32).astype(np.float64)
            spans = (("audioset", 0, rows_a), ("clotho", rows_a, rows_a + rows_b))
            out.append(TextEmbedding(f"u{i}", m, spans))
        return out

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        embs = self._random_embeddings(rng)
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, embs)
        again = tx.load_embeddings(p)
        assert [e.utt_id for e in again] == [e.utt_id for e in embs]
        for a, b in zip(again, embs):
            np.testing.assert_array_equal(a.matrix, b.matrix)
            assert a.style_spans == b.style_spans

    def test_index_length_disagreement(self, tmp_path):
        rng = np.random.default_rng(9)
        embs = self._random_embeddings(rng, n=1)
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, embs)
        idx = tmp_path / "emb.bin.index.jsonl"
        entry = json.loads(idx.read_text())
        entry["L"] += 1
        entry["spans"][-1][2] += 1
        idx.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ShapeMismatch):
            tx.load_embeddings(p)

    def test_empty_index(self, tmp_path):
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, [])
        assert tx.load_embeddings(p) == []

    @pytest.mark.parametrize("fault, error", [
        (lambda e: b"[1, 2]", BadJson),
        (lambda e: json.dumps({k: v for k, v in e.items() if k != "utt_id"}).encode(), BadJson),
        (lambda e: json.dumps({**e, "offset": -1}).encode(), BadJson),
        (lambda e: json.dumps({**e, "offset": 2**70}).encode(), BadHeader),
        (lambda e: json.dumps({**e, "spans": "audioset"}).encode(), BadJson),
        (lambda e: json.dumps(e).encode().replace(b'"u0"', b'"u\xff"'), BadJson),
        (lambda e: json.dumps({**e, "L": True}).encode(), BadJson),
        (lambda e: json.dumps({**e, "spans": [["audioset", False, 1]]}).encode(), BadJson),
        (lambda e: json.dumps({**e, "spans": [["audioset", 0]]}).encode(), BadJson),
    ], ids=["not_object", "no_utt_id", "negative_offset", "offset_past_end",
            "spans_not_list", "not_utf8", "bool_rows", "bool_in_span", "short_span"])
    def test_malformed_index_line_is_typed(self, tmp_path, fault, error):
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, self._random_embeddings(np.random.default_rng(10), n=1))
        idx = tmp_path / "emb.bin.index.jsonl"
        idx.write_bytes(fault(json.loads(idx.read_text())) + b"\n")
        with pytest.raises(error):
            tx.load_embeddings(p)


def _pool(seed):
    """Float32 rows of width 20: four rows; their twins, equal to them in
    the eight words a row is looked up by (0, 2, 5, 8, 10, 13, 16, 19) but
    not in word 1; and a zero row beside one with -0.0 in word 2."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(4, 20)).astype(np.float32)
    twins = base.copy()
    twins[:, 1] += 1.0
    zeros = np.zeros((2, 20), np.float32)
    zeros[1, 2] = -0.0
    return np.concatenate([base, twins, zeros])


class TestRowInterning:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=12), min_size=1, max_size=6),
           st.integers(0, 3))
    def test_ids_stand_for_equal_bytes(self, picks, seed):
        pool = _pool(seed)
        blocks = [pool[p] for p in picks]
        table, ids = tx.intern_rows(blocks)
        assert table.dtype == np.float32 and not table.flags.writeable
        for block, block_ids in zip(blocks, ids):
            assert table[block_ids].tobytes() == block.tobytes()
        flat = np.concatenate(ids)
        keys = [row.tobytes() for row in np.concatenate(blocks)]
        for i, j in zip(flat, keys):  # an id never stands for two byte patterns
            assert all(k == j for f, k in zip(flat, keys) if f == i)
        # rows are held in the order they first occur
        firsts = [int(np.flatnonzero(flat == i)[0]) for i in range(len(table))]
        assert firsts == sorted(firsts)

    def test_equal_rows_are_held_once(self):
        pool = _pool(0)
        picks = [[0, 1, 0, 8, 9], [9, 8, 2, 3], [0, 0, 0]]
        table, ids = tx.intern_rows([pool[p] for p in picks])
        assert len(table) == 6
        np.testing.assert_array_equal(ids[0], [0, 1, 0, 2, 3])
        np.testing.assert_array_equal(ids[1], [3, 2, 4, 5])
        np.testing.assert_array_equal(ids[2], [0, 0, 0])

    def test_rows_sharing_a_fingerprint_stay_apart(self):
        pool = _pool(1)
        table, (ids,) = tx.intern_rows([pool[[0, 4, 4, 0, 4]]])
        assert table[ids].tobytes() == pool[[0, 4, 4, 0, 4]].tobytes()
        assert ids[0] == ids[3] and ids[0] != ids[1]

    def test_shared_prints_then_a_larger_print_load(self, tmp_path):
        pool = _pool(2)
        words = pool.view(np.uint32)
        spread = np.linspace(0, 19, 8).astype(np.intp)
        prints = np.bitwise_xor.reduce(words[:, spread] * tx._PRINT_MULTIPLIERS, axis=1)
        top = int(np.argmax(prints[:4]))  # rows 0-3 share their prints with their twins 4-7
        picks = [[p for p in range(4) if p != top] + [q + 4 for q in range(4) if q != top],
                 [top, 0, top + 4, 9]]
        embs = [TextEmbedding(f"u{i}", pool[p], ()) for i, p in enumerate(picks)]
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, embs)
        loaded = tx.load_embeddings(p)
        assert len(loaded[0].table) == 9
        for got, want in zip(loaded, embs):
            assert got.matrix.tobytes() == want.matrix.tobytes()

    def test_rows_zero_at_the_sampled_words_are_held_once_each(self):
        # one-hot rows, zero at the eight words a row is looked up by: one print
        hot = [1, 3, 4, 6, 7, 9, 11, 12]
        rows = np.zeros((len(hot), 20), np.float32)
        rows[np.arange(len(hot)), hot] = 1.0
        picks = [[0, 1, 2, 0, 3], [4, 5, 1, 6, 7, 7, 0]]
        table, ids = tx.intern_rows([rows[p] for p in picks])
        assert table.tobytes() == rows.tobytes()
        for p, block_ids in zip(picks, ids):
            np.testing.assert_array_equal(block_ids, p)

    def test_load_shares_one_table_of_one_width(self, tmp_path):
        pool = _pool(3)
        embs = [TextEmbedding(f"u{i}", pool[p], ()) for i, p in enumerate([[0, 1, 0], [1, 2], [0]])]
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, embs)
        loaded = tx.load_embeddings(p)
        assert loaded[0].table is loaded[1].table is loaded[2].table
        assert len(loaded[0].table) == 3
        for got, want in zip(loaded, embs):
            assert got.matrix.dtype == np.float32 and not got.matrix.flags.writeable
            assert got.matrix.tobytes() == want.matrix.astype(np.float32).tobytes()
        sub = tx.load_embeddings(p, {"u1"})
        assert len(sub[0].table) == 2
        np.testing.assert_array_equal(sub[0].ids, [0, 1])
        # a block of another width is refused when read, and only then
        tx.write_embeddings(p, [*embs, TextEmbedding("w", np.ones((2, 3), np.float32), ())])
        with pytest.raises(DimMismatch):
            tx.load_embeddings(p)
        with pytest.raises(DimMismatch):
            tx.load_embeddings(p, {"u1", "w"})
        assert len(tx.load_embeddings(p, {"u0", "u1", "u2"})[0].table) == 3
        assert tx.load_embeddings(p, {"w"})[0].matrix.tobytes() == np.ones((2, 3), np.float32).tobytes()

    def test_two_index_lines_over_one_block(self, tmp_path):
        rng = np.random.default_rng(4)
        emb = TextEmbedding("u0", rng.normal(size=(5, 4)).astype(np.float32), ())
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, [emb])
        idx = tmp_path / "emb.bin.index.jsonl"
        line = json.loads(idx.read_text())
        idx.write_text(json.dumps(line) + "\n" + json.dumps({**line, "utt_id": "u1"}) + "\n")
        a, b = tx.load_embeddings(p)
        assert a.matrix.tobytes() == b.matrix.tobytes() == emb.matrix.tobytes()
        assert len(a.table) == 5


class TestSpanValidation:
    def test_gap_rejected(self):
        with pytest.raises(ShapeMismatch):
            TextEmbedding("u", np.ones((3, 2)), (("audioset", 0, 1), ("clotho", 2, 3)))

    def test_short_cover_rejected(self):
        with pytest.raises(ShapeMismatch):
            TextEmbedding("u", np.ones((3, 2)), (("audioset", 0, 2),))

    def test_unknown_style_rejected(self):
        with pytest.raises(UnknownStyle):
            TextEmbedding("u", np.ones((1, 2)), (("freeform", 0, 1),))
