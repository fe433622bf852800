import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atcadet import text as tx
from atcadet.errors import (
    BadJson,
    DimMismatch,
    DuplicateUtt,
    BadHeader,
    EmptyCaption,
    NonFinite,
    ShapeMismatch,
    UnknownStyle,
)
from atcadet.text import CaptionSet, TextEmbedding, ToyEmbedderConfig

from _oracles import load_embeddings_ref


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
        rain, wind = (tx.toy_embed(CaptionSet("u", {"clotho": w})).matrix[0] for w in ("rain", "wind"))
        np.testing.assert_array_equal(a.matrix, [rain, wind])

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
        emb = TextEmbedding("u", np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(tx.pool_text_vector(emb), [1.0, 2.0, 3.0])

    def test_symmetry(self):
        emb = TextEmbedding("u", np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(tx.pool_text_vector(emb), [0.5, 0.5])

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 3))
        emb = TextEmbedding("u", m)
        expected = np.array([sum(m[i, j] for i in range(5)) / 5.0 for j in range(3)])
        np.testing.assert_allclose(tx.pool_text_vector(emb), expected, atol=1e-12)

    def test_row_permutation_commutes(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        a = tx.pool_text_vector(TextEmbedding("u", m))
        b = tx.pool_text_vector(TextEmbedding("u", m[perm]))
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestEmbeddingFiles:
    def _random_embeddings(self, rng, n=3):
        out = []
        for i in range(n):
            m = rng.normal(size=(int(rng.integers(2, 7)), 8)).astype(np.float32).astype(np.float64)
            out.append(TextEmbedding(f"u{i}", m))
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

    def test_index_length_disagreement(self, tmp_path):
        rng = np.random.default_rng(9)
        embs = self._random_embeddings(rng, n=1)
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, embs)
        idx = tmp_path / "emb.bin.index.jsonl"
        entry = json.loads(idx.read_text())
        entry["L"] += 1
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
        (lambda e: json.dumps(e).encode().replace(b'"u0"', b'"u\xff"'), BadJson),
        (lambda e: json.dumps({**e, "L": True}).encode(), BadJson),
    ], ids=["not_object", "no_utt_id", "negative_offset", "offset_past_end", "not_utf8", "bool_rows"])
    def test_malformed_index_line_is_typed(self, tmp_path, fault, error):
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, self._random_embeddings(np.random.default_rng(10), n=1))
        idx = tmp_path / "emb.bin.index.jsonl"
        idx.write_bytes(fault(json.loads(idx.read_text())) + b"\n")
        with pytest.raises(error):
            tx.load_embeddings(p)

    @pytest.mark.parametrize("spans", [[["audioset", 0, 1], ["clotho", 1, 3]], "audioset",
                                       [["audioset", False, 1]], [["audioset", 0]]],
                             ids=["as_written", "not_list", "bool_in_span", "short_span"])
    def test_spans_key_of_older_writers_is_ignored(self, tmp_path, spans):
        # older writers added each caption's style spans to its index line, which no reader uses
        p = tmp_path / "emb.bin"
        (emb,) = self._random_embeddings(np.random.default_rng(10), n=1)
        tx.write_embeddings(p, [emb])
        idx = tmp_path / "emb.bin.index.jsonl"
        idx.write_text(json.dumps({**json.loads(idx.read_text()), "spans": spans}) + "\n")
        (got,) = tx.load_embeddings(p)
        assert got.matrix.tobytes() == emb.matrix.astype(np.float32).tobytes()


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
        embs = [TextEmbedding(f"u{i}", pool[p]) for i, p in enumerate(picks)]
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
        embs = [TextEmbedding(f"u{i}", pool[p]) for i, p in enumerate([[0, 1, 0], [1, 2], [0]])]
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
        tx.write_embeddings(p, [*embs, TextEmbedding("w", np.ones((2, 3), np.float32))])
        with pytest.raises(DimMismatch):
            tx.load_embeddings(p)
        with pytest.raises(DimMismatch):
            tx.load_embeddings(p, {"u1", "w"})
        assert len(tx.load_embeddings(p, {"u0", "u1", "u2"})[0].table) == 3
        assert tx.load_embeddings(p, {"w"})[0].matrix.tobytes() == np.ones((2, 3), np.float32).tobytes()

    def test_two_index_lines_over_one_block(self, tmp_path):
        rng = np.random.default_rng(4)
        emb = TextEmbedding("u0", rng.normal(size=(5, 4)).astype(np.float32))
        p = tmp_path / "emb.bin"
        tx.write_embeddings(p, [emb])
        idx = tmp_path / "emb.bin.index.jsonl"
        line = json.loads(idx.read_text())
        idx.write_text(json.dumps(line) + "\n" + json.dumps({**line, "utt_id": "u1"}) + "\n")
        a, b = tx.load_embeddings(p)
        assert a.matrix.tobytes() == b.matrix.tobytes() == emb.matrix.tobytes()
        assert len(a.table) == 5


# the bytes of one row of the width-20 float32 pools below
_ROW_BYTES = 80


def _staged_pool(seed):
    """``_pool``'s rows, then a row that is 0.0 but for a -0.0 in word 1,
    which the print does not read: it shares its print with the zero row."""
    pool = _pool(seed)
    signed = np.zeros((1, 20), np.float32)
    signed[0, 1] = -0.0
    return np.concatenate([pool, signed])


def _write_blocks(path, blocks, shared=()):
    """``blocks`` written as u0, u1, ... Each block named in ``shared`` gets
    a second index line, vN."""
    tx.write_embeddings(path, [TextEmbedding(f"u{i}", b) for i, b in enumerate(blocks)])
    index = Path(tx.index_path_for(path))
    lines = index.read_text().splitlines()
    lines += [json.dumps({**json.loads(lines[i]), "utt_id": f"v{i}"})
              for i in sorted(set(shared)) if i < len(blocks)]
    index.write_text("\n".join(lines) + "\n")


def _assert_loads_as_one_pass(path, utt_ids, stage_rows):
    with mock.patch.object(tx, "_STAGE_BYTES", _ROW_BYTES * stage_rows):
        got = tx.load_embeddings(path, utt_ids)
    want = load_embeddings_ref(path, utt_ids)
    assert [e.utt_id for e in got] == [e.utt_id for e in want]
    if want:
        table = got[0].table
        assert table.dtype == want[0].table.dtype and table.shape == want[0].table.shape
        assert table.tobytes() == want[0].table.tobytes()
        assert not table.flags.writeable
    for g, w in zip(got, want):
        assert g.table is got[0].table
        assert g.ids.dtype == np.int32 and g.ids.tobytes() == w.ids.tobytes()


class TestStagedLoading:
    """A load interns its blocks a stage at a time, against the rows kept
    before each stage; its table and ids have the bytes one pass
    over every row it reads gives (the former loader)."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["pool", "fresh", "same"]),
           picks=st.lists(st.lists(st.integers(0, 10), min_size=1, max_size=9), min_size=1, max_size=24),
           stage_rows=st.sampled_from([1, 2, 5, 16, 4096]),
           keep=st.one_of(st.none(), st.integers(0, (1 << 24) - 1)),
           shared=st.lists(st.integers(0, 23), max_size=3),
           seed=st.integers(0, 3))
    @example(kind="same", picks=[[0] * 7] * 6, stage_rows=5, keep=None, shared=[], seed=0)
    @example(kind="pool", picks=[[8, 10, 9], [10, 8], [9, 9, 10, 8]], stage_rows=2, keep=None, shared=[1],
             seed=0)
    @example(kind="fresh", picks=[[0] * 5] * 9, stage_rows=4, keep=None, shared=[2, 7], seed=1)
    def test_same_bytes_as_one_pass(self, kind, picks, stage_rows, keep, shared, seed):
        # "pool" repeats rows across stage boundaries, with print collisions
        # and -0.0 against 0.0; "fresh" rows never repeat; "same" has one row
        rng = np.random.default_rng(seed)
        pool = _staged_pool(seed)
        if kind == "fresh":
            blocks = [rng.normal(size=(len(p), 20)).astype(np.float32) for p in picks]
        else:
            blocks = [pool[[0] * len(p) if kind == "same" else p] for p in picks]
        utt_ids = None if keep is None else ({f"u{i}" for i in range(len(blocks)) if keep >> i & 1}
                                             | {f"v{i}" for i in shared if keep >> i & 2})
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "emb.bin")
            _write_blocks(path, blocks, shared)
            _assert_loads_as_one_pass(path, utt_ids, stage_rows)

    @pytest.mark.parametrize("stage_rows", [1, 3, 8, 4096])
    @pytest.mark.parametrize("later", ["none", "nan", "inf", "width", "shape", "truncated", "spans", "magic"])
    @pytest.mark.parametrize("first", [None, 2, 5])
    def test_first_failing_check_in_block_order(self, tmp_path, first, later, stage_rows):
        # a non-finite row in block ``first``, and a later fault in block 6:
        # the same error class and message as the former loader gives. A
        # "spans" key, which older writers added and no check reads, is no
        # fault even when it does not fit its block: the first error stands
        pool = _staged_pool(0)
        blocks = [pool[[i % 4, (i + 1) % 4, 8]] for i in range(8)]
        if later == "width":
            blocks[6] = np.ones((3, 12), np.float32)
        path = str(tmp_path / "emb.bin")
        _write_blocks(path, blocks)
        index = Path(tx.index_path_for(path))
        lines = [json.loads(line) for line in index.read_text().splitlines()]
        data = bytearray(Path(path).read_bytes())

        def put(block, row, col, value):  # past the block's 16-byte head
            at = lines[block]["offset"] + 16 + 4 * (20 * row + col)
            data[at : at + 4] = struct.pack("<f", value)

        if first is not None:
            put(first, 1, 3, np.nan)
        if later in ("nan", "inf"):
            put(6, 2, 0, np.nan if later == "nan" else -np.inf)
        elif later == "shape":
            lines[6]["L"] = 4
        elif later == "spans":
            lines[6]["spans"] = [["audioset", 0, 2]]
        elif later == "truncated":  # the head asks for more rows than the file holds
            data[lines[6]["offset"] + 8 : lines[6]["offset"] + 12] = struct.pack("<I", 1 << 24)
        elif later == "magic":
            data[lines[6]["offset"] : lines[6]["offset"] + 4] = b"XXXX"
        Path(path).write_bytes(bytes(data))
        index.write_text("".join(json.dumps(line) + "\n" for line in lines))
        try:
            load_embeddings_ref(path)
        except Exception as exc:  # noqa: BLE001 - the former loader's error, whatever it is
            want = exc
        else:
            want = None
        with mock.patch.object(tx, "_STAGE_BYTES", _ROW_BYTES * stage_rows):
            if want is None:
                tx.load_embeddings(path)
                return
            with pytest.raises(type(want)) as got:
                tx.load_embeddings(path)
        assert str(got.value) == str(want)
        if first is not None:
            assert isinstance(want, NonFinite) and f"u{first}:" in str(want)

