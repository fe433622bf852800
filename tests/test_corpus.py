import json
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from atcadet import corpus as cp
from atcadet import errors
from atcadet.cli import main
from atcadet.dsp import Waveform, load_wav
from atcadet.errors import BadConfig, BadJson, InsufficientFamilies, NonFinite, WrongKind
from atcadet.protocol import read_protocol
from atcadet.text import load_captions, tokenize


def _rms(x):
    return math.sqrt(float(np.mean(np.square(x))))


class TestGeneratorSpec:
    def test_defaults_fill_in(self):
        g = cp.GeneratorSpec("g", "fake_lowpass_smear")
        assert g.params == {"cutoff_hz": 4500.0, "smear": 0.5}

    def test_unknown_kind(self):
        with pytest.raises(WrongKind):
            cp.GeneratorSpec("g", "fake_vocoder")

    def test_out_of_range_params(self):
        with pytest.raises(BadConfig):
            cp.GeneratorSpec("g", "fake_lowpass_smear", {"smear": 1.5})
        with pytest.raises(BadConfig):
            cp.GeneratorSpec("g", "fake_spectral_quantize", {"levels": 1})
        with pytest.raises(BadConfig):
            cp.GeneratorSpec("g", "fake_hum_phase", {"hum_hz": 400.0})
        with pytest.raises(BadConfig):
            cp.GeneratorSpec("g", "fake_blackbox", {"strength": 0.0})

    def test_unknown_param_rejected(self):
        with pytest.raises(BadConfig):
            cp.GeneratorSpec("g", "fake_spectral_quantize", {"levels": 8, "bias": 1})
        with pytest.raises(BadConfig):
            cp.GeneratorSpec("g", "real", {"anything": 1})


class TestSynthReal:
    def test_seed_determinism(self):
        a, tags_a = cp.synth_real(123, 1.0, 16000)
        b, tags_b = cp.synth_real(123, 1.0, 16000)
        assert np.array_equal(a.samples, b.samples)
        assert tags_a == tags_b
        c, _ = cp.synth_real(124, 1.0, 16000)
        assert not np.array_equal(a.samples, c.samples)

    def test_peak_bound(self):
        for seed in range(20):
            w, _ = cp.synth_real(seed, 0.5, 16000)
            assert np.max(np.abs(w.samples)) <= 0.99

    def test_event_count_sweep(self):
        counts = set()
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            # event count is the first integer draw after the bed draws;
            # run the real synthesizer and count via its tags
            _, tags = cp.synth_real(seed, 0.5, 8000)
            counts.add(len(tags))
            assert 1 <= len(tags) <= 4
            assert all(t in cp.EVENT_VOCAB for t in tags)
        assert counts == {1, 2, 3, 4}

    def test_samples_on_pcm16_grid(self):
        w, _ = cp.synth_real(7, 0.5, 16000)
        assert np.array_equal(w.samples, np.rint(w.samples * 32768.0) / 32768.0)

    def test_short_duration_rejected(self):
        with pytest.raises(BadConfig):
            cp.synth_real(0, 0.1, 16000)

    def test_wav_round_trip_is_bit_exact(self, tmp_path):
        from atcadet.dsp import write_wav

        w, _ = cp.synth_real(3, 0.6, 22050)
        path = tmp_path / "c.wav"
        write_wav(path, w)
        back = load_wav(path)
        assert np.array_equal(back.samples, w.samples)


class TestApplyFake:
    def _tone(self, sr=16000, dur=0.5, freq=440.0, amp=0.3):
        t = np.arange(int(sr * dur)) / sr
        return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)

    def test_real_kind_rejected(self):
        with pytest.raises(WrongKind):
            cp.apply_fake(self._tone(), cp.REAL_GENERATOR, 0)

    def test_lowpass_at_nyquist_zero_smear_is_passthrough(self):
        w = self._tone()
        g = cp.GeneratorSpec("g", "fake_lowpass_smear", {"cutoff_hz": w.sample_rate / 2, "smear": 0.0})
        y = cp.apply_fake(w, g, 0)
        assert _rms(y.samples - w.samples) < 1e-3

    def test_zero_smear_above_nyquist_also_passthrough(self):
        w = self._tone()
        g = cp.GeneratorSpec("g", "fake_lowpass_smear", {"cutoff_hz": 1e6, "smear": 0.0})
        y = cp.apply_fake(w, g, 0)
        assert _rms(y.samples - w.samples) < 1e-3

    def test_lowpass_attenuates_above_cutoff(self):
        w = self._tone(freq=6000.0)
        g = cp.GeneratorSpec("g", "fake_lowpass_smear", {"cutoff_hz": 1000.0, "smear": 0.0})
        y = cp.apply_fake(w, g, 0)
        assert _rms(y.samples) < 0.1 * _rms(w.samples)

    def test_fine_quantization_is_near_identity(self):
        w = self._tone()
        g = cp.GeneratorSpec("g", "fake_spectral_quantize", {"levels": 2**32})
        y = cp.apply_fake(w, g, 0)
        assert _rms(y.samples - w.samples) < 1e-4

    def test_coarse_quantization_distorts(self):
        w, _ = cp.synth_real(11, 0.5, 16000)
        g = cp.GeneratorSpec("g", "fake_spectral_quantize", {"levels": 4})
        y = cp.apply_fake(w, g, 0)
        assert _rms(y.samples - w.samples) > 1e-3

    def test_hum_peak_at_hum_bin(self):
        # quiet input: the hum must poke >= 10 dB above neighboring bins
        sr = 16000
        n = sr  # 1 s => 1 Hz bin spacing
        rng = np.random.default_rng(0)
        quiet = Waveform(1e-4 * rng.standard_normal(n), sr)
        g = cp.GeneratorSpec("g", "fake_hum_phase", {"hum_hz": 50.0, "hum_amp": 0.05, "jitter": 0.3})
        y = cp.apply_fake(quiet, g, 5)
        spec = np.abs(np.fft.rfft(y.samples))
        hum_bin = round(50.0 * n / sr)
        neighbors = np.concatenate([spec[hum_bin - 8 : hum_bin - 2], spec[hum_bin + 3 : hum_bin + 9]])
        ratio_db = 20.0 * math.log10(spec[hum_bin] / max(neighbors.max(), 1e-30))
        assert ratio_db >= 10.0

    def test_blackbox_seed_determinism(self):
        w, _ = cp.synth_real(2, 0.5, 16000)
        g = cp.GeneratorSpec("g", "fake_blackbox")
        a = cp.apply_fake(w, g, 9)
        b = cp.apply_fake(w, g, 9)
        c = cp.apply_fake(w, g, 10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_all_fakes_change_the_signal(self):
        w, _ = cp.synth_real(4, 0.5, 16000)
        for g in cp.DEFAULT_FAKE_GENERATORS:
            y = cp.apply_fake(w, g, 1)
            assert not np.array_equal(y.samples, w.samples), g.id

    def test_output_quantized_and_bounded(self):
        w, _ = cp.synth_real(6, 0.5, 16000)
        for g in cp.DEFAULT_FAKE_GENERATORS:
            y = cp.apply_fake(w, g, 2)
            assert np.max(np.abs(y.samples)) <= 0.99
            assert np.array_equal(y.samples, np.rint(y.samples * 32768.0) / 32768.0)


class TestScaledGenerator:
    def test_strength_one_is_identity(self):
        for g in cp.DEFAULT_FAKE_GENERATORS:
            assert cp.scaled_generator(g, 1.0, 44100) == g

    def test_weak_strength_approaches_noop(self):
        w = Waveform(0.3 * np.sin(2 * np.pi * 440 * np.arange(8000) / 16000.0), 16000)
        for g in cp.DEFAULT_FAKE_GENERATORS:
            strong = cp.apply_fake(w, cp.scaled_generator(g, 1.0, w.sample_rate), 3)
            weak = cp.apply_fake(w, cp.scaled_generator(g, 0.05, w.sample_rate), 3)
            err_strong = _rms(strong.samples - w.samples)
            err_weak = _rms(weak.samples - w.samples)
            assert err_weak < err_strong, g.id

    def test_bad_strength(self):
        with pytest.raises(BadConfig):
            cp.scaled_generator(cp.DEFAULT_FAKE_GENERATORS[0], 0.0, 44100)


class TestCorpusConfig:
    def test_defaults_valid(self):
        cfg = cp.CorpusConfig()
        assert cfg.n_clips == 500 and len(cfg.fake_generators) == 4

    def test_round_trip_dict(self):
        cfg = cp.CorpusConfig(n_clips=40, artifact_strength=0.5, caption_generator_hints=True)
        again = cp.CorpusConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(BadConfig):
            cp.CorpusConfig.from_dict({"n_clips": 10, "wibble": 3})

    def test_real_generator_rejected_in_fakes(self):
        with pytest.raises(BadConfig):
            cp.CorpusConfig(fake_generators=(cp.REAL_GENERATOR,) + cp.DEFAULT_FAKE_GENERATORS[:1])

    def test_fraction_bounds(self):
        with pytest.raises(BadConfig):
            cp.CorpusConfig(train_fraction=0.9, dev_fraction=0.2)
        with pytest.raises(BadConfig):
            cp.CorpusConfig(bonafide_fraction=0.0)


def _tiny_cfg(**kw):
    defaults = dict(n_clips=24, duration_s=0.5, sample_rate=8000, seed=1)
    defaults.update(kw)
    return cp.CorpusConfig(**defaults)


class TestPlanCorpus:
    def test_label_balance_exact(self):
        for seed in (0, 1, 2):
            cfg = _tiny_cfg(seed=seed)
            plan, _, _ = cp.plan_corpus(cfg)
            n_real = sum(1 for _, g in plan if g.kind == "real")
            assert abs(n_real / len(plan) - cfg.bonafide_fraction) <= 0.02

    def test_track1_holds_out_family(self):
        cfg = _tiny_cfg()
        plan, splits, held = cp.plan_corpus(cfg)
        held_ids = {u for u, g in plan if g.id == held}
        assert held == "blackbox"
        assert held_ids
        assert not held_ids & set(splits["track1"]["train"])
        assert not held_ids & set(splits["track1"]["dev"])
        assert held_ids <= set(splits["track1"]["eval"])

    def test_track2_leak_count_is_floor(self):
        # 1000 held-out clips at 1% => exactly 10 in train
        cfg = cp.CorpusConfig(n_clips=4000, bonafide_fraction=0.5, seed=3)
        plan, splits, held = cp.plan_corpus(cfg)
        held_ids = {u for u, g in plan if g.id == held}
        assert len(held_ids) == 500
        in_train = held_ids & set(splits["track2"]["train"])
        assert len(in_train) == math.floor(0.01 * len(held_ids))
        assert not held_ids & set(splits["track2"]["dev"])

    @pytest.mark.parametrize("n_clips,n_leaked", [(500, 0), (1000, 1)])
    def test_track2_is_track1_until_one_clip_leaks(self, n_clips, n_leaked):
        # at the default 1 % the leak is 0 until the black-box family holds
        # 100 clips, which it first does at 800 clips
        plan, splits, held = cp.plan_corpus(cp.CorpusConfig(n_clips=n_clips))
        held_ids = {u for u, g in plan if g.id == held}
        assert len(held_ids & set(splits["track2"]["train"])) == n_leaked
        assert (splits["track2"] == splits["track1"]) == (n_leaked == 0)

    def test_splits_partition_each_track(self):
        cfg = _tiny_cfg()
        plan, splits, _ = cp.plan_corpus(cfg)
        every = {u for u, _ in plan}
        for track in ("track1", "track2"):
            seen = sum((splits[track][s] for s in ("train", "dev", "eval")), [])
            assert len(seen) == len(set(seen)) == len(every)
            assert set(seen) == every

    def test_insufficient_families(self):
        with pytest.raises(InsufficientFamilies):
            cp.plan_corpus(_tiny_cfg(fake_generators=cp.DEFAULT_FAKE_GENERATORS[:1]))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    cfg = _tiny_cfg()
    manifest = cp.build_corpus(cfg, out)
    return cfg, out, manifest


class TestBuildCorpus:
    def test_files_exist(self, built):
        _, out, manifest = built
        assert (out / "captions.jsonl").exists()
        assert (out / "manifest.json").exists()
        for c in manifest.clips:
            assert (out / "wav" / f"{c.utt_id}.wav").exists()

    def test_wavs_reload_bit_exactly(self, built):
        cfg, out, manifest = built
        c = manifest.clips[0]
        wave, _ = cp.synth_real(list(c.seed), cfg.duration_s, cfg.sample_rate)
        back = load_wav(out / "wav" / f"{c.utt_id}.wav")
        assert np.array_equal(back.samples, wave.samples)

    def test_protocols_match_manifest(self, built):
        _, out, manifest = built
        for track in ("track1", "track2"):
            entries = read_protocol(out / f"protocol_{track}.tsv")
            assert {e.utt_id for e in entries} == {c.utt_id for c in manifest.clips}
            by_split = {}
            for e in entries:
                by_split.setdefault(e.split, set()).add(e.utt_id)
            for split, ids in by_split.items():
                assert ids == set(manifest.splits[track][split])

    def test_labels_match_generator_kind(self, built):
        _, out, _ = built
        entries = read_protocol(out / "protocol_track1.tsv")
        for e in entries:
            assert (e.label == "bonafide") == (e.generator_id == "real")

    def test_captions_cover_all_clips_with_all_styles(self, built):
        _, out, manifest = built
        caps = load_captions(out / "captions.jsonl")
        assert {c.utt_id for c in caps} == {c.utt_id for c in manifest.clips}
        for c in caps:
            assert set(c.captions) == {"audioset", "audiocaps", "clotho"}

    def test_captions_name_the_event_tags(self, built):
        _, out, manifest = built
        caps = {c.utt_id: c for c in load_captions(out / "captions.jsonl")}
        for clip in manifest.clips:
            words = set(tokenize(caps[clip.utt_id].captions["audiocaps"]))
            for tag in clip.tags:
                assert tag in words

    def test_no_hints_by_default(self, built):
        _, out, _ = built
        caps = load_captions(out / "captions.jsonl")
        hint_words = set(cp._GENERATOR_HINTS.values())
        for c in caps:
            for text in c.captions.values():
                assert not hint_words & set(tokenize(text))

    def test_manifest_round_trip(self, built):
        _, out, manifest = built
        again = cp.load_manifest(out / "manifest.json")
        assert [c.utt_id for c in again.clips] == [c.utt_id for c in manifest.clips]
        assert again.splits == manifest.splits
        assert again.blackbox_fraction == manifest.blackbox_fraction

    def test_byte_identical_rebuild(self, built, tmp_path):
        cfg, out, _ = built
        out2 = tmp_path / "again"
        cp.build_corpus(cfg, out2)
        for rel in ("captions.jsonl", "manifest.json", "protocol_track1.tsv", "protocol_track2.tsv"):
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        for wav in sorted((out / "wav").iterdir()):
            assert wav.read_bytes() == (out2 / "wav" / wav.name).read_bytes(), wav.name


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestShares:
    """Clips dealt out over the CPUs: share 0 in this process, the others in
    forked workers."""

    @pytest.mark.parametrize("cfg, shares", [
        (_tiny_cfg(caption_generator_hints=True), (1, 2, 3)),
        # the smallest corpus that plans: one real clip and one clip of
        # each of two fake families; at 4 shares one share is empty
        (_tiny_cfg(n_clips=3, bonafide_fraction=0.3,
                   fake_generators=cp.DEFAULT_FAKE_GENERATORS[:2]), (1, 3, 4)),
    ])
    def test_same_tree_at_any_share_count(self, cfg, shares, tmp_path, set_cpus):
        trees = []
        for n in shares:
            set_cpus(n)
            cp.build_corpus(cfg, tmp_path / str(n))
            assert multiprocessing.active_children() == []
            trees.append(_tree(tmp_path / str(n)))
        assert sum(name.startswith("wav/") for name in trees[0]) == cfg.n_clips
        for tree in trees[1:]:
            assert tree == trees[0]

    @pytest.mark.parametrize("failing", ["u0000", "u0001"])  # shares 0 and 1 of 2
    @pytest.mark.parametrize("error, code, line", [
        (lambda path: NonFinite("clip blew up"), 2, "ERROR NON_FINITE: clip blew up"),
        (lambda path: OSError(28, "No space left on device", path), 3,
         "ERROR INTERNAL: [Errno 28] No space left on device: '{path}'"),
    ])
    def test_share_error_reaches_cli_as_in_serial_run(self, failing, error, code, line,
                                                      tmp_path, monkeypatch, capsys, set_cpus):
        write_wav = cp.write_wav

        def failing_write(path, wave):
            if os.path.basename(path) == f"{failing}.wav":
                raise error(path)
            write_wav(path, wave)

        monkeypatch.setattr(cp, "write_wav", failing_write)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": {"n_clips": 8, "duration_s": 0.5,
                                                 "sample_rate": 8000}}))
        out = tmp_path / "corpus"
        argv = ["corpus", "synth", "--config", str(config), "--out", str(out)]
        expected = line.format(path=out / "wav" / f"{failing}.wav")
        for n in (1, 2):
            set_cpus(n)
            assert main(argv) == code
            assert capsys.readouterr().err.strip() == expected
            assert not (out / "manifest.json").exists()
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n", [1, 2])
    def test_forced_rerun_cut_off_leaves_no_manifest(self, n, tmp_path, monkeypatch, capsys,
                                                     set_cpus):
        # the manifest is the corpus's commit marker: the old one must not
        # sit over a mix of old and new WAVs
        set_cpus(n)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"corpus": {"n_clips": 8, "duration_s": 0.5,
                                                 "sample_rate": 8000, "seed": 1}}))
        out = tmp_path / "corpus"
        argv = ["corpus", "synth", "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        assert (out / "manifest.json").exists()
        write_wav = cp.write_wav

        def failing_write(path, wave):
            if os.path.basename(path) == "u0005.wav":
                raise OSError(28, "No space left on device", path)
            write_wav(path, wave)

        monkeypatch.setattr(cp, "write_wav", failing_write)
        capsys.readouterr()
        assert main(argv + ["--force", "--seed", "2"]) == 3
        assert capsys.readouterr().err.startswith("ERROR INTERNAL:")
        assert not (out / "manifest.json").exists()
        assert multiprocessing.active_children() == []

    def test_worker_killed_mid_write_leaves_no_wav_of_it(self, tmp_path, monkeypatch, capsys,
                                                         set_cpus):
        set_cpus(2)
        cp.build_corpus(_tiny_cfg(n_clips=8), tmp_path / "ok")
        real_open = open
        runner = os.getpid()

        def open_then_die(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            # u0001 is in share 1 of 2, so a worker writes it
            if "u0001.wav" in os.fspath(path) and os.getpid() != runner:
                fh.write(b"RIFF")
                fh.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            return fh

        monkeypatch.setattr(errors, "open", open_then_die, raising=False)
        out = tmp_path / "corpus"
        argv = ["corpus", "synth", "--config", str(tmp_path / "run.json"), "--out", str(out)]
        (tmp_path / "run.json").write_text(json.dumps({"corpus": {
            "n_clips": 8, "duration_s": 0.5, "sample_rate": 8000, "seed": 1}}))
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("ERROR INTERNAL:")
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.json").exists()
        wavs = sorted(p.name for p in (out / "wav").glob("*.wav"))
        assert "u0001.wav" not in wavs and "u0000.wav" in wavs
        assert [p.name for p in (out / "wav").iterdir() if p.name.endswith(".tmp")] == []
        for name in wavs:
            assert (out / "wav" / name).read_bytes() == (tmp_path / "ok" / "wav" / name).read_bytes()


class TestHints:
    def test_hint_tokens_follow_generator(self, tmp_path):
        cfg = _tiny_cfg(caption_generator_hints=True)
        manifest = cp.build_corpus(cfg, tmp_path)
        caps = {c.utt_id: c for c in load_captions(tmp_path / "captions.jsonl")}
        gen_kind = {g.id: g.kind for g in cfg.fake_generators}
        gen_kind["real"] = "real"
        for clip in manifest.clips:
            hint = cp._GENERATOR_HINTS[gen_kind[clip.generator_id]]
            for text in caps[clip.utt_id].captions.values():
                assert hint in tokenize(text), (clip.utt_id, hint)


class TestManifestValidation:
    def test_duplicate_utt_rejected(self):
        clip = cp.ClipRecord("u0", "real", "bonafide", ("dog",), 1.0, (0, 0))
        with pytest.raises(BadConfig):
            cp.CorpusManifest([clip, clip], {"track1": {"train": ["u0"]}}, 0.01)

    def test_split_overlap_rejected(self):
        clips = [
            cp.ClipRecord("u0", "real", "bonafide", ("dog",), 1.0, (0, 0)),
            cp.ClipRecord("u1", "real", "bonafide", ("dog",), 1.0, (0, 1)),
        ]
        with pytest.raises(BadConfig):
            cp.CorpusManifest(
                clips, {"track1": {"train": ["u0", "u1"], "eval": ["u1"]}}, 0.01
            )

    def test_incomplete_split_rejected(self):
        clips = [
            cp.ClipRecord("u0", "real", "bonafide", ("dog",), 1.0, (0, 0)),
            cp.ClipRecord("u1", "real", "bonafide", ("dog",), 1.0, (0, 1)),
        ]
        with pytest.raises(BadConfig):
            cp.CorpusManifest(clips, {"track1": {"train": ["u0"]}}, 0.01)

    def test_malformed_manifest_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{"),
        with pytest.raises(BadJson):
            cp.load_manifest(path)
        path.write_text(json.dumps({"clips": [{"utt_id": "u0"}], "splits": {}, "blackbox_fraction": 0.01}))
        with pytest.raises(BadJson):
            cp.load_manifest(path)
