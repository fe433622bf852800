"""The traced run: spans around the package's public calls, replayed in-process.

The CLI commands are replayed through ``atcadet.cli.main`` in this
process, on the workload's own arguments, while wrappers installed from
here record a span around each public call below. Spans are kept in
memory and written once, when the benchmark ends. Nothing inside the
package is edited; the wrappers replace the functions in every
``atcadet`` module that holds a reference to them, and are removed
afterwards.
"""

import contextlib
import functools
import io
import os
import statistics
import sys
import time

import numpy as np

from atcadet import autodiff as ad
from atcadet import dsp
from atcadet import model as md
from atcadet import text as tx
from atcadet.protocol import filter_split, read_protocol


def _apply_fake_name(args, kwargs):
    gen = args[1] if len(args) > 1 else kwargs["gen"]
    return "corpus.apply_fake." + gen.kind.removeprefix("fake_")


# (module, function, span name or callable giving it from the call's arguments)
TARGETS = (
    ("atcadet.corpus", "build_corpus", "corpus.build_corpus"),
    ("atcadet.corpus", "synth_real", "corpus.synth_real"),
    ("atcadet.corpus", "apply_fake", _apply_fake_name),
    ("atcadet.dsp", "write_wav", "dsp.write_wav"),
    ("atcadet.dsp", "load_wav", "dsp.load_wav"),
    ("atcadet.dsp", "stft_logmel", "dsp.stft_logmel"),
    ("atcadet.dsp", "write_features", "dsp.write_features"),
    ("atcadet.dsp", "load_external_features", "dsp.load_external_features"),
    ("atcadet.text", "load_captions", "text.load_captions"),
    ("atcadet.text", "toy_embed", "text.toy_embed"),
    ("atcadet.text", "write_embeddings", "text.write_embeddings"),
    ("atcadet.text", "load_embeddings", "text.load_embeddings"),
    ("atcadet.model", "load_checkpoint", "model.load_checkpoint"),
    ("atcadet.model", "save_checkpoint", "model.save_checkpoint"),
    ("atcadet.model", "forward_batch", "model.forward_batch"),
    ("atcadet.autodiff", "weighted_ce_logits", "autodiff.weighted_ce_logits"),
    ("atcadet.autodiff", "backward", "autodiff.backward"),
    ("atcadet.training", "train", "training.train"),
    ("atcadet.training", "score_protocol", "training.score_protocol"),
    ("atcadet.training", "write_report", "training.write_report"),
    ("atcadet.metrics", "compute_eer", "metrics.compute_eer"),
    ("atcadet.metrics", "read_scores", "metrics.read_scores"),
    ("atcadet.metrics", "write_scores", "metrics.write_scores"),
    ("atcadet.ensemble", "build_meta_examples", "ensemble.build_meta_examples"),
    ("atcadet.ensemble", "fit_stacked", "ensemble.fit_stacked"),
    ("atcadet.ensemble", "fit_gbm", "ensemble.fit_gbm"),
    ("atcadet.ensemble", "fit_forest", "ensemble.fit_forest"),
    ("atcadet.ensemble", "fit_ridge", "ensemble.fit_ridge"),
    ("atcadet.ensemble", "predict_stacked", "ensemble.predict_stacked"),
    ("atcadet.ensemble", "save_ensemble", "ensemble.save_ensemble"),
    ("atcadet.ensemble", "load_ensemble", "ensemble.load_ensemble"),
)


class Tracer:
    """Spans as (name, start, end, parent index, call index), in start order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.call = None

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.call]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every reference to a target function through a span."""
        patched = []
        try:
            for module_name, fn_name, span_name in TARGETS:
                original = getattr(sys.modules.get(module_name), fn_name, None)
                if original is None:
                    continue  # the metrics built on its spans go missing and fail the run
                wrapper = self._wrap(original, span_name)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "atcadet" or mod_name.startswith("atcadet."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def durations(self, name, parent_name=None) -> list:
        return [end - start for n, start, end, parent, _ in self.spans
                if n == name and (parent_name is None
                                  or (parent is not None and self.spans[parent][0] == parent_name))]

    def to_json(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p, "call": c}
                for i, (n, s, e, p, c) in enumerate(self.spans)]


def replay(tracer, calls, main) -> list:
    """Run each (call, cwd) through the CLI entry point in-process.

    Returns the exit code of each call, stopping at the first non-zero one.
    """
    codes = []
    here = os.getcwd()
    try:
        for i, (call, cwd) in enumerate(calls):
            os.chdir(cwd)
            tracer.call = i
            with tracer.span(f"stage.{call.stage}"), contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(list(call.args)))
            tracer.call = None
            if codes[-1] != 0:
                break
    finally:
        os.chdir(here)
    return codes


def coverage(tracer, stage, untraced_s) -> float:
    """Share of the stage's untraced in-process time that its public-call spans cover.

    Covered time is the summed duration of the spans directly under the
    stage's replayed calls; anything the wrapped public calls miss shows
    as a share below one. Tracing adds time of its own, so the share can
    pass one slightly; it is not capped.
    """
    stage_ids = {i for i, rec in enumerate(tracer.spans) if rec[0] == f"stage.{stage}"}
    covered = sum(end - start for _, start, end, parent, _ in tracer.spans
                  if parent in stage_ids)
    return covered / untraced_s if untraced_s > 0 else 1.0


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3


def step_metrics(corpus_dir, feats_dir, emb_path, ckpt_path, repeats: int, problems) -> dict:
    """One training step on a fixed B=32 batch, and batch-64 inference.

    The batch is the first 32 train clips of track 1, with the trained
    track-1 checkpoint the workload wrote.
    """
    params = md.load_checkpoint(ckpt_path)
    entries = read_protocol(os.path.join(corpus_dir, "protocol_track1.tsv"))
    embeddings = {e.utt_id: e.matrix for e in tx.load_embeddings(emb_path)}

    def batch(split, n):
        chosen = filter_split(entries, split)[:n]
        specs = [dsp.load_external_features(os.path.join(feats_dir, f"{e.utt_id}.atfx")).values
                 for e in chosen]
        labels = np.array([0 if e.label == "bonafide" else 1 for e in chosen], dtype=np.int64)
        return specs, [embeddings[e.utt_id] for e in chosen], labels

    specs, texts, labels = batch("train", 32)
    weights = np.asarray(params.config.class_weights, dtype=np.float64)
    none = [None] * len(specs)
    samples = {k: [] for k in ("encode", "attention", "forward", "loss", "backward", "infer")}
    nodes = set()
    infer_specs, infer_texts, _ = batch("eval", 64)
    for _ in range(repeats):
        with ad.Tape():
            t0 = time.perf_counter()
            encoded = [md.encode_acoustic(s, None, params) for s in specs]
            t1 = time.perf_counter()
            for enc, text in zip(encoded, texts):
                md.cross_attention(enc, text, params)
            t2 = time.perf_counter()
        samples["encode"].append(t1 - t0)
        samples["attention"].append(t2 - t1)

        with ad.Tape() as tape:
            t0 = time.perf_counter()
            logits = md.forward_batch(specs, none, texts, params)
            t1 = time.perf_counter()
            loss = ad.weighted_ce_logits(logits, labels, weights)
            t2 = time.perf_counter()
        ad.backward(tape, loss)
        t3 = time.perf_counter()
        nodes.add(len(tape))
        samples["forward"].append(t1 - t0)
        samples["loss"].append(t2 - t1)
        samples["backward"].append(t3 - t2)

        with ad.no_grad():
            t0 = time.perf_counter()
            md.forward_batch(infer_specs, [None] * len(infer_specs), infer_texts, params)
            samples["infer"].append((time.perf_counter() - t0) / len(infer_specs))

    if len(nodes) != 1:
        problems.append(f"tape node count differs between identical steps: {sorted(nodes)}")
    encode, attention = _median_ms(samples["encode"]), _median_ms(samples["attention"])
    forward = _median_ms(samples["forward"])
    return {
        "model.encode_ms": encode,
        "model.attention_ms": attention,
        "model.forward_ms": forward,
        # derived: what forward_batch spends outside encode and attention
        "model.gru_fwd_ms": forward - encode - attention,
        "model.infer_ms_per_clip": _median_ms(samples["infer"]),
        "autodiff.loss_ms": _median_ms(samples["loss"]),
        "autodiff.backward_ms": _median_ms(samples["backward"]),
        "autodiff.tape_nodes": max(nodes),
    }
