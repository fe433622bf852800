"""Command-line pipeline: corpus synthesis through scoring and stacking.

Every subcommand that writes refuses to overwrite existing output unless
--force is passed.  Errors print a single ``ERROR <CODE>: message`` line to
stderr; exit code 1 means bad usage, 2 means bad input data, 3 means an
internal invariant was violated.
"""

import dataclasses
import json
import os

import click
import numpy as np

from . import __version__
from . import corpus as cp
from . import dsp
from . import ensemble as es
from . import model as md
from . import text as tx
from . import training as tr
from .errors import (
    AtcadetError,
    BadConfig,
    DimMismatch,
    EmptySplit,
    MissingFeature,
    MissingScore,
    NotWav,
    OutputExists,
    UsageError,
    read_json,
    temps_swept_on_error,
)
from .metrics import Trial, compute_eer, merge_with_protocol, read_scores, write_scores
from .protocol import SPLITS, filter_split, read_protocol
from .shares import run_shares

FORMAT_VERSIONS = (
    f"wav=pcm16 atfx={dsp.FEATURE_VERSION} "
    f"atck={md.CHECKPOINT_VERSION} aten={es.ENSEMBLE_VERSION}"
)
VERSION_STRING = f"{__version__} (formats: {FORMAT_VERSIONS})"

_RUN_CONFIG_SECTIONS = ("corpus", "model", "train", "ensemble")


def load_run_config(path) -> dict:
    """Read a run-config JSON file with sections for each pipeline stage."""
    if path is None:
        return {}
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise BadConfig(f"{path}: run config must be a JSON object")
    unknown = sorted(set(cfg) - set(_RUN_CONFIG_SECTIONS))
    if unknown:
        raise BadConfig(f"{path}: unknown config sections {unknown}")
    for name in _RUN_CONFIG_SECTIONS:
        if name in cfg and not isinstance(cfg[name], dict):
            raise BadConfig(f"{path}: section {name!r} must be a JSON object")
    return cfg


def _section_config(cls, d: dict):
    """``cls(**d)`` for a run-config section; an unknown field is a BadConfig."""
    try:
        return cls(**d)
    except TypeError as exc:
        raise BadConfig(f"bad {cls.__name__} fields: {exc}") from exc


def _guard_output(path, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise OutputExists(f"{path} already exists; pass --force to overwrite")


def _load_features(features_dir, entries) -> dict:
    feats = {}
    for e in entries:
        try:
            feats[e.utt_id] = dsp.load_external_features(os.path.join(features_dir, f"{e.utt_id}.atfx"))
        except FileNotFoundError as exc:
            raise MissingFeature(f"no feature file for {e.utt_id!r} under {features_dir}") from exc
    return feats


def _load_embedding_map(path, entries) -> dict:
    """The embeddings of the clips of the protocol rows ``entries``, by utt_id."""
    return {emb.utt_id: emb for emb in tx.load_embeddings(path, {e.utt_id for e in entries})}


@click.group(name="atcadet")
@click.version_option(version=VERSION_STRING, prog_name="atcadet", message="%(prog)s %(version)s")
def cli():
    """Environmental-sound deepfake detection pipeline."""


@cli.group(name="corpus")
def corpus_group():
    """Synthetic corpus construction."""


@corpus_group.command(name="synth")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Run-config JSON; the 'corpus' section is used.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False),
              help="Directory to write wav/, captions, protocols and manifest into.")
@click.option("--seed", type=int, default=None, help="Override the corpus seed.")
@click.option("--force", is_flag=True, help="Overwrite an existing corpus.")
def corpus_synth(config_path, out_dir, seed, force):
    """Generate a labeled synthetic corpus of real and faked clips."""
    run = load_run_config(config_path)
    cfg = cp.CorpusConfig.from_dict(run.get("corpus", {}))
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    _guard_output(os.path.join(out_dir, "manifest.json"), force)
    manifest = cp.build_corpus(cfg, out_dir)
    click.echo(f"wrote {len(manifest.clips)} clips to {out_dir}")


def _featurize_share(targets, stft_cfg) -> list:
    """Write the features of each (WAV, feature file) pair in ``targets``."""
    return [dsp.write_features(path, dsp.stft_logmel(dsp.load_wav(wav), stft_cfg))
            for wav, path in targets]


@cli.command(name="featurize")
@click.option("--corpus", "corpus_dir", required=True,
              type=click.Path(exists=True, file_okay=False), help="Corpus directory.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False),
              help="Directory for per-utterance .atfx feature files.")
@click.option("--n-fft", type=int, default=2048, show_default=True, help="FFT size.")
@click.option("--hop", type=int, default=512, show_default=True, help="Hop size in samples.")
@click.option("--n-mels", type=int, default=64, show_default=True, help="Mel band count.")
@click.option("--force", is_flag=True, help="Overwrite existing feature files.")
def featurize(corpus_dir, out_dir, n_fft, hop, n_mels, force):
    """Extract log-mel features for every clip in a corpus."""
    manifest = cp.load_manifest(os.path.join(corpus_dir, "manifest.json"))
    stft_cfg = dsp.StftConfig(n_fft=n_fft, hop=hop, n_mels=n_mels)
    targets = [
        (os.path.join(corpus_dir, "wav", f"{c.utt_id}.wav"), os.path.join(out_dir, f"{c.utt_id}.atfx"))
        for c in manifest.clips
    ]
    # every wav is checked before the first feature file is written
    for wav, path in targets:
        if not os.path.isfile(wav):
            raise NotWav(f"{wav}: listed in the manifest but not found")
        _guard_output(path, force)
    os.makedirs(out_dir, exist_ok=True)
    with temps_swept_on_error(out_dir, [os.path.basename(path) for _, path in targets]):
        run_shares(_featurize_share, targets, stft_cfg)
    click.echo(f"wrote {len(targets)} feature files to {out_dir}")


@cli.group(name="embed", invoke_without_command=True)
@click.option("--corpus", "corpus_dir", type=click.Path(exists=True, file_okay=False),
              default=None, help="Corpus directory holding captions.jsonl.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Embedding file to write (an index sidecar is written next to it).")
@click.option("--dim", type=int, default=768, show_default=True,
              help="Embedding dimensionality.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the hashing embedder's projection stream.")
@click.option("--force", is_flag=True, help="Overwrite existing embedding files.")
@click.pass_context
def embed(ctx, corpus_dir, out_path, dim, seed, force):
    """Embed corpus captions with the hashing text embedder."""
    if ctx.invoked_subcommand is not None:
        return
    if corpus_dir is None or out_path is None:
        raise UsageError("embed requires --corpus and --out")
    captions = tx.load_captions(os.path.join(corpus_dir, "captions.jsonl"))
    cfg = tx.ToyEmbedderConfig(dim=dim, seed=seed)
    _guard_output(out_path, force)
    # each caption's matrix is written as it is made and then dropped
    tx.write_embeddings(out_path, (tx.toy_embed(cs, cfg) for cs in captions))
    click.echo(f"wrote {len(captions)} embeddings to {out_path}")


@embed.command(name="import")
@click.option("--from", "src_dir", required=True,
              type=click.Path(exists=True, file_okay=False),
              help="Directory of external per-utterance .atfx embedding matrices.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Embedding file to write.")
@click.option("--force", is_flag=True, help="Overwrite existing embedding files.")
def embed_import(src_dir, out_path, force):
    """Ingest externally produced embedding matrices, one .atfx per utterance."""
    names = sorted(n for n in os.listdir(src_dir) if n.endswith(".atfx"))
    if not names:
        raise MissingFeature(f"no .atfx files under {src_dir}")
    embeddings = []
    width = None
    for name in names:
        feat = dsp.load_external_features(os.path.join(src_dir, name))
        if width is None:
            width = feat.values.shape[1]
        elif feat.values.shape[1] != width:
            raise DimMismatch(
                f"{name}: embedding width {feat.values.shape[1]} != {width}")
        # empty spans mark an externally produced, unsegmented matrix
        embeddings.append(tx.TextEmbedding(name[: -len(".atfx")], feat.values, ()))
    _guard_output(out_path, force)
    tx.write_embeddings(out_path, embeddings)
    click.echo(f"imported {len(embeddings)} embeddings to {out_path}")


def _subsample_train(entries, fraction, seed):
    """Keep a seeded random fraction of the train split; other splits intact."""
    if not 0.0 < fraction <= 1.0:
        raise BadConfig(f"--fraction must lie in (0, 1], got {fraction}")
    train_ids = [e.utt_id for e in entries if e.split == "train"]
    keep_n = max(1, int(round(fraction * len(train_ids))))
    rng = np.random.default_rng([seed, 17])
    keep = {train_ids[i] for i in rng.permutation(len(train_ids))[:keep_n]}
    return [e for e in entries if e.split != "train" or e.utt_id in keep]


@cli.command(name="train")
@click.option("--corpus", "corpus_dir", required=True,
              type=click.Path(exists=True, file_okay=False), help="Corpus directory.")
@click.option("--features", "features_dir", required=True,
              type=click.Path(exists=True, file_okay=False),
              help="Directory of .atfx feature files.")
@click.option("--embeddings", "embeddings_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Embedding file.")
@click.option("--track", type=click.Choice(["1", "2"]), required=True,
              help="Which leakage protocol to train against.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Run-config JSON; 'model' and 'train' sections are used.")
@click.option("--fraction", type=float, default=None,
              help="Train on a seeded random fraction of the train split.")
@click.option("--epochs", type=int, default=None, help="Override epoch count.")
@click.option("--batch-size", type=int, default=None, help="Override batch size.")
@click.option("--lr", type=float, default=None, help="Override learning rate.")
@click.option("--seed", type=int, default=None, help="Override the training seed.")
@click.option("--patience", type=int, default=None, help="Override early-stop patience.")
@click.option("--out-ckpt", "ckpt_path", required=True, type=click.Path(dir_okay=False),
              help="Checkpoint file to write.")
@click.option("--out-report", "report_path", type=click.Path(dir_okay=False), default=None,
              help="Training report JSON to write.")
@click.option("--force", is_flag=True, help="Overwrite existing outputs.")
def train_cmd(corpus_dir, features_dir, embeddings_path, track, config_path, fraction,
              epochs, batch_size, lr, seed, patience, ckpt_path, report_path, force):
    """Train the cross-attention detector on one corpus track."""
    run = load_run_config(config_path)
    train_dict = dict(run.get("train", {}))
    for key, value in (("epochs", epochs), ("batch_size", batch_size), ("lr", lr),
                       ("seed", seed), ("patience", patience)):
        if value is not None:
            train_dict[key] = value
    tcfg = _section_config(tr.TrainConfig, train_dict)

    entries = read_protocol(os.path.join(corpus_dir, f"protocol_track{track}.tsv"))
    if fraction is not None:
        entries = _subsample_train(entries, fraction, tcfg.seed)
    needed = [e for e in entries if e.split in ("train", "dev")]
    if not needed:
        raise EmptySplit("protocol has no train entries")
    features = _load_features(features_dir, needed)
    embeddings = _load_embedding_map(embeddings_path, needed)

    feat_dim = next(iter(features.values())).values.shape[1]
    # a file that covers none of the clips has the width its index declares,
    # so it fails on the missing embedding and not on the model's d_text
    emb_dim = (next(iter(embeddings.values())).matrix.shape[1] if embeddings
               else tx.embedding_width(embeddings_path, 768))
    model_dict = {"d_spec": feat_dim, "d_text": emb_dim}
    model_dict.update(run.get("model", {}))
    model_cfg = _section_config(md.AtcaConfig, model_dict)
    if model_cfg.d_spec != feat_dim:
        raise DimMismatch(f"model d_spec {model_cfg.d_spec} != feature width {feat_dim}")
    if model_cfg.d_text != emb_dim:
        raise DimMismatch(f"model d_text {model_cfg.d_text} != embedding width {emb_dim}")

    _guard_output(ckpt_path, force)
    if report_path is not None:
        _guard_output(report_path, force)
    params, report = tr.train(entries, features, embeddings, tcfg, model_cfg)
    md.save_checkpoint(ckpt_path, params)
    if report_path is not None:
        tr.write_report(report_path, report)
    click.echo(f"best epoch {report.best_epoch} dev EER {report.val_eer[report.best_epoch]:.4f}")


@cli.command(name="score")
@click.option("--ckpt", "ckpt_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Checkpoint file.")
@click.option("--protocol", "protocol_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Protocol TSV.")
@click.option("--features", "features_dir", required=True,
              type=click.Path(exists=True, file_okay=False),
              help="Directory of .atfx feature files.")
@click.option("--embeddings", "embeddings_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Embedding file (not needed with --ablate-text).")
@click.option("--split", type=click.Choice(SPLITS), default="eval", show_default=True,
              help="Protocol split to score.")
@click.option("--ablate-text", is_flag=True,
              help="Replace the text stream with a single zero vector.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Score TSV to write.")
@click.option("--force", is_flag=True, help="Overwrite an existing score file.")
def score_cmd(ckpt_path, protocol_path, features_dir, embeddings_path, split,
              ablate_text, out_path, force):
    """Score one protocol split with a trained checkpoint."""
    _guard_output(out_path, force)
    if embeddings_path is None and not ablate_text:
        raise UsageError("score requires --embeddings unless --ablate-text is set")
    params = md.load_checkpoint(ckpt_path)
    entries = filter_split(read_protocol(protocol_path), split)
    features = _load_features(features_dir, entries)
    if ablate_text:
        trials = tr.ablate_text(params, entries, features)
    else:
        embeddings = _load_embedding_map(embeddings_path, entries)
        trials = tr.score_protocol(params, entries, features, embeddings)
    write_scores(out_path, trials)
    click.echo(f"wrote {len(trials)} scores to {out_path}")


@cli.command(name="eer")
@click.option("--scores", "scores_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Score TSV.")
@click.option("--protocol", "protocol_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Protocol TSV.")
@click.option("--split", type=click.Choice(SPLITS), default=None,
              help="Restrict the protocol to one split; default matches the score file.")
def eer_cmd(scores_path, protocol_path, split):
    """Compute the equal error rate of a score file against a protocol."""
    trials = read_scores(scores_path)
    if not trials:
        raise MissingScore(f"{scores_path}: holds no scores")
    entries = read_protocol(protocol_path)
    if split is not None:
        entries = filter_split(entries, split)
    else:
        scored = {t.utt_id for t in trials}
        entries = [e for e in entries if e.utt_id in scored]
    result = compute_eer(merge_with_protocol(trials, entries))
    click.echo(f"EER (%): {result.eer * 100.0:.2f}")
    click.echo(json.dumps(
        {
            "eer": result.eer,
            "threshold": result.threshold,
            "n_bonafide": result.n_bonafide,
            "n_spoof": result.n_spoof,
        },
        sort_keys=True,
    ))


def _read_score_sets(spec: str):
    paths = [p for p in spec.split(",") if p]
    if not paths:
        raise UsageError("--scores needs a comma-separated list of score files")
    for path in paths:
        if not os.path.exists(path):
            raise UsageError(f"score file {path} does not exist")
    return [read_scores(p) for p in paths]


def _meta_examples(scores_spec, embeddings_path, protocol_path, split) -> list:
    """The meta examples of one split: each base score file's scores and each clip's caption."""
    entries = filter_split(read_protocol(protocol_path), split)
    score_sets = _read_score_sets(scores_spec)
    return es.build_meta_examples(score_sets, _load_embedding_map(embeddings_path, entries), entries)


@cli.group(name="ensemble")
def ensemble_group():
    """Stacked combination of base detector scores."""


@ensemble_group.command(name="fit")
@click.option("--scores", "scores_spec", required=True,
              help="Comma-separated score TSVs, one per base system.")
@click.option("--embeddings", "embeddings_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Embedding file.")
@click.option("--protocol", "protocol_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Protocol TSV.")
@click.option("--split", type=click.Choice(SPLITS), default="dev", show_default=True,
              help="Labeled split the meta-learner is fit on.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Run-config JSON; the 'ensemble' section is used.")
@click.option("--folds", type=int, default=5, show_default=True,
              help="Out-of-fold split count for stacking.")
@click.option("--seed", type=int, default=None, help="Override the ensemble seed.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Ensemble model file to write.")
@click.option("--force", is_flag=True, help="Overwrite an existing model file.")
def ensemble_fit(scores_spec, embeddings_path, protocol_path, split, config_path,
                 folds, seed, out_path, force):
    """Fit the stacked regression ensemble on out-of-fold base scores."""
    run = load_run_config(config_path)
    cfg = _section_config(es.StackConfig, run.get("ensemble", {}))
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    _guard_output(out_path, force)
    examples = _meta_examples(scores_spec, embeddings_path, protocol_path, split)
    model = es.fit_stacked(examples, folds=folds, cfg=cfg)
    es.save_ensemble(out_path, model)
    weights = ", ".join(f"{w:.2f}" for w in model.combine_weights)
    click.echo(f"wrote ensemble to {out_path} (combine weights {weights})")


@ensemble_group.command(name="score")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Ensemble model file.")
@click.option("--scores", "scores_spec", required=True,
              help="Comma-separated score TSVs, one per base system.")
@click.option("--embeddings", "embeddings_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Embedding file.")
@click.option("--protocol", "protocol_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Protocol TSV.")
@click.option("--split", type=click.Choice(SPLITS), default="eval", show_default=True,
              help="Protocol split to score.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Score TSV to write.")
@click.option("--force", is_flag=True, help="Overwrite an existing score file.")
def ensemble_score(model_path, scores_spec, embeddings_path, protocol_path, split,
                   out_path, force):
    """Score a split with a fitted ensemble over base score files."""
    _guard_output(out_path, force)
    model = es.load_ensemble(model_path)
    examples = _meta_examples(scores_spec, embeddings_path, protocol_path, split)
    preds = es.predict_stacked(model, np.stack([es.feature_vector(ex) for ex in examples]))
    trials = [Trial(ex.utt_id, float(p)) for ex, p in zip(examples, preds)]
    write_scores(out_path, trials)
    click.echo(f"wrote {len(trials)} ensemble scores to {out_path}")


@cli.command(name="params")
@click.option("--ckpt", "ckpt_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Checkpoint file.")
def params_cmd(ckpt_path):
    """Print the learnable parameter count of a checkpoint."""
    click.echo(str(md.count_params(md.load_checkpoint(ckpt_path))))


def main(argv=None) -> int:
    """Entry point with the error-to-exit-code mapping the package promises."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help / --version
        return int(exc.exit_code)
    except click.Abort:
        return 1
    except click.ClickException as exc:
        click.echo(f"ERROR USAGE: {exc.format_message()}", err=True)
        return 1
    except AtcadetError as exc:
        click.echo(f"ERROR {exc.code}: {exc.message}", err=True)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - last-resort internal mapping
        click.echo(f"ERROR INTERNAL: {exc}", err=True)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
