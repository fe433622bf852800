"""The CLI calls each workload makes, and why each workload exists.

A workload has three kinds of calls, all run through the CLI entry
point ``atcadet.cli.main`` inside the runner's own process:

* prepare: input-preparation calls, part of set-up and not of ``wall_s``;
* unit: the measured calls. A run makes them once, then repeats the
  read-side ones (``READ_STAGES``) until ``--seconds`` have passed;
* traced_extra: calls made only by a traced run, after the unit. The
  per-layer metrics of every layer must exist on every workload, so a
  workload whose unit leaves out a stage runs it here instead of
  diluting its measured unit.

The seed reaches the program only as ``--seed`` on ``corpus synth``,
``train`` and ``ensemble fit``. Training runs a fixed number of epochs
(``--patience`` equal to ``--epochs``): with early stopping the epoch
count follows the dev-EER curve, which moves with the seed and with any
change to rounding, so the work would differ between runs.
"""

import json
import os
from dataclasses import dataclass

STAGES = ("synth", "featurize", "embed", "train", "score", "eer", "ensemble_fit",
          "ensemble_score")
READ_STAGES = ("score", "eer", "ensemble_score")


@dataclass(frozen=True)
class Call:
    stage: str
    args: tuple

    def opt(self, flag: str):
        """Value of ``flag`` in this call's arguments, or None."""
        if flag in self.args:
            return self.args[self.args.index(flag) + 1]
        return None

    def again(self) -> "Call":
        """The same call made a second time: writers need ``--force``."""
        return self if self.stage == "eer" else Call(self.stage, self.args + ("--force",))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: dict      # file name under the work dir -> JSON object written before set-up
    prepare: tuple    # Calls
    unit: tuple       # Calls whose paths are relative to the unit's own directory
    epochs: int
    traced_extra: tuple = ()  # Calls like ``unit``, made only with --trace 1


WHY = {
    "pipeline_stock": (
        "the README pipeline on the stock 500-clip corpus at hop 2048: what a user runs; "
        "no stage dominates, and it is where corpus and ensemble do their work"
    ),
    "train_hop512": (
        "hop 512 (T=169) quadruples the GRU unroll: a B=32 step leaves 7318 tape nodes "
        "against 2152 at hop 2048, and training is ~98% of the measured unit"
    ),
}


def _score(ckpt, protocol, feats, emb, split, out, ablate=False):
    args = ["score", "--ckpt", ckpt, "--protocol", protocol, "--features", feats,
            "--split", split, "--out", out]
    args += ["--ablate-text"] if ablate else ["--embeddings", emb]
    return Call("score", tuple(args))


def _train(corpus, feats, emb, track, seed, epochs, ckpt, report):
    return Call("train", (
        "train", "--corpus", corpus, "--features", feats, "--embeddings", emb,
        "--track", str(track), "--seed", str(seed), "--epochs", str(epochs),
        "--patience", str(epochs), "--out-ckpt", ckpt, "--out-report", report))


def _eer(scores, protocol):
    return Call("eer", ("eer", "--scores", scores, "--protocol", protocol))


def _ensemble(dev_scores, eval_scores, emb, protocol, seed, model, out, config=None):
    fit = ["ensemble", "fit", "--scores", ",".join(dev_scores), "--embeddings", emb,
           "--protocol", protocol, "--split", "dev", "--seed", str(seed), "--out", model]
    fit = Call("ensemble_fit", tuple(fit + (["--config", config] if config else [])))
    score = Call("ensemble_score", (
        "ensemble", "score", "--model", model, "--scores", ",".join(eval_scores),
        "--embeddings", emb, "--protocol", protocol, "--split", "eval", "--out", out))
    return fit, score


def pipeline_stock(seed: int) -> Workload:
    """Every stage of the README pipeline, in order, on the stock corpus.

    Thirteen epochs is where seed 0 stops early with the default
    patience, so the train call matches the single-run figures quoted
    for the stock pipeline.
    """
    epochs = 13
    p1 = "corpus/protocol_track1.tsv"
    unit = [
        Call("synth", ("corpus", "synth", "--out", "corpus", "--seed", str(seed))),
        Call("featurize", ("featurize", "--corpus", "corpus", "--out", "feats", "--hop", "2048")),
        Call("embed", ("embed", "--corpus", "corpus", "--out", "emb.bin", "--dim", "768")),
        _train("corpus", "feats", "emb.bin", 1, seed, epochs, "t1.atck", "t1_report.json"),
    ]
    for split in ("dev", "eval"):
        unit.append(_score("t1.atck", p1, "feats", "emb.bin", split, f"{split}.tsv"))
        unit.append(_score("t1.atck", p1, "feats", "emb.bin", split, f"{split}_abl.tsv", True))
    unit.append(_eer("eval.tsv", p1))
    unit.extend(_ensemble(["dev.tsv", "dev_abl.tsv"], ["eval.tsv", "eval_abl.tsv"], "emb.bin",
                          p1, seed, "stack.aten", "ens.tsv"))
    unit.append(_eer("ens.tsv", p1))
    return Workload("pipeline_stock", WHY["pipeline_stock"], {}, (), tuple(unit), epochs)


def train_hop512(seed: int) -> Workload:
    """Training at the CLI default hop on a 300-clip corpus, both tracks.

    Set-up builds the corpus, features and embeddings. The unit trains
    track 1 and track 2 and scores eval after each, so training is most
    of it. The other stages run only in a traced run.
    """
    epochs = 8
    c = "../corpus"
    feats, emb = "../feats", "../emb.bin"
    p1, p2 = f"{c}/protocol_track1.tsv", f"{c}/protocol_track2.tsv"
    prepare = (
        Call("synth", ("corpus", "synth", "--config", "run.json", "--out", "corpus",
                       "--seed", str(seed))),
        Call("featurize", ("featurize", "--corpus", "corpus", "--out", "feats")),
        Call("embed", ("embed", "--corpus", "corpus", "--out", "emb.bin", "--dim", "768")),
    )
    unit = (
        _train(c, feats, emb, 1, seed, epochs, "t1.atck", "t1_report.json"),
        _score("t1.atck", p1, feats, emb, "eval", "eval.tsv"),
        _train(c, feats, emb, 2, seed, epochs, "t2.atck", "t2_report.json"),
        _score("t2.atck", p2, feats, emb, "eval", "t2_eval.tsv"),
    )
    traced_extra = (
        _score("t1.atck", p1, feats, emb, "dev", "dev.tsv"),
        _eer("eval.tsv", p1),
        _eer("t2_eval.tsv", p2),
        *_ensemble(["dev.tsv"], ["eval.tsv"], emb, p1, seed, "stack.aten", "ens.tsv",
                   config="../run.json"),
    )
    # A small stack keeps the traced run short: the stock one took about
    # 11 s on this corpus on a 2-vCPU Xeon VM. pipeline_stock fits the
    # stock stack.
    inputs = {"run.json": {"corpus": {"n_clips": 300},
                           "ensemble": {"gbm_rounds": 10, "forest_trees": 10}}}
    return Workload("train_hop512", WHY["train_hop512"], inputs, prepare, unit, epochs,
                    traced_extra)


WORKLOADS = {"pipeline_stock": pipeline_stock, "train_hop512": train_hop512}


def write_inputs(workload: Workload, work_dir) -> None:
    for name, obj in workload.inputs.items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
