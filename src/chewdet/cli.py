"""Pipeline driver.

Each stage is a subcommand reading and writing the CSV artifacts of the
previous one inside a single output directory, so a full run is::

    chewdet synth --scenario day.txt --out run/
    chewdet derive --participant SYN --out run/
    chewdet peaks --participant SYN --out run/
    chewdet segment --participant SYN --out run/
    chewdet featurize --participant SYN --out run/
    chewdet train --participants SYN --out run/
    chewdet predict --participant SYN --out run/
    chewdet episodes --participant SYN --out run/
    chewdet evaluate --participant SYN --out run/

Commands are wired from one table, ``COMMANDS``: a row gives a command's
name, help, body and own flags, added after the two common flags,
``--config`` and ``--out``; every setting comes from the config file.
A command body does no file plumbing of its own: it reads every input,
the ``--config`` file included, through its ``Recorder``'s ``read``, which
fails with "run `chewdet <producer>` first" when an artifact is missing,
and writes every output through ``write``, which writes atomically (temp
file + rename).  The recorder keeps both lists, and ``main`` appends the
configuration and a digest of exactly those files to ``manifest.txt`` in
the output directory.  Identical command sequences with identical inputs
produce byte-identical artifacts and manifests, and errors exit nonzero.
The computations are the library's: ``featurize`` and ``detect_episodes``
are the calls the in-memory pipeline makes too.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

from . import __version__
from .boosting import classify_candidates, load_model, save_model
from .config import PipelineConfig, file_digest, manifest_hash, read_config
from .episodes import detect_episodes, read_episode_csv, score_seconds, write_episode_csv
from .evaluation import (
    ablate_sensors,
    featurize,
    losocv,
    score_chews,
    score_rows,
    train_fold,
    write_scores_csv,
)
from .features import SIGNALS, read_feature_csv, write_feature_csv
from .peaks import Peak, find_prominent_peaks
from .periodic import (
    CANDIDATE_HEADER,
    CANDIDATE_KINDS,
    CandidateWindow,
    read_candidate_csv,
    segment,
    write_candidate_csv,
)
from .records import (
    GAP_CDF_HEADER,
    IntervalKind,
    LabeledInterval,
    Session,
    ingest_sensor_csv,
    inter_sequence_gap_cdf,
    read_label_csv,
    write_label_csv,
    write_sensor_csv,
)
from .signals import derive, read_derived_csv, write_derived_csv
from .synthetic import generate, read_scenario
from .tables import read_table, transpose, write_table

PEAK_HEADER = ("t_ms", "height", "prominence")
PEAK_KINDS = "mff"
PREDICTION_HEADER = (*CANDIDATE_HEADER, "probability", "positive")
PREDICTION_KINDS = CANDIDATE_KINDS + "fi"


class StageError(RuntimeError):
    pass


def _atomic(path: Path, writer, *args) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp, *args)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Recorder:
    """The files one command reads and writes, in its output directory ``out``."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def read(self, path: Path, producer: str | None, reader, *args):
        """``reader(path, *args)``; ``producer`` is the command that writes
        ``path``, or None for a file the user supplies."""
        if not path.exists():
            if producer is None:
                raise StageError(f"input file {path} does not exist")
            raise StageError(f"missing artifact {path}; run `chewdet {producer}` first")
        self.inputs.append(path)
        return reader(path, *args)

    def write(self, name: str, writer, *args) -> None:
        """``writer(tmp, *args)``, then rename ``tmp`` to ``out/name``."""
        path = self.out / name
        _atomic(path, writer, *args)
        self.outputs.append(path)


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _append_manifest(rec: Recorder, command: str, cfg: PipelineConfig) -> None:
    items: list[tuple[str, str]] = [("command", command), ("tool", f"chewdet {__version__}")]
    items.extend(cfg.manifest_items())
    for p in sorted(set(rec.inputs)):
        items.append((f"input.{p.name}", file_digest(p)))
    for p in sorted(rec.outputs):
        items.append((f"output.{p.name}", file_digest(p)))
    items.append(("entry_hash", manifest_hash(items)))
    block = "\n".join(f"{k} = {v}" for k, v in items) + "\n\n"
    manifest = rec.out / "manifest.txt"
    existing = manifest.read_text(encoding="utf-8") if manifest.exists() else ""
    _atomic(manifest, _write_text, existing + block)


def _write_peaks_csv(path: str, pks: list[Peak]) -> None:
    write_table(path, PEAK_HEADER, PEAK_KINDS, transpose(pks, len(PEAK_KINDS)))


def _read_peaks_csv(path: Path) -> list[Peak]:
    return read_table(path, PEAK_HEADER, PEAK_KINDS).rows(Peak)


def _write_predictions_csv(path: str, judged) -> None:
    rows = ((*astuple(cand), proba, positive) for cand, positive, proba in judged)
    write_table(path, PREDICTION_HEADER, PREDICTION_KINDS, transpose(rows, len(PREDICTION_KINDS)))


def _judged(*row) -> tuple[CandidateWindow, bool, float]:
    if row[7] not in (0, 1):
        raise ValueError(f"positive must be 0 or 1, got {row[7]}")
    return CandidateWindow(*row[:6]), row[7] == 1, row[6]


def _read_predictions_csv(path: Path) -> list[tuple[CandidateWindow, bool, float]]:
    return read_table(path, PREDICTION_HEADER, PREDICTION_KINDS).rows(_judged)


def _warn_if_constant(model, path: Path) -> None:
    if not model.trees:
        print(f"chewdet: warning: model {path} has no trees; it is constant and gives "
              "every candidate the same probability", file=sys.stderr)


def _chews(labels: list[LabeledInterval], pid: str) -> list[LabeledInterval]:
    return [iv for iv in labels if iv.participant == pid and iv.kind is IntervalKind.CHEW]


def _read_log(rec: Recorder, path: Path, producer: str | None, pid: str, cfg: PipelineConfig) -> Session:
    # A log sampled at another rate than the config's shows in the gap count.
    session = rec.read(path, producer, ingest_sensor_csv, pid, cfg.sample_rate_hz)
    g = session.gaps
    print(f"{pid}: {len(session)} frames, gaps={g.count} (max {g.max_gap_s:.3f} s), rejected_rows={g.rejected_rows}")
    return session


def _participants(args) -> list[str]:
    pids = args.participants.split(",")
    if "" in pids:
        raise StageError(f"--participants {args.participants!r} names an empty participant")
    repeated = sorted({pid for pid in pids if pids.count(pid) > 1})
    if repeated:
        raise StageError(f"--participants names {repeated} more than once")
    return pids


def _load_sessions(args, cfg: PipelineConfig, rec: Recorder) -> list[Session]:
    data_dir = Path(args.data)
    sensor_files = {p.stem[len("sensors_"):]: p for p in sorted(data_dir.glob("sensors_*.csv"))}
    if not sensor_files:
        raise StageError(f"no sensors_*.csv files in {data_dir}; run `chewdet synth` first")
    wanted = _participants(args) if args.participants is not None else list(sensor_files)
    missing = [pid for pid in wanted if pid not in sensor_files]
    if missing:
        raise StageError(f"no sensors_<id>.csv in {data_dir} for participants {missing}")
    labels = [iv for f in sorted(data_dir.glob("labels*.csv")) for iv in rec.read(f, "synth", read_label_csv)]
    return [
        _read_log(rec, path, "synth", pid, cfg).with_labels(_chews(labels, pid))
        for pid, path in sensor_files.items()
        if pid in wanted
    ]


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: PipelineConfig, rec: Recorder) -> None:
    spec = rec.read(Path(args.scenario), None, read_scenario)
    if args.participant:
        spec = replace(spec, participant=args.participant)
    session, labels = generate(spec)
    rec.write(f"sensors_{spec.participant}.csv", write_sensor_csv, session)
    rec.write(f"labels_{spec.participant}.csv", write_label_csv, labels)
    print(f"wrote {len(session)} frames, {len(labels)} chew labels for {spec.participant}")


def _ingest(args, cfg: PipelineConfig, rec: Recorder) -> Session:
    if args.input:
        return _read_log(rec, Path(args.input), None, args.participant, cfg)
    return _read_log(rec, rec.out / f"sensors_{args.participant}.csv", "synth", args.participant, cfg)


def cmd_ingest(args, cfg: PipelineConfig, rec: Recorder) -> None:
    rec.write(f"ingested_{args.participant}.csv", write_sensor_csv, _ingest(args, cfg, rec))


def cmd_derive(args, cfg: PipelineConfig, rec: Recorder) -> None:
    rec.write(f"derived_{args.participant}.csv", write_derived_csv, derive(_ingest(args, cfg, rec)))


def cmd_peaks(args, cfg: PipelineConfig, rec: Recorder) -> None:
    trace = rec.read(rec.out / f"derived_{args.participant}.csv", "derive", read_derived_csv)
    pks = find_prominent_peaks(trace.prox, trace.t, cfg.min_prominence)
    rec.write(f"peaks_{args.participant}.csv", _write_peaks_csv, pks)
    print(f"{args.participant}: {len(pks)} prominent peaks")


def cmd_segment(args, cfg: PipelineConfig, rec: Recorder) -> None:
    pks = rec.read(rec.out / f"peaks_{args.participant}.csv", "peaks", _read_peaks_csv)
    cands = segment(pks, cfg.sweep(), cfg.min_len)
    rec.write(f"candidates_{args.participant}.csv", write_candidate_csv, cands)
    print(f"{args.participant}: {len(cands)} candidate subsequences")


def cmd_featurize(args, cfg: PipelineConfig, rec: Recorder) -> None:
    pid = args.participant
    trace = rec.read(rec.out / f"derived_{pid}.csv", "derive", read_derived_csv)
    cands = rec.read(rec.out / f"candidates_{pid}.csv", "segment", read_candidate_csv)
    label_file = rec.out / f"labels_{pid}.csv"
    chews = None
    if label_file.exists():
        chews = _chews(rec.read(label_file, "synth", read_label_csv), pid)
    sensors = args.sensors.split(",") if args.sensors is not None else SIGNALS
    table = featurize(trace, cands, pid, chews, cfg, sensors)
    rec.write(f"features_{pid}.csv", write_feature_csv, table)
    print(f"{pid}: {len(table)} x {len(table.names)} feature matrix")


def cmd_train(args, cfg: PipelineConfig, rec: Recorder) -> None:
    pids = _participants(args)
    tables = [rec.read(rec.out / f"features_{pid}.csv", "featurize", read_feature_csv) for pid in pids]
    model = train_fold(tables, cfg.boost())
    rec.write("model.txt", save_model, model)
    _warn_if_constant(model, rec.out / "model.txt")
    print(f"trained on {sum(len(t) for t in tables)} candidates from {len(pids)} participant(s)")


def cmd_predict(args, cfg: PipelineConfig, rec: Recorder) -> None:
    model = rec.read(rec.out / "model.txt", "train", load_model)
    _warn_if_constant(model, rec.out / "model.txt")
    table = rec.read(rec.out / f"features_{args.participant}.csv", "featurize", read_feature_csv)
    judged = classify_candidates(model, table.candidates(), table.X, cfg.threshold, table.names)
    rec.write(f"predictions_{args.participant}.csv", _write_predictions_csv, judged)
    n_pos = sum(1 for _, positive, _ in judged if positive)
    print(f"{args.participant}: {n_pos}/{len(judged)} candidates positive")


def cmd_episodes(args, cfg: PipelineConfig, rec: Recorder) -> None:
    pid = args.participant
    judged = rec.read(rec.out / f"predictions_{pid}.csv", "predict", _read_predictions_csv)
    positives = [cand for cand, positive, _ in judged if positive]
    scores, episodes = detect_episodes(positives, cfg.dbscan(), cfg.delta, pid)
    rec.write(f"episodes_{pid}.csv", write_episode_csv, episodes, scores)
    print(f"{pid}: {len(episodes)} predicted episodes")


def cmd_evaluate(args, cfg: PipelineConfig, rec: Recorder) -> None:
    pid = args.participant
    judged = rec.read(rec.out / f"predictions_{pid}.csv", "predict", _read_predictions_csv)
    positives = [cand for cand, positive, _ in judged if positive]
    episodes = rec.read(rec.out / f"episodes_{pid}.csv", "episodes", read_episode_csv)
    label_file = Path(args.labels) if args.labels else rec.out / f"labels_{pid}.csv"
    chews = _chews(rec.read(label_file, None if args.labels else "synth", read_label_csv), pid)
    if not chews:
        raise StageError(f"labels file {label_file} holds no chew of participant {pid}")
    flags = () if judged else ("no_candidates",)
    score = score_chews(pid, score_seconds(positives), episodes, chews, cfg, flags)
    for _, level, m, _ in score_rows([score]):
        line = f"{pid} {level:<8} precision={m.precision:.3f} recall={m.recall:.3f} f1={m.f1:.3f}"
        print(f"{line}  {','.join(flags)}".rstrip())
    rec.write(f"report_{pid}.csv", write_scores_csv, [score])


def cmd_losocv(args, cfg: PipelineConfig, rec: Recorder) -> None:
    report = losocv(_load_sessions(args, cfg, rec), cfg=cfg)
    rec.write("report.csv", write_scores_csv, report.entries())
    rec.write("report.txt", _write_text, report.to_text() + "\n")
    print(report.to_text())


def cmd_ablate(args, cfg: PipelineConfig, rec: Recorder) -> None:
    sensors = tuple(args.sensors.split(","))
    report = ablate_sensors(_load_sessions(args, cfg, rec), sensors, cfg=cfg)
    rec.write(f"report_ablate_{'-'.join(sensors)}.csv", write_scores_csv, report.entries())
    print(report.to_text())


def cmd_gap_cdf(args, cfg: PipelineConfig, rec: Recorder) -> None:
    labels = rec.read(Path(args.labels), None, read_label_csv)
    intervals = [iv for iv in labels if iv.kind is IntervalKind.CHEW]
    if args.participant:
        intervals = [iv for iv in intervals if iv.participant == args.participant]
    cdf = inter_sequence_gap_cdf(intervals)
    rec.write("cdf.csv", write_table, GAP_CDF_HEADER, "ff", transpose(cdf, 2))
    print(f"gap CDF over {len(cdf)} distinct values")


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------

# An option is (flag, required[, help]).  The bodies look their readers and
# writers up in this module when they run, so a name patched here takes effect.
_P = ("--participant", True)
COMMANDS = (
    ("synth", "generate a synthetic session from a scenario file", cmd_synth,
     [("--scenario", True), ("--participant", False)]),
    ("ingest", "validate a sensor CSV and report gaps", cmd_ingest, [_P, ("--input", True)]),
    ("derive", "compute the four analysis signals", cmd_derive, [_P, ("--input", False)]),
    ("peaks", "find prominent proximity peaks", cmd_peaks, [_P]),
    ("segment", "periodic-subsequence candidates from peaks", cmd_segment, [_P]),
    ("featurize", "per-candidate feature matrix", cmd_featurize,
     [_P, ("--sensors", False, "comma list, e.g. prox,ambient")]),
    ("train", "train the chew classifier", cmd_train,
     [("--participants", True, "comma list of feature files to pool")]),
    ("predict", "classify candidates", cmd_predict, [_P]),
    ("episodes", "cluster positives into episodes", cmd_episodes, [_P]),
    ("evaluate", "two-level metrics for one participant", cmd_evaluate, [_P, ("--labels", False)]),
    ("losocv", "leave-one-subject-out cross-validation", cmd_losocv,
     [("--data", True, "directory of sensors_*.csv + labels*.csv"), ("--participants", False)]),
    ("ablate", "LOSOCV on a sensor subset", cmd_ablate,
     [("--data", True), ("--participants", False), ("--sensors", True)]),
    ("gap-cdf", "CDF of gaps between chewing sequences", cmd_gap_cdf,
     [("--labels", True), ("--participant", False)]),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chewdet",
        description="Chewing-sequence and eating-episode detection pipeline",
    )
    parser.add_argument("--version", action="version", version=f"chewdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, body, options in COMMANDS:
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default="out", help="artifact directory")
        for flag, required, *text in options:
            p.add_argument(flag, required=required, help=text[0] if text else None)
        p.set_defaults(func=body)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rec = Recorder(Path(args.out))
        cfg = rec.read(Path(args.config), None, read_config) if args.config else PipelineConfig()
        rec.out.mkdir(parents=True, exist_ok=True)
        args.func(args, cfg, rec)
        _append_manifest(rec, args.command, cfg)
    except (ValueError, StageError, OSError, MemoryError, OverflowError) as exc:
        print(f"chewdet {args.command}: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
