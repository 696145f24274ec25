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

Every command appends its configuration and input/output digests to
``manifest.txt`` in the output directory; identical command sequences with
identical inputs produce byte-identical artifacts and manifests.  Writes
are atomic (temp file + rename), and errors exit nonzero.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .boosting import classify_candidates, load_model, save_model
from .config import (
    PipelineConfig,
    file_digest,
    manifest_hash,
    read_config,
    with_overrides,
)
from .episodes import (
    cluster,
    episodes_from_clusters,
    read_episode_csv,
    score_seconds,
    write_episode_csv,
)
from .evaluation import (
    ablate_sensors,
    losocv,
    score_chews,
    train_fold,
    write_report_csv,
    write_scores_csv,
)
from .features import extract_table, local_hour, read_feature_csv, write_feature_csv
from .peaks import Peak, find_prominent_peaks
from .periodic import (
    CANDIDATE_HEADER,
    CANDIDATE_KINDS,
    CandidateWindow,
    candidate_row,
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
from .tables import read_table, write_table

PEAK_HEADER = ("t_ms", "height", "prominence")
PEAK_KINDS = "mff"
PREDICTION_HEADER = (*CANDIDATE_HEADER, "probability", "positive")
PREDICTION_KINDS = CANDIDATE_KINDS + "fi"

# artifact stem -> command that produces it
_PRODUCERS = {
    "sensors": "synth",
    "ingested": "ingest",
    "derived": "derive",
    "peaks": "peaks",
    "candidates": "segment",
    "features": "featurize",
    "model": "train",
    "predictions": "predict",
    "episodes": "episodes",
    "labels": "synth",
}


class StageError(RuntimeError):
    pass


def _require(path: Path, stem: str) -> Path:
    if not path.exists():
        producer = _PRODUCERS.get(stem, "?")
        raise StageError(f"missing artifact {path}; run `chewdet {producer}` first")
    return path


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


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _append_manifest(out: Path, command: str, cfg: PipelineConfig, inputs: list[Path], outputs: list[Path]) -> None:
    items: list[tuple[str, str]] = [("command", command), ("tool", f"chewdet {__version__}")]
    items.extend(cfg.manifest_items())
    for p in sorted(inputs):
        items.append((f"input.{p.name}", file_digest(p)))
    for p in sorted(outputs):
        items.append((f"output.{p.name}", file_digest(p)))
    items.append(("entry_hash", manifest_hash(items)))
    block = "\n".join(f"{k} = {v}" for k, v in items) + "\n\n"
    manifest = out / "manifest.txt"
    existing = manifest.read_text(encoding="utf-8") if manifest.exists() else ""
    _atomic(manifest, _write_text, existing + block)


def _load_config(args) -> PipelineConfig:
    cfg = read_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    for name in ("seed", "threshold", "delta"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return with_overrides(cfg, **overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_peaks_csv(path: str, pks: list[Peak]) -> None:
    write_table(path, PEAK_HEADER, PEAK_KINDS, ((p.t, p.height, p.prominence) for p in pks))


def _read_peaks_csv(path: Path) -> list[Peak]:
    return [Peak(*row) for row in read_table(path, PEAK_HEADER, PEAK_KINDS).rows()]


def _write_predictions_csv(path: str, judged) -> None:
    rows = ((*candidate_row(cand), proba, positive) for cand, positive, proba in judged)
    write_table(path, PREDICTION_HEADER, PREDICTION_KINDS, rows)


def _read_predictions_csv(path: Path) -> list[tuple[CandidateWindow, bool, float]]:
    return [
        (CandidateWindow(*row[:6]), bool(row[7]), row[6])
        for row in read_table(path, PREDICTION_HEADER, PREDICTION_KINDS).rows()
    ]


def _warn_if_constant(model, path: Path) -> None:
    if not model.trees:
        print(
            f"chewdet: warning: model {path} has no trees; it is constant and gives "
            "every candidate the same probability",
            file=sys.stderr,
        )


def _chews(labels: list[LabeledInterval], pid: str) -> list[LabeledInterval]:
    return [iv for iv in labels if iv.participant == pid and iv.kind is IntervalKind.CHEW]


def _load_sessions(data_dir: Path, participants: list[str] | None) -> list[Session]:
    sensor_files = sorted(data_dir.glob("sensors_*.csv"))
    if not sensor_files:
        raise StageError(f"no sensors_*.csv files in {data_dir}; run `chewdet synth` first")
    labels: list[LabeledInterval] = []
    for label_file in sorted(data_dir.glob("labels*.csv")):
        labels.extend(read_label_csv(label_file))
    sessions = []
    for path in sensor_files:
        pid = path.stem[len("sensors_"):]
        if participants and pid not in participants:
            continue
        session = ingest_sensor_csv(path, participant=pid)
        sessions.append(session.with_labels(_chews(labels, pid)))
    if not sessions:
        raise StageError(f"no sessions matched participants {participants}")
    return sessions


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    spec = read_scenario(Path(args.scenario))
    if args.participant:
        spec = type(spec)(**{**spec.__dict__, "participant": args.participant})
    if args.seed is not None:
        spec = type(spec)(**{**spec.__dict__, "seed": args.seed})
    session, labels = generate(spec)
    sensors = out / f"sensors_{spec.participant}.csv"
    label_file = out / f"labels_{spec.participant}.csv"
    _atomic(sensors, write_sensor_csv, session)
    _atomic(label_file, write_label_csv, labels)
    print(f"wrote {len(session)} frames, {len(labels)} chew labels for {spec.participant}")
    return [sensors, label_file]


def cmd_ingest(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    src = _require(Path(args.input), "sensors")
    session = ingest_sensor_csv(src, participant=args.participant)
    dst = out / f"ingested_{args.participant}.csv"
    _atomic(dst, write_sensor_csv, session)
    print(
        f"{args.participant}: {len(session)} frames, gaps={session.gaps.count} "
        f"(max {session.gaps.max_gap_s:.3f} s), rejected_rows={session.gaps.rejected_rows}"
    )
    return [dst]


def cmd_derive(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    if args.input:
        src = Path(args.input)
        if not src.exists():
            raise StageError(f"input file {src} does not exist")
    else:
        src = out / f"sensors_{args.participant}.csv"
        if not src.exists():
            src = out / f"ingested_{args.participant}.csv"
        _require(src, "sensors")
    session = ingest_sensor_csv(src, participant=args.participant)
    trace = derive(session)
    dst = out / f"derived_{args.participant}.csv"
    _atomic(dst, write_derived_csv, trace)
    return [dst]


def cmd_peaks(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    src = _require(out / f"derived_{args.participant}.csv", "derived")
    trace = read_derived_csv(src)
    pks = find_prominent_peaks(trace.prox, trace.t, cfg.min_prominence)
    dst = out / f"peaks_{args.participant}.csv"
    _atomic(dst, _write_peaks_csv, pks)
    print(f"{args.participant}: {len(pks)} prominent peaks")
    return [dst]


def cmd_segment(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    src = _require(out / f"peaks_{args.participant}.csv", "peaks")
    pks = _read_peaks_csv(src)
    cands = segment(pks, cfg.sweep(), cfg.min_len)
    dst = out / f"candidates_{args.participant}.csv"
    _atomic(dst, write_candidate_csv, cands)
    print(f"{args.participant}: {len(cands)} candidate subsequences")
    return [dst]


def cmd_featurize(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    derived = _require(out / f"derived_{args.participant}.csv", "derived")
    candidates = _require(out / f"candidates_{args.participant}.csv", "candidates")
    trace = read_derived_csv(derived)
    cands = read_candidate_csv(candidates)
    label_file = out / f"labels_{args.participant}.csv"
    chews = None
    if label_file.exists():
        chews = _chews(read_label_csv(label_file), args.participant)
    sensors = tuple(args.sensors.split(",")) if args.sensors else None
    table = extract_table(
        trace,
        cands,
        local_hour(cfg.tz_offset_s),
        args.participant,
        chews=chews,
        signals=sensors or ("prox", "ambient", "lfa", "energy"),
        min_prominence=cfg.min_prominence,
        sample_rate_hz=cfg.sample_rate_hz,
        label_min_overlap=cfg.candidate_label_min_overlap,
    )
    dst = out / f"features_{args.participant}.csv"
    _atomic(dst, write_feature_csv, table)
    print(f"{args.participant}: {len(table)} x {len(table.names)} feature matrix")
    return [dst]


def cmd_train(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    pids = args.participants.split(",")
    tables = []
    for pid in pids:
        src = _require(out / f"features_{pid}.csv", "features")
        tables.append(read_feature_csv(src))
    model = train_fold(tables, cfg.boost())
    dst = out / "model.txt"
    _atomic(dst, save_model, model)
    _warn_if_constant(model, dst)
    print(f"trained on {sum(len(t) for t in tables)} candidates from {len(pids)} participant(s)")
    return [dst]


def cmd_predict(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    model_file = _require(out / "model.txt", "model")
    features = _require(out / f"features_{args.participant}.csv", "features")
    model = load_model(model_file)
    _warn_if_constant(model, model_file)
    table = read_feature_csv(features)
    judged = classify_candidates(model, table.candidates(), table.X, cfg.threshold, table.names)
    dst = out / f"predictions_{args.participant}.csv"
    _atomic(dst, _write_predictions_csv, judged)
    n_pos = sum(1 for _, positive, _ in judged if positive)
    print(f"{args.participant}: {n_pos}/{len(judged)} candidates positive")
    return [dst]


def cmd_episodes(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    src = _require(out / f"predictions_{args.participant}.csv", "predictions")
    judged = _read_predictions_csv(src)
    positives = [cand for cand, positive, _ in judged if positive]
    scores = score_seconds(positives)
    clusters = cluster(scores, cfg.dbscan())
    episodes = episodes_from_clusters(clusters, cfg.delta, args.participant)
    dst = out / f"episodes_{args.participant}.csv"
    _atomic(dst, write_episode_csv, episodes, scores)
    print(f"{args.participant}: {len(episodes)} predicted episodes")
    return [dst]


def cmd_evaluate(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    predictions = _require(out / f"predictions_{args.participant}.csv", "predictions")
    episode_file = _require(out / f"episodes_{args.participant}.csv", "episodes")
    label_file = _require(
        Path(args.labels) if args.labels else out / f"labels_{args.participant}.csv", "labels"
    )
    judged = _read_predictions_csv(predictions)
    score = score_chews(
        args.participant,
        score_seconds([cand for cand, positive, _ in judged if positive]),
        read_episode_csv(episode_file),
        _chews(read_label_csv(label_file), args.participant),
        cfg,
    )
    for level, m in score.levels():
        print(
            f"{args.participant} {level:<8} precision={m.precision:.3f} "
            f"recall={m.recall:.3f} f1={m.f1:.3f}"
        )
    dst = out / f"report_{args.participant}.csv"
    _atomic(dst, write_scores_csv, [score])
    return [dst]


def cmd_losocv(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    participants = args.participants.split(",") if args.participants else None
    sessions = _load_sessions(Path(args.data), participants)
    report = losocv(sessions, cfg=cfg)
    dst = out / "report.csv"
    _atomic(dst, write_report_csv, report)
    txt = out / "report.txt"
    _atomic(txt, _write_text, report.to_text() + "\n")
    print(report.to_text())
    return [dst, txt]


def cmd_ablate(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    participants = args.participants.split(",") if args.participants else None
    sensors = tuple(args.sensors.split(","))
    sessions = _load_sessions(Path(args.data), participants)
    report = ablate_sensors(sessions, sensors, cfg=cfg)
    tag = "-".join(sensors)
    dst = out / f"report_ablate_{tag}.csv"
    _atomic(dst, write_report_csv, report)
    print(report.to_text())
    return [dst]


def cmd_gap_cdf(args, cfg: PipelineConfig, out: Path) -> list[Path]:
    label_file = _require(Path(args.labels), "labels")
    intervals = [iv for iv in read_label_csv(label_file) if iv.kind is IntervalKind.CHEW]
    if args.participant:
        intervals = [iv for iv in intervals if iv.participant == args.participant]
    cdf = inter_sequence_gap_cdf(intervals)
    dst = out / "cdf.csv"
    _atomic(dst, write_table, GAP_CDF_HEADER, "ff", cdf)
    print(f"gap CDF over {len(cdf)} distinct values")
    return [dst]


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chewdet",
        description="Chewing-sequence and eating-episode detection pipeline",
    )
    parser.add_argument("--version", action="version", version=f"chewdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, participant: bool = True) -> None:
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default="out", help="artifact directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        if participant:
            p.add_argument("--participant", required=True)

    p = sub.add_parser("synth", help="generate a synthetic session from a scenario file")
    common(p, participant=False)
    p.add_argument("--scenario", required=True)
    p.add_argument("--participant", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a sensor CSV and report gaps")
    common(p)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("derive", help="compute the four analysis signals")
    common(p)
    p.add_argument("--input", default=None)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("peaks", help="find prominent proximity peaks")
    common(p)
    p.set_defaults(func=cmd_peaks)

    p = sub.add_parser("segment", help="periodic-subsequence candidates from peaks")
    common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("featurize", help="per-candidate feature matrix")
    common(p)
    p.add_argument("--sensors", default=None, help="comma list, e.g. prox,ambient")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train the chew classifier")
    common(p, participant=False)
    p.add_argument("--participants", required=True, help="comma list of feature files to pool")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify candidates")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("episodes", help="cluster positives into episodes")
    common(p)
    p.set_defaults(func=cmd_episodes)

    p = sub.add_parser("evaluate", help="two-level metrics for one participant")
    common(p)
    p.add_argument("--labels", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("losocv", help="leave-one-subject-out cross-validation")
    common(p, participant=False)
    p.add_argument("--data", required=True, help="directory of sensors_*.csv + labels*.csv")
    p.add_argument("--participants", default=None)
    p.set_defaults(func=cmd_losocv)

    p = sub.add_parser("ablate", help="LOSOCV on a sensor subset")
    common(p, participant=False)
    p.add_argument("--data", required=True)
    p.add_argument("--participants", default=None)
    p.add_argument("--sensors", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gap-cdf", help="CDF of gaps between chewing sequences")
    common(p, participant=False)
    p.add_argument("--labels", required=True)
    p.add_argument("--participant", default=None)
    p.set_defaults(func=cmd_gap_cdf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        out = _out_dir(args)
        inputs = []
        for attr in ("input", "scenario", "labels", "config"):
            value = getattr(args, attr, None)
            if value and Path(value).exists():
                inputs.append(Path(value))
        if getattr(args, "data", None):
            inputs.extend(sorted(Path(args.data).glob("*.csv")))
        outputs = args.func(args, cfg, out)
        _append_manifest(out, args.command, cfg, inputs, outputs)
    except (ValueError, StageError, OSError) as exc:
        print(f"chewdet {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
