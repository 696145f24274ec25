"""The four benchmark workloads.

Each workload builds its inputs from the run's seed in ``setup`` (which
the runner repeats and times), runs one complete pass in ``run`` (timed),
and checks the pass's outputs in ``check`` (untimed).  The scenario
recipes are copies of the ones in the test suite, so that editing a test
never changes what the benchmark measures.

* ``day2h``: the deployment path, all in memory, set up as acceptance
  criterion 9: a model is trained in set-up on a separately seeded noisy
  two-hour day, and each pass runs a held-out noisy two-hour day through
  derive, peaks, segment, featurize, predict and scoring.  Peak detection
  and featurization do most of the work.
* ``losocv_grid``: leave-one-subject-out cross-validation over three noisy
  participants with a two-point DBSCAN grid, so the nested grid selection
  retrains a model for every (grid point, inner fold).  The trainer does
  most of the work.
* ``cli_roundtrip``: the nine-command CLI round trip on a 40-minute day,
  each pass in a fresh directory.  CSV writes, CSV reads and manifest
  digests do most of the work; the classifier is trained on a separately
  seeded participant whose feature CSV is written in set-up.
* ``adversarial``: a drifting-baseline ramp on which peak prominence is
  quadratic, and a session of paired chews whose tied optimal chains make
  segmentation emit 2**pairs candidates over four distinct spans per bout.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from chewdet import boosting, cli, episodes, evaluation, features, periodic, peaks, signals
from chewdet.config import PipelineConfig, read_config
from chewdet.episodes import DbscanConfig
from chewdet.records import IntervalKind, LabeledInterval, Session
from chewdet.synthetic import DEFAULT_START_EPOCH, Confounder, MealSpec, ScenarioSpec, generate

OUT = Path(__file__).resolve().parent / "out"
NOISE = 1.5
# Acceptance criteria 9 (one held-out day) and 10 (LOSOCV): on noisy data
# the episode F1 stays >= 0.8.  The floor is checked on day2h and
# losocv_grid, the two workloads that reproduce those set-ups.
EPISODE_F1_FLOOR = 0.8


@dataclass
class Verdict:
    digest: str
    f1_second: float
    f1_episode: float
    problems: list[str] = field(default_factory=list)


def _seeds(seed: int, k: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(k)]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        elif not isinstance(part, bytes):
            part = np.ascontiguousarray(part, dtype=float).tobytes()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _peak_rows(pks) -> np.ndarray:
    return np.array([(p.t, p.height, p.prominence) for p in pks], dtype=float)


def _candidate_rows(cands) -> np.ndarray:
    return np.array(
        [(c.c1, c.c2, c.p_min, c.p_max, c.epsilon, c.length) for c in cands], dtype=float
    )


def _interval_rows(intervals) -> np.ndarray:
    return np.array([(iv.start, iv.end) for iv in intervals], dtype=float)


def _session_arrays(session: Session) -> tuple:
    return (session.t, session.prox, session.ambient, session.quat, session.accel)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext(None)


def _floor_problems(f1_episode: float) -> list[str]:
    if f1_episode < EPISODE_F1_FLOOR:
        return [f"episode F1 {f1_episode:.3f} below the floor {EPISODE_F1_FLOOR}"]
    return []


# ---------------------------------------------------------------------------
# Scenario recipes.
# ---------------------------------------------------------------------------


def _noisy(duration, meals, confounders, seed, pid, noise) -> ScenarioSpec:
    return ScenarioSpec(
        duration=duration,
        meals=tuple(meals),
        confounders=tuple(confounders),
        noise_prox=noise,
        noise_ambient=4.0 * noise,
        noise_lfa_deg=0.5 * noise,
        noise_accel=0.02 * noise,
        seed=seed,
        participant=pid,
    )


def day_scenario(pid: str, seed: int, noise: float) -> ScenarioSpec:
    """Three meals across two hours with confounders (acceptance day)."""
    meal = dict(n_sequences=4, seq_duration_s=30.0, seq_gap_s=18.0)
    return _noisy(
        7200.0,
        (
            MealSpec(start=600.0, chew_rate_hz=1.5, **meal),
            MealSpec(start=3200.0, chew_rate_hz=1.25, **meal),
            MealSpec(start=5800.0, chew_rate_hz=1.8, **meal),
        ),
        [Confounder("talking", s, d) for s, d in (
            (1200.0, 30.0), (1400.0, 28.0), (1700.0, 32.0), (2200.0, 26.0),
            (2600.0, 30.0), (4200.0, 28.0), (4600.0, 30.0), (5000.0, 26.0),
        )]
        + [Confounder("walking", 2000.0, 120.0), Confounder("walking", 5400.0, 120.0),
           Confounder("rest", 2900.0, 200.0)],
        seed, pid, noise,
    )


def two_meal_scenario(seed: int, pid: str, noise: float, scale: float = 1.0) -> ScenarioSpec:
    """Two meals plus talking/walking/rest in 40 minutes (test corpus recipe).

    ``scale`` < 1 moves every event start and the duration closer to zero,
    keeping each meal and confounder as long as it was: the same events in
    less idle time.
    """
    meal = dict(n_sequences=3, seq_duration_s=25.0, seq_gap_s=15.0)
    return _noisy(
        2400.0 * scale,
        (
            MealSpec(start=200.0 * scale, chew_rate_hz=1.5, **meal),
            MealSpec(start=1600.0 * scale, chew_rate_hz=1.25, **meal),
        ),
        [Confounder("talking", s * scale, d) for s, d in (
            (600.0, 28.0), (700.0, 25.0), (820.0, 30.0), (1080.0, 26.0), (1250.0, 28.0),
        )]
        + [Confounder("walking", 900.0 * scale, 100.0), Confounder("rest", 1400.0 * scale, 100.0)],
        seed, pid, noise,
    )


def scenario_text(spec: ScenarioSpec) -> str:
    """Render a spec in the `chewdet synth --scenario` file format."""
    lines = [f"participant = {spec.participant}"]
    for key in ("duration", "seed", "noise_prox", "noise_ambient", "noise_lfa_deg", "noise_accel"):
        lines.append(f"{key} = {getattr(spec, key)!r}")
    for m in spec.meals:
        lines.append(
            f"meal = start={m.start!r} sequences={m.n_sequences} rate={m.chew_rate_hz!r} "
            f"bite={m.bite_period_s!r} seq_dur={m.seq_duration_s!r} gap={m.seq_gap_s!r}"
        )
    for c in spec.confounders:
        lines.append(f"confounder = kind={c.kind} start={c.start!r} duration={c.duration!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class _InMemory:
    """A workload whose passes read the set-up state and leave no files."""

    def new_pass(self, state):
        return state

    def close(self, state) -> None:
        pass


class Day2h(_InMemory):
    """Deployment path on one held-out noisy day, all in memory."""

    cfg = PipelineConfig(n_rounds=80, subsample=0.8, max_depth=3, seed=7)

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny
        if tiny:
            self.cfg = PipelineConfig(n_rounds=10, subsample=0.8, max_depth=3, seed=7)

    def setup(self, seed: int):
        train_seed, eval_seed = _seeds(seed, 2)
        if self.tiny:
            train_spec = two_meal_scenario(train_seed, "TRAIN", NOISE)
            spec = two_meal_scenario(eval_seed, "EVAL", NOISE, scale=0.5)
        else:
            train_spec = day_scenario("TRAIN", train_seed, NOISE)
            spec = day_scenario("EVAL", eval_seed, NOISE)
        session, _ = generate(spec)
        _, table = evaluation.session_candidates(generate(train_spec)[0], self.cfg)
        model = evaluation.train_fold([table], self.cfg.boost())
        text = boosting.model_to_text(model)
        return SimpleNamespace(
            session=session, model=model, model_text=text, frames=len(session),
            fingerprint=_sha(*_session_arrays(session), text),
        )

    def run(self, state, tracer):
        cfg, session = self.cfg, state.session
        trace = signals.derive(session)
        pks = peaks.find_prominent_peaks(trace.prox, trace.t, cfg.min_prominence)
        cands = periodic.segment(pks, cfg.sweep(), cfg.min_len)
        table = features.extract_table(
            trace, cands, features.local_hour(cfg.tz_offset_s), session.participant,
            chews=session.chew_labels(), min_prominence=cfg.min_prominence,
            sample_rate_hz=cfg.sample_rate_hz, label_min_overlap=cfg.candidate_label_min_overlap,
        )
        scores, predicted = evaluation.predict_session(
            state.model, cands, table, cfg.dbscan(), cfg.threshold, cfg.delta
        )
        return pks, cands, table, predicted, evaluation.score_participant(scores, predicted, session, cfg)

    def check(self, state, out) -> Verdict:
        pks, cands, table, predicted, score = out
        digest = _sha(
            _peak_rows(pks), _candidate_rows(cands), table.X, state.model_text,
            _interval_rows(predicted), repr((score.second, score.episode)),
        )
        return Verdict(digest, score.second.f1, score.episode.f1, _floor_problems(score.episode.f1))


@contextmanager
def _recording(module, attr: str, sink: list):
    """Append every return value of module.attr to sink while active."""
    original = getattr(module, attr)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, original)


class LosocvGrid(_InMemory):
    """LOSOCV over three noisy participants with a two-point DBSCAN grid.

    The corpus is the test suite's noisy three-participant recipe with the
    idle time halved, and the trainer runs 4 rounds instead of quick_config's
    60; both keep one pass to a few seconds.  The grid still makes every
    outer fold retrain one model per (grid point, inner fold).
    """

    cfg = PipelineConfig(n_rounds=4, subsample=0.8, max_depth=2, min_child_weight=0.5, seed=7)

    def __init__(self, tiny: bool) -> None:
        self.scale = 0.35 if tiny else 0.5
        if tiny:
            self.cfg = PipelineConfig(n_rounds=2, subsample=0.8, max_depth=2,
                                      min_child_weight=0.5, seed=7)
        self.grid = (self.cfg.dbscan(), DbscanConfig(eps=20.0, min_pts=10))

    def setup(self, seed: int):
        sessions = [
            generate(two_meal_scenario(s, pid, NOISE, scale=self.scale))[0]
            for s, pid in zip(_seeds(seed, 3), ("N1", "N2", "N3"))
        ]
        return SimpleNamespace(
            sessions=sessions, frames=sum(len(s) for s in sessions),
            fingerprint=_sha(*(a for s in sessions for a in _session_arrays(s))),
        )

    def run(self, state, tracer):
        models: list = []
        prepared: list = []
        with _recording(evaluation, "train_fold", models), \
                _recording(evaluation, "session_candidates", prepared), \
                _span(tracer, "evaluation.losocv") as sp:
            report = evaluation.losocv(state.sessions, dbscan_grid=self.grid, cfg=self.cfg)
        if sp is not None:
            sp.counts["folds"] = len(report.scores)
        return report, models, prepared

    def check(self, state, out) -> Verdict:
        report, models, prepared = out
        # Distinct models only: reusing one model across grid points must
        # not change the digest.
        texts = sorted({boosting.model_to_text(m) for m in models})
        parts = []
        for cands, table in prepared:
            parts += [_candidate_rows(cands), table.X]
        digest = _sha(*parts, *texts, repr(report.to_csv_rows()))
        problems = _floor_problems(report.episode_avg.f1)
        if len(report.scores) != len(state.sessions):
            problems.append(f"{len(report.scores)} folds for {len(state.sessions)} participants")
        return Verdict(digest, report.second_avg.f1, report.episode_avg.f1, problems)


class CliRoundtrip:
    """The README round trip through chewdet.cli.main, in-process."""

    # The default configuration, with fewer boosting rounds so CSV work,
    # not training, dominates the pass.
    config_text = "n_rounds = 20\n"
    commands = (
        ("synth", ["--scenario", "{scenario}"]),
        ("derive", ["--participant", "EVAL"]),
        ("peaks", ["--participant", "EVAL"]),
        ("segment", ["--participant", "EVAL"]),
        ("featurize", ["--participant", "EVAL"]),
        ("train", ["--participants", "TRAIN"]),
        ("predict", ["--participant", "EVAL"]),
        ("episodes", ["--participant", "EVAL"]),
        ("evaluate", ["--participant", "EVAL"]),
    )

    def __init__(self, tiny: bool) -> None:
        self.scale = 0.35 if tiny else 1.0
        self.work = OUT / f"cli-{os.getpid()}"
        self.config = self.work / "run.cfg"
        self.scenario = self.work / "eval.scenario"
        self.template = self.work / "template"
        self.passes = 0

    def setup(self, seed: int):
        train_seed, eval_seed = _seeds(seed, 2)
        self.template.mkdir(parents=True, exist_ok=True)
        self.config.write_text(self.config_text, encoding="utf-8")
        train_session, _ = generate(two_meal_scenario(train_seed, "TRAIN", NOISE, self.scale))
        _, table = evaluation.session_candidates(train_session, read_config(self.config))
        features.write_feature_csv(self.template / "features_TRAIN.csv", table)
        spec = two_meal_scenario(eval_seed, "EVAL", NOISE, self.scale)
        self.scenario.write_text(scenario_text(spec), encoding="utf-8")
        return SimpleNamespace(
            frames=int(round(spec.duration * spec.sample_rate_hz)),
            fingerprint=_sha((self.template / "features_TRAIN.csv").read_bytes(),
                             self.scenario.read_text()),
        )

    def new_pass(self, state):
        self.passes += 1
        out = self.work / f"pass-{self.passes}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        shutil.copy(self.template / "features_TRAIN.csv", out)
        return out

    def run(self, out: Path, tracer):
        codes = []
        sink = io.StringIO()
        with _span(tracer, "cli.pass") as sp:
            for command, extra in self.commands:
                argv = [command, "--out", str(out), "--config", str(self.config)]
                argv += [a.format(scenario=self.scenario) for a in extra]
                with _span(tracer, f"cli.{command}"), redirect_stdout(sink):
                    codes.append(cli.main(argv))
        if sp is not None:
            sp.counts["bytes"] = sum(
                p.stat().st_size for p in out.iterdir() if p.name != "features_TRAIN.csv"
            )
        return out, codes

    def check(self, state, result) -> Verdict:
        out, codes = result
        try:
            problems = [
                f"`chewdet {command}` exited {code}"
                for (command, _), code in zip(self.commands, codes) if code != 0
            ]
            manifest = out / "manifest.txt"
            lines = manifest.read_text().splitlines() if manifest.exists() else []
            entries = sum(1 for line in lines if line.startswith("command = "))
            if entries != len(self.commands):
                problems.append(f"manifest has {entries} entries, expected {len(self.commands)}")
            f1 = {"second": 0.0, "episode": 0.0}
            report = out / "report_EVAL.csv"
            if report.exists():
                for row in report.read_text().splitlines()[1:]:
                    _, level, _, _, value = row.split(",")
                    f1[level] = float(value)
            else:
                problems.append("no report_EVAL.csv")
            files = sorted(p for p in out.iterdir() if p.is_file())
            digest = _sha(*(part for p in files for part in (p.name, p.read_bytes())))
            return Verdict(digest, f1["second"], f1["episode"], problems)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self, state) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Adversarial(_InMemory):
    """Worst cases for peaks and segmentation.

    The ramp prox = c + 0.5 i + 5 [i odd] makes every odd interior sample a
    peak of prominence exactly 4.5 whose left base search runs back to the
    start: quadratic in the ramp length.  The paired session has bouts of
    double peaks two samples apart repeating every 1.3 s; the gaps of 1.2,
    1.3 and 1.4 s all fall in the top sweep band, so each bout of k pairs
    yields 2**k tied optimal chains over 4 distinct (c1, c2) spans.  There
    is no classifier here: every candidate counts as a positive, and the
    F1 scores compare the candidates with the planted bouts.
    """

    cfg = PipelineConfig()
    fs = 20.0
    pair_step = 26  # samples between pairs: 1.3 s
    bout_every_s = 40.0

    def __init__(self, tiny: bool) -> None:
        self.ramp_n = 1000 if tiny else 4000
        self.pairs = 4 if tiny else 7
        self.bouts = 2

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        i = np.arange(self.ramp_n)
        ramp = 0.5 * float(rng.integers(0, 200)) + 0.5 * i + 5.0 * (i % 2)
        ramp_t = i / self.fs
        odd = np.arange(1, self.ramp_n - 1, 2)
        ramp_expected = np.column_stack([ramp_t[odd], ramp[odd], np.full(odd.size, 4.5)])

        n = int((20.0 + self.bouts * self.bout_every_s) * self.fs)
        t = DEFAULT_START_EPOCH + np.arange(n) / self.fs
        prox = 100.0 + rng.normal(0.0, 0.3, n)
        labels, spans = [], set()
        last = self.pair_step * (self.pairs - 1)
        for b in range(self.bouts):
            s = int((10.0 + b * self.bout_every_s) * self.fs) + int(rng.integers(0, 20))
            for j in range(self.pairs):
                prox[s + self.pair_step * j] += rng.uniform(8.0, 16.0)
                prox[s + self.pair_step * j + 2] += rng.uniform(8.0, 16.0)
            labels.append(LabeledInterval(float(t[s]), float(t[s + last + 2]), IntervalKind.CHEW, "ADV"))
            spans |= {(float(t[s + a]), float(t[s + last + b2])) for a in (0, 2) for b2 in (0, 2)}
        half = np.radians(90.0) / 2.0
        quat = np.tile([np.cos(half), np.sin(half), 0.0, 0.0], (n, 1))
        accel = np.tile([0.0, 0.0, 1.0], (n, 1)) + rng.normal(0.0, 0.02, (n, 3))
        session = Session(
            participant="ADV", t=t, prox=prox, ambient=500.0 + rng.normal(0.0, 1.0, n),
            quat=quat, accel=accel, labels=tuple(labels),
        )
        return SimpleNamespace(
            ramp=ramp, ramp_t=ramp_t, ramp_expected=ramp_expected, session=session,
            spans=spans, frames=self.ramp_n + n,
            fingerprint=_sha(ramp, *_session_arrays(session)),
        )

    def run(self, state, tracer):
        cfg, session = self.cfg, state.session
        ramp_peaks = peaks.find_prominent_peaks(state.ramp, state.ramp_t, cfg.min_prominence)
        trace = signals.derive(session)
        pks = peaks.find_prominent_peaks(trace.prox, trace.t, cfg.min_prominence)
        cands = periodic.segment(pks, cfg.sweep(), cfg.min_len)
        table = features.extract_table(
            trace, cands, features.local_hour(cfg.tz_offset_s), session.participant,
            chews=session.chew_labels(), min_prominence=cfg.min_prominence,
            sample_rate_hz=cfg.sample_rate_hz, label_min_overlap=cfg.candidate_label_min_overlap,
        )
        scores = episodes.score_seconds(cands)
        clusters = episodes.cluster(scores, cfg.dbscan())
        predicted = episodes.episodes_from_clusters(clusters, cfg.delta, session.participant)
        score = evaluation.score_participant(scores, predicted, session, cfg)
        return ramp_peaks, pks, cands, table, predicted, score

    def check(self, state, out) -> Verdict:
        ramp_peaks, pks, cands, table, predicted, score = out
        problems = []
        got = _peak_rows(ramp_peaks)
        if not np.array_equal(got, state.ramp_expected):
            problems.append(
                f"ramp: {len(ramp_peaks)} peaks differ from the closed form "
                f"({len(state.ramp_expected)} odd interior samples of prominence 4.5)"
            )
        spans = {(c.c1, c.c2) for c in cands}
        if spans != state.spans:
            problems.append(f"paired stream: distinct spans {sorted(spans)} != {sorted(state.spans)}")
        digest = _sha(
            got, _peak_rows(pks), _candidate_rows(cands), table.X,
            _interval_rows(predicted), repr((score.second, score.episode)),
        )
        return Verdict(digest, score.second.f1, score.episode.f1, problems)


WORKLOADS = {
    "day2h": Day2h,
    "losocv_grid": LosocvGrid,
    "cli_roundtrip": CliRoundtrip,
    "adversarial": Adversarial,
}
