import csv
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chewdet import cli
from chewdet.boosting import BoostConfig, load_model, model_to_text, train
from chewdet.cli import main
from chewdet.config import PipelineConfig, file_digest, read_config
from chewdet.episodes import write_episode_csv
from chewdet.evaluation import predict_session, session_candidates
from chewdet.features import FeatureTable, write_feature_csv
from chewdet.records import (
    IntervalKind,
    LabeledInterval,
    ingest_sensor_csv,
    read_label_csv,
    write_label_csv,
)

SCENARIO = """
duration = 1500
participant = SYN
noise_prox = 0.5
noise_ambient = 2.0
noise_lfa_deg = 0.25
noise_accel = 0.01
meal = start=150 sequences=3 rate=1.5 bite=5 seq_dur=25 gap=15
meal = start=1100 sequences=3 rate=1.25 bite=5 seq_dur=25 gap=15
confounder = kind=talking start=500 duration=28
confounder = kind=talking start=600 duration=25
confounder = kind=talking start=750 duration=30
confounder = kind=talking start=900 duration=26
"""

CONFIG = """
n_rounds = 60
subsample = 0.8
max_depth = 2
min_child_weight = 0.5
seed = 7
"""


# Config fields only a stage after derive reads, each with its error.
BAD_STAGE_FIELDS = [
    ("min_prominence = 0", "min_prominence must be in (0, inf), got 0.0"),
    ("min_prominence = nan", "min_prominence must be in (0, inf), got nan"),
    ("min_len = 0", "min_len must be in [1, inf), got 0"),
    ("delta = -5", "delta must be in (0, inf), got -5.0"),
    ("delta = nan", "delta must be in (0, inf), got nan"),
    ("episode_overlap_threshold = 1.5", "overlap_threshold must be in [0, 1], got 1.5"),
    ("episode_overlap_threshold = nan", "overlap_threshold must be in [0, 1], got nan"),
    ("threshold = nan", "threshold must be in [0, inf], got nan"),
    ("threshold = -0.5", "threshold must be in [0, inf], got -0.5"),
    ("dbscan_eps = nan", "eps must be in (0, inf), got nan"),
    ("gamma = nan", "gamma must be in [0, inf], got nan"),
    ("min_child_weight = nan", "min_child_weight must be in [0, inf), got nan"),
    ("episode_overlap_base = foo", "base must be one of ('truth', 'pred', 'min'), got 'foo'"),
    ("candidate_label_min_overlap = 2", "candidate_label_min_overlap must be in [0, 1], got 2.0"),
    ("candidate_label_min_overlap = nan", "candidate_label_min_overlap must be in [0, 1], got nan"),
]


def write_scenario(tmp_path, text=SCENARIO, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_config(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(CONFIG)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def read_report(path):
    with open(path, newline="") as fh:
        return {(r["participant"], r["level"]): float(r["f1"]) for r in csv.DictReader(fh)}


def run_chain(root):
    """The README round trip in root/run, from root's scenario and config."""
    scenario = write_scenario(root)
    config = write_config(root)
    out = root / "run"
    base = ["--config", config, "--out", out]
    assert run("synth", "--scenario", scenario, *base) == 0
    for command in ("derive", "peaks", "segment", "featurize"):
        assert run(command, "--participant", "SYN", *base) == 0
    assert run("train", "--participants", "SYN", *base) == 0
    for command in ("predict", "episodes", "evaluate"):
        assert run(command, "--participant", "SYN", *base) == 0
    return out


@pytest.fixture()
def full_chain(tmp_path):
    return run_chain(tmp_path)


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """One round trip shared by the tests that copy it before changing it."""
    return run_chain(tmp_path_factory.mktemp("chain"))


class TestFullChain:
    def test_oracle_chain_reaches_perfect_f1(self, full_chain):
        report = read_report(full_chain / "report_SYN.csv")
        assert report[("SYN", "second")] == 1.0
        assert report[("SYN", "episode")] == 1.0

    def test_all_artifacts_present(self, full_chain):
        for name in (
            "sensors_SYN.csv", "labels_SYN.csv", "derived_SYN.csv", "peaks_SYN.csv",
            "candidates_SYN.csv", "features_SYN.csv", "model.txt",
            "predictions_SYN.csv", "episodes_SYN.csv", "report_SYN.csv", "manifest.txt",
        ):
            assert (full_chain / name).exists(), name

    def test_manifest_records_each_command(self, full_chain):
        text = (full_chain / "manifest.txt").read_text()
        for command in ("synth", "derive", "peaks", "segment", "featurize",
                        "train", "predict", "episodes", "evaluate"):
            assert f"command = {command}" in text
        assert "config.delta = 900.0" in text


def manifest_entries(out):
    blocks = (out / "manifest.txt").read_text().strip().split("\n\n")
    return [dict(line.split(" = ", 1) for line in block.splitlines()) for block in blocks]


# The files each command of the README round trip reads, besides --config.
CHAIN_READS = {
    "synth": {"scenario.txt"},
    "derive": {"sensors_SYN.csv"},
    "peaks": {"derived_SYN.csv"},
    "segment": {"peaks_SYN.csv"},
    "featurize": {"derived_SYN.csv", "candidates_SYN.csv", "labels_SYN.csv"},
    "train": {"features_SYN.csv"},
    "predict": {"model.txt", "features_SYN.csv"},
    "episodes": {"predictions_SYN.csv"},
    "evaluate": {"predictions_SYN.csv", "episodes_SYN.csv", "labels_SYN.csv"},
}


class TestLineage:
    def test_each_manifest_entry_digests_every_file_read(self, full_chain, tmp_path):
        entries = manifest_entries(full_chain)
        assert [e["command"] for e in entries] == list(CHAIN_READS)
        for entry in entries:
            inputs = {k[len("input."):]: v for k, v in entry.items() if k.startswith("input.")}
            assert set(inputs) == CHAIN_READS[entry["command"]] | {"config.txt"}, entry["command"]
            for name, digest in inputs.items():
                path = full_chain / name if (full_chain / name).exists() else tmp_path / name
                assert digest == file_digest(path), (entry["command"], name)
            assert any(k.startswith("output.") for k in entry), entry["command"]

    def test_each_manifest_entry_records_the_config_file(self, full_chain, tmp_path):
        expected = dict(read_config(tmp_path / "config.txt").manifest_items())
        for entry in manifest_entries(full_chain):
            config = {k: v for k, v in entry.items() if k.startswith("config.")}
            assert config == expected, entry["command"]
        other = tmp_path / "other"
        assert run("gap-cdf", "--labels", full_chain / "labels_SYN.csv", "--out", other) == 0
        config = {k: v for k, v in manifest_entries(other)[0].items() if k.startswith("config.")}
        assert config == dict(PipelineConfig().manifest_items())

    def test_cli_artifacts_equal_the_in_memory_pipeline(self, full_chain, tmp_path):
        cfg = read_config(tmp_path / "config.txt")
        session = ingest_sensor_csv(full_chain / "sensors_SYN.csv", "SYN")
        session = session.with_labels(read_label_csv(full_chain / "labels_SYN.csv"))
        cands, table = session_candidates(session, cfg)
        model = load_model(full_chain / "model.txt")
        scores, episodes = predict_session(
            model, cands, table, cfg.dbscan(), cfg.threshold, cfg.delta
        )
        assert episodes
        write_feature_csv(tmp_path / "features.csv", table)
        write_episode_csv(tmp_path / "episodes.csv", episodes, scores)
        for mine, cli_file in (("features.csv", "features_SYN.csv"),
                               ("episodes.csv", "episodes_SYN.csv")):
            assert (tmp_path / mine).read_bytes() == (full_chain / cli_file).read_bytes()


# (command, an artifact it reads from --out, the command that writes it)
ARTIFACT_READS = [
    ("peaks", "derived_SYN.csv", "derive"),
    ("segment", "peaks_SYN.csv", "peaks"),
    ("featurize", "derived_SYN.csv", "derive"),
    ("featurize", "candidates_SYN.csv", "segment"),
    ("train", "features_SYN.csv", "featurize"),
    ("predict", "model.txt", "train"),
    ("predict", "features_SYN.csv", "featurize"),
    ("episodes", "predictions_SYN.csv", "predict"),
    ("evaluate", "predictions_SYN.csv", "predict"),
    ("evaluate", "episodes_SYN.csv", "episodes"),
    ("evaluate", "labels_SYN.csv", "synth"),
]

# The flags argparse must ask for when a command is given none.
REQUIRED_FLAGS = {
    "synth": ["--scenario"],
    "ingest": ["--participant", "--input"],
    "derive": ["--participant"],
    "peaks": ["--participant"],
    "segment": ["--participant"],
    "featurize": ["--participant"],
    "train": ["--participants"],
    "predict": ["--participant"],
    "episodes": ["--participant"],
    "evaluate": ["--participant"],
    "losocv": ["--data"],
    "ablate": ["--data", "--sensors"],
    "gap-cdf": ["--labels"],
}


class TestSurface:
    @pytest.mark.parametrize("command, name, producer", ARTIFACT_READS)
    def test_missing_artifact_names_its_producer(self, chain_dir, tmp_path, capsys,
                                                 command, name, producer):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        (out / name).unlink()
        flag = "--participants" if command == "train" else "--participant"
        code = run(command, flag, "SYN", "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"chewdet {command}: error: missing artifact {out / name}; "
                       f"run `chewdet {producer}` first\n")

    @pytest.mark.parametrize("command", list(REQUIRED_FLAGS))
    def test_bare_command_names_its_required_flags(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: " + ", ".join(REQUIRED_FLAGS[command]) in err

    @pytest.mark.parametrize("command, flag, extra", [
        ("ingest", "--input", ["--participant", "SYN"]),
        ("evaluate", "--labels", ["--participant", "SYN"]),
        ("gap-cdf", "--labels", []),
    ])
    def test_missing_file_named_by_a_flag_is_an_input(self, chain_dir, tmp_path, capsys,
                                                      command, flag, extra):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        missing = tmp_path / "absent.csv"
        code = run(command, flag, missing, *extra, "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"chewdet {command}: error: input file {missing} does not exist\n"

    def test_repeated_sensor_refused(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        (out / "features_SYN.csv").unlink()
        assert run("synth", "--scenario", write_scenario(tmp_path), "--participant", "B",
                   "--out", out) == 0
        capsys.readouterr()
        for command, argv in (("featurize", ["--participant", "SYN"]), ("ablate", ["--data", out])):
            assert run(command, *argv, "--sensors", "prox,prox", "--out", out) == 1
            assert capsys.readouterr().err == (f"chewdet {command}: error: signal 'prox' is "
                                               "named more than once in ('prox', 'prox')\n")
        assert not (out / "features_SYN.csv").exists()
        assert not (out / "report_ablate_prox-prox.csv").exists()

    def test_empty_sensor_list_refused(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        (out / "features_SYN.csv").unlink()
        assert run("featurize", "--participant", "SYN", "--sensors", "", "--out", out) == 1
        assert capsys.readouterr().err == ("chewdet featurize: error: unknown signal '', expected "
                                           "subset of ('prox', 'ambient', 'lfa', 'energy')\n")
        assert not (out / "features_SYN.csv").exists()

    def test_evaluate_refuses_labels_without_the_participants_chews(self, chain_dir, tmp_path,
                                                                    capsys):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        (out / "report_SYN.csv").unlink()
        other = tmp_path / "other"
        assert run("synth", "--scenario", write_scenario(tmp_path), "--participant", "B",
                   "--out", other) == 0
        capsys.readouterr()
        labels = other / "labels_B.csv"
        assert run("evaluate", "--participant", "SYN", "--labels", labels, "--out", out) == 1
        assert capsys.readouterr().err == (f"chewdet evaluate: error: labels file {labels} "
                                           "holds no chew of participant SYN\n")
        assert not (out / "report_SYN.csv").exists()

    def test_evaluate_flags_a_predictions_file_without_rows(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        assert run("evaluate", "--participant", "SYN", "--out", out) == 0
        assert all(line == line.rstrip() for line in capsys.readouterr().out.splitlines())
        cli._write_predictions_csv(out / "predictions_SYN.csv", [])
        assert run("episodes", "--participant", "SYN", "--out", out) == 0
        capsys.readouterr()
        assert run("evaluate", "--participant", "SYN", "--out", out) == 0
        assert capsys.readouterr().out.splitlines() == [
            "SYN second   precision=0.000 recall=0.000 f1=0.000  no_candidates",
            "SYN episode  precision=0.000 recall=0.000 f1=0.000  no_candidates",
        ]
        assert (out / "report_SYN.csv").read_bytes() == (
            b"participant,level,precision,recall,f1\r\n"
            b"SYN,second,0.0,0.0,0.0\r\nSYN,episode,0.0,0.0,0.0\r\n"
        )

    def test_derive_without_sensors_names_the_synth_artifact(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        code = run("derive", "--participant", "SYN", "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"chewdet derive: error: missing artifact {out / 'sensors_SYN.csv'}; "
                       "run `chewdet synth` first\n")

    def test_derive_reads_an_ingested_log_only_when_named(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        (out / "sensors_SYN.csv").rename(out / "ingested_SYN.csv")
        derived = (out / "derived_SYN.csv").read_bytes()
        (out / "derived_SYN.csv").unlink()
        assert run("derive", "--participant", "SYN", "--out", out) == 1
        assert capsys.readouterr().err == (f"chewdet derive: error: missing artifact "
                                           f"{out / 'sensors_SYN.csv'}; run `chewdet synth` first\n")
        assert not (out / "derived_SYN.csv").exists()
        assert run("derive", "--participant", "SYN", "--input", out / "ingested_SYN.csv",
                   "--out", out) == 0
        assert (out / "derived_SYN.csv").read_bytes() == derived
        assert "input.ingested_SYN.csv" in manifest_entries(out)[-1]

    @pytest.mark.parametrize("flag", ["--seed", "--threshold", "--delta"], ids=lambda f: f[2:])
    @pytest.mark.parametrize("row", cli.COMMANDS, ids=lambda row: row[0])
    def test_settings_come_only_from_the_config(self, row, flag, capsys):
        required = [arg for name, needed, *_ in row[3] if needed for arg in (name, "x")]
        with pytest.raises(SystemExit) as info:
            main([row[0], *required, flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_featurize_refuses_overlapping_chews(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        (out / "features_SYN.csv").unlink()
        write_label_csv(out / "labels_SYN.csv", [
            LabeledInterval(150.0, 160.0, IntervalKind.CHEW, "SYN"),
            LabeledInterval(155.0, 165.0, IntervalKind.CHEW, "SYN"),
        ])
        assert run("featurize", "--participant", "SYN", "--out", out) == 1
        assert capsys.readouterr().err == ("chewdet featurize: error: chew labels overlap: "
                                           "[150.0, 160.0] and [155.0, 165.0]\n")
        assert not (out / "features_SYN.csv").exists()

    @pytest.mark.parametrize("command, extra", [("losocv", []), ("ablate", ["--sensors", "prox"])])
    def test_repeated_participant_refused(self, tmp_path, capsys, command, extra):
        data = tmp_path / "data"
        for pid in ("P", "Q"):
            assert run("synth", "--scenario", write_scenario(tmp_path), "--participant", pid,
                       "--out", data) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert run(command, "--data", data, "--participants", "P,P,Q", *extra, "--out", out) == 1
        assert capsys.readouterr().err == (f"chewdet {command}: error: --participants names "
                                           "['P'] more than once\n")
        assert not list(out.glob("report*"))

    @pytest.mark.parametrize("command, extra", [("losocv", []), ("ablate", ["--sensors", "prox"])])
    @pytest.mark.parametrize("participants", ["", "P,,Q"])
    def test_empty_participant_refused(self, tmp_path, capsys, command, extra, participants):
        data = tmp_path / "data"
        for pid in ("P", "Q"):
            assert run("synth", "--scenario", write_scenario(tmp_path), "--participant", pid,
                       "--out", data) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert run(command, "--data", data, "--participants", participants, *extra, "--out", out) == 1
        assert capsys.readouterr().err == (f"chewdet {command}: error: --participants "
                                           f"{participants!r} names an empty participant\n")
        assert not list(out.glob("report*"))


class TestErrors:
    def test_missing_upstream_artifact_names_prior_command(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        code = run("evaluate", "--participant", "SYN", "--out", out)
        captured = capsys.readouterr()
        assert code == 1
        assert "run `chewdet predict` first" in captured.err

    def test_peaks_before_derive_fails(self, tmp_path, capsys):
        code = run("peaks", "--participant", "SYN", "--out", tmp_path / "run")
        assert code == 1
        assert "run `chewdet derive` first" in capsys.readouterr().err

    def test_truncated_peaks_row_names_line_and_field_counts(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "peaks_SYN.csv").write_text(
            "t_ms,height,prominence\n1000,12.5,6.0\n1700,13.0\n"
        )
        code = run("segment", "--participant", "SYN", "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert "peaks_SYN.csv: line 3: expected 3 fields, got 2" in err

    def test_malformed_predictions_row_names_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "predictions_SYN.csv").write_text(
            "c1_s,c2_s,p_min,p_max,epsilon,length,probability,positive\n"
            "10.0,20.0,0.5,0.8,0.1,12,0.9,yes\n"
        )
        code = run("episodes", "--participant", "SYN", "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert "predictions_SYN.csv: line 2: malformed row" in err

    @pytest.mark.parametrize("positive", [-1, 2])
    def test_predictions_positive_other_than_0_or_1_names_line(self, tmp_path, capsys, positive):
        out = tmp_path / "run"
        out.mkdir()
        (out / "predictions_SYN.csv").write_text(
            "c1_s,c2_s,p_min,p_max,epsilon,length,probability,positive\n"
            "10.0,20.0,0.5,0.8,0.1,12,0.9,1\n"
            f"30.0,40.0,0.5,0.8,0.1,12,0.1,{positive}\n"
        )
        code = run("episodes", "--participant", "SYN", "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert f"predictions_SYN.csv: line 3: positive must be 0 or 1, got {positive}" in err
        assert not (out / "episodes_SYN.csv").exists()

    def test_featurize_refuses_derived_rows_out_of_time_order(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "duration = 240\nparticipant = SYN\n"
                                  "meal = start=60 sequences=2 rate=1.5 bite=5 seq_dur=25 gap=15\n")
        out = tmp_path / "run"
        assert run("synth", "--scenario", scenario, "--out", out) == 0
        for command in ("derive", "peaks", "segment"):
            assert run(command, "--participant", "SYN", "--out", out) == 0
        derived = out / "derived_SYN.csv"
        lines = derived.read_text().splitlines(keepends=True)
        lines[100], lines[101] = lines[101], lines[100]
        derived.write_text("".join(lines))
        manifest = (out / "manifest.txt").read_bytes()
        capsys.readouterr()
        code = run("featurize", "--participant", "SYN", "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert f"{derived}: timestamps must be strictly increasing; t[99]=" in err
        assert "Traceback" not in err
        assert not (out / "features_SYN.csv").exists()
        assert (out / "manifest.txt").read_bytes() == manifest

    def test_derive_refuses_an_energy_that_overflows(self, tmp_path, capsys):
        # az = 1e200 is finite, so ingest keeps it, but its square is not: the
        # derived CSV must not be written for peaks to refuse later.
        sensors = tmp_path / "sensors.csv"
        sensors.write_text("t_ms,prox,ambient,qw,qx,qy,qz,ax,ay,az\n"
                           "0,100.0,500.0,1.0,0.0,0.0,0.0,0.0,0.0,1.0\n"
                           "50,100.0,500.0,1.0,0.0,0.0,0.0,0.0,0.0,1e200\n")
        out = tmp_path / "run"
        code = run("derive", "--input", sensors, "--participant", "SYN", "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert "column energy_g2 is not finite: inf" in err
        assert "Traceback" not in err
        assert not list(out.glob("derived_*"))

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 7.28 TiB for an array"), "Unable to allocate 7.28 TiB for an array"),
    ])
    def test_memory_error_is_one_error_line(self, chain_dir, tmp_path, capsys, monkeypatch,
                                            exc, message):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        manifest = (out / "manifest.txt").read_bytes()

        def exhausted(spec):
            raise exc

        monkeypatch.setattr(cli, "generate", exhausted)
        assert run("synth", "--scenario", write_scenario(tmp_path), "--out", out) == 1
        assert capsys.readouterr().err == f"chewdet synth: error: {message}\n"
        assert not list(out.glob("*.tmp"))
        assert (out / "manifest.txt").read_bytes() == manifest

    def test_losocv_names_requested_participants_without_data(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("synth", "--scenario", write_scenario(tmp_path), "--participant", "A",
                   "--out", data) == 0
        code = run("losocv", "--data", data, "--participants", "A,B,Z",
                   "--out", tmp_path / "run")
        assert code == 1
        assert "for participants ['B', 'Z']" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        bad = tmp_path / "config.txt"
        bad.write_text("not_a_knob = 5\n")
        code = run("synth", "--scenario", write_scenario(tmp_path), "--config", bad,
                   "--out", tmp_path / "run")
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_repeated_config_key_names_line(self, tmp_path, capsys):
        bad = tmp_path / "config.txt"
        bad.write_text("seed = 1\nn_rounds = 5\nseed = 2\n")
        code = run("synth", "--scenario", write_scenario(tmp_path), "--config", bad,
                   "--out", tmp_path / "run")
        assert code == 1
        assert "config.txt: line 3: repeated config key 'seed', first set on line 1" in (
            capsys.readouterr().err
        )

    def test_invalid_sub_config_fails_at_load(self, tmp_path):
        bad = tmp_path / "config.txt"
        bad.write_text("eta = 5\ndbscan_eps = -1\n")
        with pytest.raises(ValueError, match=r"config.txt: eta must be in \(0, 1\], got 5.0"):
            read_config(bad)

    def test_derive_refuses_an_invalid_sub_config(self, tmp_path, capsys):
        # eta only matters to train, but a config that cannot train must not
        # pass the earlier stages and land in the manifest.
        out = tmp_path / "run"
        assert run("synth", "--scenario", write_scenario(tmp_path), "--out", out) == 0
        bad = tmp_path / "config.txt"
        bad.write_text("eta = 5\n")
        code = run("derive", "--participant", "SYN", "--config", bad, "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert "chewdet derive: error: " in err and "eta must be in (0, 1], got 5.0" in err
        assert not (out / "derived_SYN.csv").exists()
        assert "config.eta = 5.0" not in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("line, message", BAD_STAGE_FIELDS)
    def test_stage_field_fails_at_load(self, tmp_path, line, message):
        bad = tmp_path / "config.txt"
        bad.write_text(line + "\n")
        with pytest.raises(ValueError) as info:
            read_config(bad)
        assert str(info.value) == f"{bad}: {message}"

    def test_threshold_above_one_loads(self, tmp_path):
        # threshold > 1 is the always-negative classifier, not a bad value.
        path = tmp_path / "config.txt"
        path.write_text("threshold = 7\n")
        assert read_config(path).threshold == 7.0

    @pytest.mark.parametrize("line, message", BAD_STAGE_FIELDS)
    def test_derive_refuses_a_field_a_later_stage_reads(self, tmp_path, capsys, line, message):
        out = tmp_path / "run"
        assert run("synth", "--scenario", write_scenario(tmp_path), "--out", out) == 0
        manifest = (out / "manifest.txt").read_text()
        bad = tmp_path / "config.txt"
        bad.write_text(line + "\n")
        code = run("derive", "--participant", "SYN", "--config", bad, "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not (out / "derived_SYN.csv").exists()
        assert (out / "manifest.txt").read_text() == manifest

    def test_train_rejects_a_participant_named_twice(self, full_chain, capsys):
        code = run("train", "--participants", "SYN,SYN", "--out", full_chain)
        err = capsys.readouterr().err
        assert code == 1
        assert "chewdet train: error: --participants names ['SYN'] more than once" in err

    def test_train_rejects_an_empty_participant(self, full_chain, capsys):
        assert run("train", "--participants", "", "--out", full_chain) == 1
        assert capsys.readouterr().err == "chewdet train: error: --participants '' names an empty participant\n"

    def test_train_names_a_zero_hessian_node(self, tmp_path, capsys):
        # The config drops L2 damping and p saturates to exactly 1.0 on a
        # node's rows, so that node's gain and weight divide by zero.
        out = tmp_path / "run"
        out.mkdir()
        rng = np.random.default_rng(0)
        for _ in range(7):
            X = rng.normal(size=(12, 2))
        table = FeatureTable(("a", "b"), X, np.arange(12.0), np.arange(12.0) + 1.0,
                             ["SYN"] * 12, (X[:, 0] > 0).astype(int))
        write_feature_csv(out / "features_SYN.csv", table)
        config = tmp_path / "config.txt"
        config.write_text("eta = 1\nreg_lambda = 0\nmin_child_weight = 0\nn_rounds = 100\n"
                          "subsample = 1\nmax_depth = 2\n")
        with np.errstate(divide="ignore", invalid="ignore"):
            code = run("train", "--participants", "SYN", "--config", config, "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("chewdet train: error: round 36: a node's hessian sum and "
                              "reg_lambda are both 0")
        assert "Traceback" not in err


def toy_model_lines():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    cfg = BoostConfig(max_depth=1, min_child_weight=0.0, subsample=1.0, n_rounds=2)
    return model_to_text(train(X, np.array([0, 0, 1, 1]), cfg)).splitlines()


def stretch_last_positive(path, seconds):
    """Rewrite the predictions file at path with its last positive row lasting seconds."""
    judged = cli._read_predictions_csv(path)
    last = max(i for i, (_, positive, _) in enumerate(judged) if positive)
    cand, positive, proba = judged[last]
    judged[last] = (replace(cand, c2=cand.c1 + seconds), positive, proba)
    cli._write_predictions_csv(path, judged)


def run_capped(*argv):
    """One command in a child process that caps its own address space at 1 GiB."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "chewdet.cli", *map(str, argv)], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=20)


class TestLongSpans:
    def test_prediction_lasting_1e7_s(self, chain_dir, tmp_path):
        # Scoring costs O(C log C + S) and DBSCAN hands on (first, last) spans,
        # so evaluate and episodes both take 1e7 seconds at once.
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        stretch_last_positive(out / "predictions_SYN.csv", 1e7)
        evaluate = run_capped("evaluate", "--participant", "SYN", "--out", out)
        assert evaluate.returncode == 0, evaluate.stderr
        assert "Traceback" not in evaluate.stderr
        episodes = run_capped("episodes", "--participant", "SYN", "--out", out)
        assert episodes.returncode == 0, episodes.stderr
        assert "Traceback" not in episodes.stderr
        assert not list(out.glob("*.tmp"))

    def test_prediction_past_int64_seconds_is_one_error_line(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        judged = cli._read_predictions_csv(out / "predictions_SYN.csv")
        cand, positive, proba = judged[-1]
        judged[-1] = (replace(cand, c1=1e19, c2=1.5e19), True, proba)
        cli._write_predictions_csv(out / "predictions_SYN.csv", judged)
        capsys.readouterr()
        assert run("evaluate", "--participant", "SYN", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("chewdet evaluate: error: ") and err.count("\n") == 1
        assert "candidate [1e+19, 1.5e+19] covers seconds outside int64" in err

    def test_prediction_longer_than_2_63_seconds_is_one_error_line(self, chain_dir, tmp_path, capsys):
        # Both ends lie inside int64, but its 10**19 covered seconds do not.
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        judged = cli._read_predictions_csv(out / "predictions_SYN.csv")
        last = max(i for i, (_, positive, _) in enumerate(judged) if positive)
        cand, positive, proba = judged[last]
        judged[last] = (replace(cand, c1=-5e18, c2=5e18), positive, proba)
        cli._write_predictions_csv(out / "predictions_SYN.csv", judged)
        capsys.readouterr()
        assert run("evaluate", "--participant", "SYN", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("chewdet evaluate: error: ") and err.count("\n") == 1
        assert "candidate [-5e+18, 5e+18] covers seconds outside int64" in err
        assert "Traceback" not in err

    def test_positives_together_past_2_63_seconds_is_one_error_line(self, chain_dir, tmp_path, capsys):
        # Each positive's run fits int64; the seconds they cover together do not.
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        judged = cli._read_predictions_csv(out / "predictions_SYN.csv")
        positives = [i for i, (_, positive, _) in enumerate(judged) if positive]
        assert len(positives) >= 2
        for i, (c1, c2) in ((positives[0], (-5e18, 0.0)), (positives[-1], (1.0, 5e18))):
            cand, positive, proba = judged[i]
            judged[i] = (replace(cand, c1=c1, c2=c2), positive, proba)
        cli._write_predictions_csv(out / "predictions_SYN.csv", judged)
        capsys.readouterr()
        assert run("episodes", "--participant", "SYN", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("chewdet episodes: error: ") and err.count("\n") == 1
        assert "2**63 or more: outside int64" in err
        assert (out / "episodes_SYN.csv").read_bytes() == (chain_dir / "episodes_SYN.csv").read_bytes()

    def test_label_past_int64_seconds_is_one_error_line(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        labels = read_label_csv(out / "labels_SYN.csv")
        last = max(i for i, iv in enumerate(labels) if iv.kind is IntervalKind.CHEW)
        labels[last] = replace(labels[last], end=1e19)
        write_label_csv(tmp_path / "long_labels.csv", labels)
        capsys.readouterr()
        assert run("evaluate", "--participant", "SYN", "--labels", tmp_path / "long_labels.csv",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("chewdet evaluate: error: ") and err.count("\n") == 1
        assert f"chew label [{labels[last].start}, 1e+19] covers seconds outside int64" in err
        assert "Traceback" not in err


class TestBrokenModel:
    """A damaged model.txt is refused when predict loads it: exit 1, no traceback."""

    def predict(self, tmp_path, capsys, lines):
        out = tmp_path / "run"
        out.mkdir()
        (out / "model.txt").write_text("\n".join(lines) + "\n")
        code = run("predict", "--participant", "SYN", "--out", out)
        return code, capsys.readouterr().err

    def test_truncated_model_fails_cleanly(self, tmp_path, capsys):
        code, err = self.predict(tmp_path, capsys, toy_model_lines()[:2])
        assert code == 1
        assert err.startswith("chewdet predict: error:")
        assert "model.txt: model header lacks max_depth" in err
        assert "Traceback" not in err

    def test_dangling_child_index_fails_cleanly(self, tmp_path, capsys):
        lines = toy_model_lines()
        row = lines.index("tree 0") + 1
        lines[row] = lines[row].replace(",1,2,", ",1,9,")
        code, err = self.predict(tmp_path, capsys, lines)
        assert code == 1
        assert err.startswith("chewdet predict: error:")
        assert f"model.txt: line {row + 1}: node 0 of tree 0" in err
        assert "Traceback" not in err

    def test_nan_base_score_fails_cleanly(self, tmp_path, capsys):
        lines = toy_model_lines()
        row = next(i for i, line in enumerate(lines) if line.startswith("base_score = "))
        lines[row] = "base_score = nan"
        code, err = self.predict(tmp_path, capsys, lines)
        assert code == 1
        assert err.startswith("chewdet predict: error:")
        assert (f"model.txt: line {row + 1}: model header key base_score: "
                "expected finite float, got 'nan'") in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "predictions_SYN.csv").exists()


def snapshot(out):
    """Every path under out, with each file's bytes (None for a directory)."""
    return {p.relative_to(out): p.read_bytes() if p.is_file() else None for p in out.rglob("*")}


# Each README command and losocv: its own flags and the last output it writes.
LAST_OUTPUTS = {
    "synth": (["--scenario", "{other}"], "labels_SYN.csv"),
    "derive": (["--participant", "SYN"], "derived_SYN.csv"),
    "peaks": (["--participant", "SYN"], "peaks_SYN.csv"),
    "segment": (["--participant", "SYN"], "candidates_SYN.csv"),
    "featurize": (["--participant", "SYN"], "features_SYN.csv"),
    "train": (["--participants", "SYN"], "model.txt"),
    "predict": (["--participant", "SYN"], "predictions_SYN.csv"),
    "episodes": (["--participant", "SYN"], "episodes_SYN.csv"),
    "evaluate": (["--participant", "SYN"], "report_SYN.csv"),
    "losocv": (["--data", "{out}"], "report.txt"),
}


class TestFailedCommand:
    """A command that fails leaves every file as it was: no file changed or
    added, no temp file left and no manifest entry appended."""

    @pytest.fixture()
    def out(self, chain_dir, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(chain_dir, out)
        # A second participant for losocv: SYN's log and chews under another name.
        shutil.copy(out / "sensors_SYN.csv", out / "sensors_B.csv")
        chews = read_label_csv(out / "labels_SYN.csv")
        write_label_csv(out / "labels_B.csv", [replace(iv, participant="B") for iv in chews])
        return out

    def argv(self, command, out, tmp_path):
        flags, _ = LAST_OUTPUTS[command]
        # Another day than the chain's, so that a synth that went through would change sensors_SYN.csv.
        other = write_scenario(tmp_path, SCENARIO.replace("duration = 1500", "duration = 1400"), "other.txt")
        return [command, *(f.format(other=other, out=out) for f in flags),
                "--config", write_config(tmp_path), "--out", out]

    def fails_changing_nothing(self, out, argv, capsys):
        before = snapshot(out)
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"chewdet {argv[0]}: error: ") and err.count("\n") == 1, err
        assert snapshot(out) == before
        assert not list(out.glob("*.tmp"))
        return err

    @pytest.mark.parametrize("command", LAST_OUTPUTS)
    def test_directory_in_place_of_the_last_output(self, out, tmp_path, capsys, command):
        last = out / LAST_OUTPUTS[command][1]
        last.unlink(missing_ok=True)
        last.mkdir()
        err = self.fails_changing_nothing(out, self.argv(command, out, tmp_path), capsys)
        assert err.endswith(f"output {last} is a directory\n")

    def test_synth_whose_second_writer_fails_after_writing(self, out, tmp_path, capsys, monkeypatch):
        def write_then_fail(path, labels):
            write_label_csv(path, labels)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_label_csv", write_then_fail)
        err = self.fails_changing_nothing(out, self.argv("synth", out, tmp_path), capsys)
        assert err.endswith("No space left on device\n")

    def test_interrupted_synth_changes_nothing(self, out, tmp_path, monkeypatch):
        def write_then_interrupt(path, labels):
            write_label_csv(path, labels)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "write_label_csv", write_then_interrupt)
        before = snapshot(out)
        with pytest.raises(KeyboardInterrupt):
            run(*self.argv("synth", out, tmp_path))
        assert snapshot(out) == before


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, "seed = 7\n" + SCENARIO)
        config = write_config(tmp_path)
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            base = ["--config", config, "--out", out]
            assert run("synth", "--scenario", scenario, *base) == 0
            for command in ("derive", "peaks", "segment", "featurize"):
                assert run(command, "--participant", "SYN", *base) == 0
            assert run("train", "--participants", "SYN", *base) == 0
            for command in ("predict", "episodes", "evaluate"):
                assert run(command, "--participant", "SYN", *base) == 0
            digests.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                }
            )
        assert digests[0].keys() == digests[1].keys()
        for name in digests[0]:
            assert digests[0][name] == digests[1][name], name


class TestStandaloneCommands:
    def test_ingest_reports_gaps(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert run("synth", "--scenario", scenario, "--out", out) == 0
        code = run("ingest", "--input", out / "sensors_SYN.csv",
                   "--participant", "SYN", "--out", out)
        assert code == 0
        assert "gaps=0" in capsys.readouterr().out
        assert (out / "ingested_SYN.csv").exists()

    def test_sensor_logs_are_read_at_the_configured_rate(self, tmp_path, capsys, monkeypatch):
        # A gapless 10 Hz log steps 0.1 s, over 1.5x the 20 Hz default period,
        # so each command that reads a sensor log must take the config's rate.
        config = tmp_path / "config.txt"
        config.write_text("sample_rate_hz = 10\nmin_child_weight = 0.5\n")
        out = tmp_path / "run"
        for pid in ("P", "Q"):
            text = f"duration = 300\nparticipant = {pid}\nsample_rate_hz = 10\n"
            text += "meal = start=60 sequences=2 rate=1.25 bite=5 seq_dur=25 gap=15\n"
            text += "confounder = kind=talking start=200 duration=28\n"
            assert run("synth", "--scenario", write_scenario(tmp_path, text), "--out", out) == 0
        gaps = []
        real = cli.ingest_sensor_csv

        def counted(*args, **kwargs):
            session = real(*args, **kwargs)
            gaps.append(session.gaps.count)
            return session

        monkeypatch.setattr(cli, "ingest_sensor_csv", counted)
        capsys.readouterr()
        base = ["--config", config, "--out", out]
        assert run("ingest", "--input", out / "sensors_P.csv", "--participant", "P", *base) == 0
        assert capsys.readouterr().out.startswith("P: 3000 frames, gaps=0 (max 0.000 s)")
        assert run("derive", "--participant", "P", *base) == 0
        assert run("losocv", "--data", out, *base) == 0
        assert gaps == [0, 0, 0, 0]

    def test_losocv_reports_each_logs_gaps(self, tmp_path, capsys):
        # Two gapless 10 Hz logs read at the default 20 Hz rate: losocv prints
        # the line ingest prints, once per participant.
        config = tmp_path / "config.txt"
        config.write_text("min_child_weight = 0.5\n")
        out = tmp_path / "run"
        for pid in ("P", "Q"):
            text = f"duration = 300\nparticipant = {pid}\nsample_rate_hz = 10\n"
            text += "meal = start=60 sequences=2 rate=1.25 bite=5 seq_dur=25 gap=15\n"
            text += "confounder = kind=talking start=200 duration=28\n"
            assert run("synth", "--scenario", write_scenario(tmp_path, text), "--out", out) == 0
        capsys.readouterr()
        assert run("losocv", "--data", out, "--config", config, "--out", out) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "gaps=" in line]
        assert lines == [f"{pid}: 3000 frames, gaps=2999 (max 0.100 s), rejected_rows=0" for pid in "PQ"]

    def test_derive_reports_gaps_as_ingest_does(self, tmp_path, capsys):
        # A gapless 10 Hz log read at the default 20 Hz has every frame step
        # counted as a gap: derive prints the line ingest prints, and the
        # derived CSV is the one a 10 Hz config derives.
        out, other = tmp_path / "run", tmp_path / "other"
        scenario = write_scenario(tmp_path, "duration = 300\nparticipant = P\nsample_rate_hz = 10\n")
        assert run("synth", "--scenario", scenario, "--out", out) == 0
        capsys.readouterr()
        assert run("ingest", "--input", out / "sensors_P.csv", "--participant", "P", "--out", out) == 0
        line = "P: 3000 frames, gaps=2999 (max 0.100 s), rejected_rows=0\n"
        assert capsys.readouterr().out == line
        assert run("derive", "--participant", "P", "--out", out) == 0
        assert capsys.readouterr().out == line
        config = tmp_path / "config.txt"
        config.write_text("sample_rate_hz = 10\n")
        assert run("derive", "--participant", "P", "--input", out / "sensors_P.csv",
                   "--config", config, "--out", other) == 0
        assert capsys.readouterr().out == "P: 3000 frames, gaps=0 (max 0.000 s), rejected_rows=0\n"
        assert (other / "derived_P.csv").read_bytes() == (out / "derived_P.csv").read_bytes()

    def test_gap_cdf(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert run("synth", "--scenario", scenario, "--out", out) == 0
        assert run("gap-cdf", "--labels", out / "labels_SYN.csv", "--out", out) == 0
        rows = (out / "cdf.csv").read_text().splitlines()
        assert rows[0] == "gap_s,cum_frac"
        assert float(rows[-1].split(",")[1]) == 1.0

    def test_losocv_command(self, tmp_path):
        # Two participants carrying identical clean data: the degenerate
        # case where cross-validation must be perfect at both levels.
        config = write_config(tmp_path)
        data = tmp_path / "data"
        for pid in ("A", "B"):
            scenario = write_scenario(
                tmp_path,
                SCENARIO.replace("participant = SYN", f"participant = {pid}"),
                name=f"scenario_{pid}.txt",
            )
            assert run("synth", "--scenario", scenario, "--out", data) == 0
        out = tmp_path / "run"
        assert run("losocv", "--data", data, "--config", config, "--out", out) == 0
        report = read_report(out / "report.csv")
        assert report[("AVERAGE", "second")] == 1.0
        assert report[("AVERAGE", "episode")] == 1.0

    def test_ablate_command(self, tmp_path):
        config = write_config(tmp_path)
        data = tmp_path / "data"
        for pid in ("A", "B"):
            scenario = write_scenario(
                tmp_path,
                SCENARIO.replace("participant = SYN", f"participant = {pid}"),
                name=f"scenario_{pid}.txt",
            )
            assert run("synth", "--scenario", scenario, "--out", data) == 0
        out = tmp_path / "run"
        assert run("ablate", "--data", data, "--config", config, "--out", out,
                   "--sensors", "prox") == 0
        assert (out / "report_ablate_prox.csv").exists()

    def test_zero_tree_model_warns_in_train_and_predict(self, tmp_path, capsys):
        # With the default config this scenario trains no tree, so every
        # candidate gets the same probability.
        out = tmp_path / "run"
        assert run("synth", "--scenario", write_scenario(tmp_path), "--out", out) == 0
        for command in ("derive", "peaks", "segment", "featurize"):
            assert run(command, "--participant", "SYN", "--out", out) == 0
        capsys.readouterr()
        assert run("train", "--participants", "SYN", "--out", out) == 0
        err = capsys.readouterr().err
        assert f"model {out / 'model.txt'} has no trees; it is constant" in err
        assert run("predict", "--participant", "SYN", "--out", out) == 0
        assert "it is constant" in capsys.readouterr().err
        assert (out / "predictions_SYN.csv").exists()

    def test_nan_threshold_refused(self, full_chain, tmp_path, capsys):
        predictions = (full_chain / "predictions_SYN.csv").read_bytes()
        config = tmp_path / "nan_threshold.txt"
        config.write_text("threshold = nan\n")
        code = run("predict", "--participant", "SYN", "--config", config, "--out", full_chain)
        assert code == 1
        assert capsys.readouterr().err == (f"chewdet predict: error: {config}: "
                                           "threshold must be in [0, inf], got nan\n")
        assert (full_chain / "predictions_SYN.csv").read_bytes() == predictions

    def test_threshold_from_config(self, full_chain, tmp_path):
        # threshold 1.01: nothing is positive, so zero episodes come out.
        config = tmp_path / "high_threshold.txt"
        config.write_text("threshold = 1.01\n")
        assert run("predict", "--participant", "SYN", "--config", config, "--out", full_chain) == 0
        assert run("episodes", "--participant", "SYN", "--out", full_chain) == 0
        rows = (full_chain / "episodes_SYN.csv").read_text().splitlines()
        assert len(rows) == 1  # header only
