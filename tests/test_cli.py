"""End-to-end command-line behaviour, exercised through cli.main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ppvit import SyntheticDataset, cli
from ppvit import model as M


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, out_dir, **extra):
    cfg = {
        "model": {"preset": "nano", "num_classes": 2},
        "model_seed": 0,
        "data": {"kind": "blobs", "num_samples": 8, "image_size": 32,
                 "num_classes": 2, "seed": 3},
        "train": {"lr": 1e-3, "total_steps": 3, "batch_size": 4, "seed": 1},
        "out_dir": str(out_dir),
    }
    cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSummary:
    def test_reference_preset_shows_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "summary", "--preset", "tiny")
        assert code == 0
        assert "total params: 11,589,688" in out
        assert "reference params 11.6M" in out
        assert "reference flops 1.8G" in out

    def test_desk_preset_has_no_reference_line(self, capsys):
        code, out, _ = run_cli(capsys, "summary", "--preset", "micro")
        assert code == 0
        assert "total params:" in out
        assert "reference" not in out

    def test_csv_mode_emits_only_csv(self, capsys):
        code, out, _ = run_cli(capsys, "summary", "--preset", "nano", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "scope,params,flops"
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_double_macs_doubles_flops(self, capsys):
        _, single, _ = run_cli(capsys, "summary", "--preset", "nano", "--csv")
        _, doubled, _ = run_cli(capsys, "summary", "--preset", "nano", "--csv",
                                "--double-macs")
        one = int(single.strip().splitlines()[-1].split(",")[2])
        two = int(doubled.strip().splitlines()[-1].split(",")[2])
        assert two == 2 * one

    def test_invalid_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit):  # argparse rejects bad choices
            cli.main(["summary", "--preset", "giga"])

    def test_bad_input_size_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "summary", "--preset", "nano",
                               "--input", "50")
        assert code == 2
        assert "error:" in err


class TestSqueeze:
    def test_four_level_column(self, capsys):
        code, out, _ = run_cli(capsys, "squeeze", "12", "16", "20", "24")
        assert code == 0
        assert "66.3" in out

    def test_realized_geometry(self, capsys):
        code, out, _ = run_cli(capsys, "squeeze", "12", "16", "20", "24",
                               "--hw", "56", "56")
        assert code == 0
        assert "M=54" in out
        assert "N=3136" in out

    def test_nonpositive_ratio_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "squeeze", "0")
        assert code == 2
        assert "error:" in err

    def test_decreasing_ratios_exit_2(self, capsys):
        # no layer takes (4, 2), so neither may the analytics
        code, out, err = run_cli(capsys, "squeeze", "4", "2", "--hw", "8", "8")
        assert code == 2
        assert "must strictly increase" in err
        assert out == ""


class TestTrain:
    def test_end_to_end(self, capsys, tmp_path):
        out_dir = tmp_path / "run_a"
        config = write_config(tmp_path, out_dir)
        code, out, _ = run_cli(capsys, "train", "--config", str(config))
        assert code == 0
        assert "effective config:" in out
        assert "finished 3 steps" in out
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "checkpoint.ckpt").exists()

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, dir_a)
        assert run_cli(capsys, "train", "--config", str(cfg_a))[0] == 0
        cfg_b = write_config(tmp_path, dir_b)
        assert run_cli(capsys, "train", "--config", str(cfg_b))[0] == 0
        assert ((dir_a / "metrics.csv").read_bytes()
                == (dir_b / "metrics.csv").read_bytes())
        assert ((dir_a / "checkpoint.ckpt").read_bytes()
                == (dir_b / "checkpoint.ckpt").read_bytes())

    def test_one_and_two_blas_threads_write_the_same_bytes(self, tmp_path):
        # README, Determinism: the micro recipe's GEMMs sum in one order at
        # either thread count; each child process sets only its own count
        src = str(Path(cli.__file__).resolve().parents[1])
        artifacts = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads_{threads}"
            config = write_config(
                tmp_path, out_dir, model={"preset": "micro", "num_classes": 4},
                data={"kind": "blobs", "num_samples": 32, "image_size": 32,
                      "num_classes": 4, "seed": 7},
                train={"lr": 2e-3, "warmup_steps": 4, "total_steps": 8,
                       "batch_size": 32, "seed": 0})
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-m", "ppvit.cli", "train", "--config",
                                  str(config)], env=env, capture_output=True, text=True,
                                 timeout=300)
            assert run.returncode == 0, run.stderr
            artifacts.append([(out_dir / name).read_bytes()
                              for name in ("metrics.csv", "checkpoint.ckpt")])
        assert artifacts[0] == artifacts[1]

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        config = write_config(tmp_path, tmp_path / "x", epochs=5)
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert "epochs" in err

    def test_unknown_train_key_named(self, capsys, tmp_path):
        config = write_config(tmp_path, tmp_path / "x")
        raw = json.loads(config.read_text())
        raw["train"]["momentum"] = 0.9
        config.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert "momentum" in err and "train" in err

    def test_preset_override_of_the_wrong_type_named(self, capsys, tmp_path):
        # "false" used to become use_rpe=True and train with RPE on
        config = write_config(tmp_path, tmp_path / "x",
                              model={"preset": "nano", "num_classes": 2, "use_rpe": "false"})
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert "use_rpe" in err

    @pytest.mark.parametrize("section,field,value", [
        ("data", "num_samples", 8.9),
        ("train", "seed", True),
        ("train", "lr", "0.001"),
        ("train", "total_steps", 3.7),
        (None, "model_seed", True),
    ])
    def test_wrong_json_type_named(self, capsys, tmp_path, section, field, value):
        # each of these used to be coerced (8 samples, seed 1, lr 0.001, 3 steps)
        config = write_config(tmp_path, tmp_path / "x")
        raw = json.loads(config.read_text())
        (raw[section] if section else raw)[field] = value
        config.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert repr(f"{section}.{field}" if section else field) in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("field,value", [
        ("ffn_kind", "bogus"), ("act", "relu"), ("pool_mode", "median"),
        ("pool_ratios", [0]), ("expansion", 0),
    ], ids=["ffn_kind", "act", "pool_mode", "pool_ratios", "expansion"])
    def test_bad_model_switch_refused_when_the_config_loads(self, capsys, tmp_path,
                                                            field, value):
        # refused when the config loads: nothing printed, no out_dir
        model = M.config_to_dict(M.preset("nano", num_classes=2))
        if field in model:
            model[field] = value
        else:
            model["stages"][0][field] = value
        config = write_config(tmp_path, tmp_path / "x", model=model)
        code, out, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert field in err
        assert out == ""
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section,field", [("model", "head_width"), ("data", "size")])
    def test_unknown_section_field_named(self, capsys, tmp_path, section, field):
        config = write_config(tmp_path, tmp_path / "x")
        raw = json.loads(config.read_text())
        raw[section][field] = 4
        config.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert repr(f"{section}.{field}") in err

    def test_in_channels_mismatch_exits_2_before_step_1(self, capsys, tmp_path):
        out_dir = tmp_path / "x"
        config = write_config(tmp_path, out_dir,
                              model={"preset": "nano", "num_classes": 2, "in_channels": 1})
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert "in_channels" in err
        assert not out_dir.exists()

    def test_image_size_off_the_input_multiple_exits_2_before_step_1(self, capsys, tmp_path):
        out_dir = tmp_path / "x"
        config = write_config(tmp_path, out_dir)
        raw = json.loads(config.read_text())
        raw["data"]["image_size"] = 40
        config.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert "image_size" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("section,field", [
        (None, "model_seed"), ("train", "seed"), ("data", "seed")])
    def test_negative_seed_refused_when_the_config_loads(self, capsys, tmp_path,
                                                         section, field):
        config = write_config(tmp_path, tmp_path / "x")
        raw = json.loads(config.read_text())
        (raw[section] if section else raw)[field] = -1
        config.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert f"{field} must be nonnegative, got -1" in err
        where = f"{section}: " if section else ""  # a nested record names its section
        assert f"error: {where}{field} must be nonnegative" in err
        assert out == ""
        assert not (tmp_path / "x").exists()

    def test_missing_data_section_loads_the_default_set(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "x")
        raw = json.loads(config.read_text())
        del raw["data"]
        config.write_text(json.dumps(raw))
        a, b = cli.load_run_config(config), cli.load_run_config(config)
        assert a.data == SyntheticDataset("blobs", 32, 32, 4, 0)
        # each load owns its dataset, so no render memo is shared
        assert a.data is not b.data and a.data._memo is not b.data._memo

    def test_integer_for_a_float_field_is_converted(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "x")
        raw = json.loads(config.read_text())
        raw["train"]["weight_decay"] = 0
        config.write_text(json.dumps(raw))
        wd = cli.load_run_config(config).train.weight_decay
        assert wd == 0.0 and type(wd) is float

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 2
        assert "JSON" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--config",
                               str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in err


class TestGradcheck:
    def test_ops_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "ops")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        assert "cases passed" in out

    def test_unknown_scope_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "universe"])
        assert exc.value.code == 2


class TestCompare:
    def test_table_and_ratio_column(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "3136", "--c", "64",
                               "vanilla", "pyramid:12,16,20,24")
        assert code == 0
        assert "vanilla" in out and "pyramid:12,16,20,24" in out
        assert "vs first" in out

    def test_duplicate_warning_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--n", "16", "--c", "4",
                                 "vanilla", "vanilla")
        assert code == 0
        assert "duplicate" in err
        assert "duplicate" not in out

    def test_non_square_note(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "10", "--c", "4",
                               "pool:2")
        assert code == 0
        assert "not a square grid" in out

    def test_csv_mode(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "16", "--c", "4",
                               "vanilla", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "variant,m,core_flops"

    def test_bad_variant_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--n", "16", "--c", "4",
                               "pool:zero")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("variant", ["pool:100", "pyramid:1,100"])
    def test_ratio_that_collapses_the_grid_exits_2(self, capsys, variant):
        # a square N pools with the layer's own rounding, which refuses an
        # empty level, as ``squeeze --hw`` does
        code, out, err = run_cli(capsys, "compare", "--n", "9", "--c", "4",
                                 "vanilla", variant)
        assert code == 2
        assert "pooling ratio 100 collapses a 3x3 map to 0x0" in err
        assert out == ""
