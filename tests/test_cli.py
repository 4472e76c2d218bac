import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hamnav.cli import (
    RunConfig,
    _eval_one,
    config_from_dict,
    dumps_toml,
    load_config,
    loads_toml,
    main,
    plan_method,
    run_method,
    save_config,
    to_dict,
)
from hamnav.baselines import astar_rigid, run_baseline_episode
from hamnav.evalkit import episode_metrics, spl
from hamnav.generation import gap_statistics, generate_dungeon, generate_workspace
from hamnav.learning import SceneDatum, make_reference_dataset, scene_rollout
from hamnav.navigator import dungeon_setup
from hamnav.ring import RingParams
from hamnav.workspace import save_workspace, workspace_from_json


def read_workspace(path):
    """The workspace a JSON file holds."""
    return workspace_from_json(json.loads(Path(path).read_text()))


class TestConfigRoundTrip:
    def test_toml_round_trip_identity(self, tmp_path):
        cfg = RunConfig()
        cfg.episode.tau = 0.025
        cfg.episode.adapt.rho = 0.7
        cfg.meta.alpha = 2.5
        p = tmp_path / "cfg.toml"
        save_config(cfg, p)
        cfg2 = load_config(p)
        assert to_dict(cfg2) == to_dict(cfg)
        # parse -> serialize -> parse is identity
        save_config(cfg2, tmp_path / "cfg2.toml")
        assert (tmp_path / "cfg.toml").read_text() == (tmp_path / "cfg2.toml").read_text()

    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig()
        cfg.d_thr = 2.5
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        assert to_dict(load_config(p)) == to_dict(cfg)

    def test_readme_example_loads(self, tmp_path):
        # the documented config must keep parsing as the schema changes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (example,) = re.findall(r"```toml\n(.*?)```", readme, re.S)
        p = tmp_path / "readme.toml"
        p.write_text(example)
        cfg = load_config(p)
        assert cfg.episode.horizons == (10, 5, 1)
        assert cfg.episode.adapt.kappa_beta == 0.25 and cfg.meta.mu == 4.0

    def test_toml_subset_parser(self):
        text = dumps_toml({"a": 1, "b": [1.5, 2.0], "sec": {"c": "hi", "d": True}})
        doc = loads_toml(text)
        assert doc == {"a": 1, "b": [1.5, 2.0], "sec": {"c": "hi", "d": True}}

    def test_validation_rejects_bad_field(self):
        cfg = RunConfig()
        cfg.episode.tau = -1.0
        with pytest.raises(ValueError):
            cfg.validate()

    def test_validation_rejects_bad_method(self):
        cfg = RunConfig()
        cfg.method = "teleport"
        with pytest.raises(ValueError):
            cfg.validate()

    def test_tuple_fields_rebuilt(self):
        doc = to_dict(RunConfig())
        doc["episode"]["horizons"] = [4, 2, 1]
        cfg = config_from_dict(doc)
        assert cfg.episode.horizons == (4, 2, 1)

    def test_nested_tables_rebuilt_from_hints(self):
        doc = {"episode": {"ring": {"r_base": 0.3}, "adapt": {"zeta_cap": [1, 2, 3]}},
               "dwa": {"horizon": 4}}
        cfg = config_from_dict(doc)
        assert cfg.episode.ring == RingParams(r_base=0.3)
        assert cfg.episode.adapt.zeta_cap == (1, 2, 3)
        assert cfg.dwa.horizon == 4
        assert config_from_dict({"episode": {"ring": None}}).episode.ring is None

    def test_unknown_nested_key_rejected(self, tmp_path):
        p = tmp_path / "old.toml"
        p.write_text("[episode]\ncontact_window = 20\n")
        with pytest.raises(ValueError, match=r"EpisodeConfig.*'contact_window'"):
            load_config(p)
        with pytest.raises(ValueError, match=r"episode\.adapt\.bogus"):
            config_from_dict({"episode": {"adapt": {"bogus": 1}}})
        # DWA plans with the rigid_radius it is judged by; it has no radius of its own
        with pytest.raises(ValueError, match=r"dwa\.robot_radius"):
            config_from_dict({"dwa": {"robot_radius": 0.4}})
        with pytest.raises(ValueError, match="must be a table"):
            config_from_dict({"meta": 3.0})
        # retired variant switches: each default is now the only behaviour
        retired = {"dungeon_auto": True,
                   "episode.shape_damping_on": True,
                   "episode.collision_stop": True,
                   "episode.adapt.target_mode": "relative",
                   "episode.adapt.fixed_targets": [0.3, 0.0, 0.5],
                   "episode.adapt.update_form": "additive",
                   "episode.adapt.clearance_deadband": True,
                   "episode.adapt.kappa_alpha": 0.4,
                   "episode.adapt.k_alpha": 2,
                   "train.literal_multi_form": False}
        for path, value in retired.items():
            *tables, key = path.split(".")
            doc = {key: value}
            for table in reversed(tables):
                doc = {table: doc}
            with pytest.raises(ValueError, match=rf"^unknown config field {re.escape(path)}:"):
                config_from_dict(doc)

    @pytest.mark.parametrize("table, line, field, want", [
        ("episode", 'tau = "fast"', "episode.tau", "a number"),
        ("episode", "tau = true", "episode.tau", "a number"),
        ("train", 'fd_step = "small"', "train.fd_step", "a number"),
        ("train", "epochs = 2.5", "train.epochs", "an integer"),
        ("train", "epochs = true", "train.epochs", "an integer"),
        ("episode", "n_max = 1e400", "episode.n_max", "an integer"),
        ("meta", "checkpoint = 3", "meta.checkpoint", "a string"),
        ("episode", "horizons = 5", "episode.horizons", "a list"),
        ("pf", 'd_hat = "far"', "pf.d_hat", "a number"),
        ("episode", 'horizons = ["a", 1, 1]', "episode.horizons", "a list of numbers"),
        ("episode", "horizons = [10, true, 1]", "episode.horizons", "a list of numbers"),
        ("train", 'weights = [1.0, "x", 1.0, 1.0]', "train.weights", "a list of numbers"),
        ("episode.adapt", 'zeta_cap = [8, 8, "c"]', "episode.adapt.zeta_cap",
         "a list of numbers"),
    ], ids=["string_float", "bool_float", "train_string", "fraction_int", "bool_int",
            "inf_int", "int_string", "scalar_tuple", "string_optional_float",
            "string_element", "bool_element", "train_string_element", "cap_string_element"])
    def test_wrong_type_names_its_field(self, tmp_path, table, line, field, want):
        p = tmp_path / "bad.toml"
        p.write_text(f"[{table}]\n{line}\n")
        with pytest.raises(ValueError, match=rf"^config field {re.escape(field)} must be {want}, "):
            load_config(p)

    def test_numbers_load_as_their_field_type(self, tmp_path):
        # a float field takes an int, an int field an integral float, and
        # "inf" still loads as a float
        p = tmp_path / "cfg.toml"
        p.write_text('d_thr = 2\n\n[episode]\nd_hat = 1\nn_max = 300.0\n\n'
                     '[meta]\nmu_boost = "inf"\n')
        cfg = load_config(p)
        assert type(cfg.d_thr) is float and cfg.d_thr == 2.0
        assert type(cfg.episode.d_hat) is float and cfg.episode.d_hat == 1.0
        assert type(cfg.episode.n_max) is int and cfg.episode.n_max == 300
        assert cfg.meta.mu_boost == float("inf")

    def test_dwa_has_no_d_hat_of_its_own(self):
        # DWA saturates its clearance term at the episode's d_hat
        with pytest.raises(ValueError, match=r"unknown config field dwa\.d_hat"):
            config_from_dict({"dwa": {"d_hat": 0.8}})


class TestGenerateCommand:
    def test_count_zero_writes_nothing(self, tmp_path):
        out = tmp_path / "ws"
        assert main(["generate", "--family", "test_id", "--count", "0",
                     "--seed", "3", "--out", str(out)]) == 0
        assert list(out.glob("test_id_0*.json")) == []

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--family", "test_id", "--count", "2",
                         "--seed", "7", "--out", str(out)]) == 0
        for name in ("test_id_0000.json", "test_id_0001.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_ood_statistics_shift(self, tmp_path):
        out = tmp_path / "ws"
        main(["generate", "--family", "test_id", "--count", "6", "--seed", "1",
              "--out", str(out)])
        main(["generate", "--family", "test_ood", "--count", "6", "--seed", "1",
              "--out", str(out)])
        stats_id = [gap_statistics(read_workspace(p))
                    for p in sorted(out.glob("test_id_0*.json"))]
        stats_ood = [gap_statistics(read_workspace(p))
                     for p in sorted(out.glob("test_ood_0*.json"))]
        # the OOD family is denser with larger radii: both knobs must show up
        assert (np.mean([s["occupied_fraction"] for s in stats_ood])
                > np.mean([s["occupied_fraction"] for s in stats_id]))
        assert (np.mean([s["mean_radius"] for s in stats_ood])
                > np.mean([s["mean_radius"] for s in stats_id]))

    def test_bad_family(self, tmp_path):
        assert main(["generate", "--family", "nope", "--count", "1",
                     "--out", str(tmp_path)]) == 2

    def test_dungeon_family(self, tmp_path):
        out = tmp_path / "d"
        assert main(["generate", "--family", "dungeon", "--count", "1",
                     "--seed", "2", "--out", str(out)]) == 0
        ws = read_workspace(out / "dungeon_0000.json")
        assert ws.grid is not None


# a workspace document whose start lies outside [0, L]^2
MALFORMED_START = {"L": 10.0, "obstacles": [], "start": [-1.0, 1.0], "goal": [9.0, 9.0]}
# ... and ones whose start is not two coordinates
THREE_COORD_START = dict(MALFORMED_START, start=[1.0, 1.0, 1.0])
ONE_COORD_START = dict(MALFORMED_START, start=[1.0])
# ... and ones with a NaN obstacle centre and radius, a zero side or an
# infinite one
NAN_OBSTACLES = dict(MALFORMED_START, start=[1.0, 1.0],
                     obstacles=[{"c": [float("nan"), 5.0], "r": 0.5},
                                {"c": [5.0, 5.0], "r": float("nan")}])
NAN_RADIUS = dict(MALFORMED_START, start=[1.0, 1.0],
                  obstacles=[{"c": [5.0, 5.0], "r": float("nan")}])
ZERO_SIDE = dict(MALFORMED_START, L=0.0, start=[0.0, 0.0], goal=[0.0, 0.0])
INFINITE_SIDE = dict(MALFORMED_START, L=float("inf"), start=[1.0, 1.0])


# sha256 of a ring episode's artifacts on workspace_file
RING_ARTIFACTS = {
    "ring_snapshots.json": "ac8d7f00bb3c12552f7e9cb9af59e60683ea9252b46dbcdcc9de79b6d9978131",
    "steps.csv": "2a0efa256f44fd89d9fc87ba149c5eaa0e6b51b4cb8447d0ee4d6c9db00ba08d",
    "timeseries.svg": "f5ce185623d3095f7f533856c8dafbcdecf673f6010e03cd57de51a726d0390e",
    "trajectory.svg": "93ed808a268b87d603a82ec4002a21652737d45579d4c3c4338f64899a04c9dc",
}

# sha256 of the artifacts of `run --plot` for the PF and DWA baselines on
# workspace_file (0.4-m discs) and for the point robot on dungeon_file
RUN_ARTIFACTS = {
    "pf": {
        "steps.csv": "69a2c721b015c9003d730e28554d52254c506f6b11eb8c3d05b3688c9684a57b",
        "timeseries.svg": "465c7729efce59d6a2c57bfbaedf54d9cd8930474841f1cd1421ac486661e288",
        "trajectory.svg": "3b80d34bf35b0cfede3037bd90200d48411375591710870454225c8b4ef3f541",
    },
    "dwa": {
        "steps.csv": "156ed8492e7525e237b5c63fbb13dd59f5929b22d323b41eafee828857ba2f93",
        "timeseries.svg": "d7f5216f73b83cca1677a08d901faba4f957ab4241f993e7b0ea2ec6de4b3b1c",
        "trajectory.svg": "e333afd828a44882d0014578f4f65db281306ddd7f962fafb8ded89648677ef2",
    },
    "dungeon": {
        "steps.csv": "51eaf9911ef5c3854634b136e408cb7d9eb9e0f8f6d50995529fa9036cd6df4d",
        "timeseries.svg": "b193e5a9e7ac4ce7cb75ebaaf07af0b6941ed84e42792b648d3dbc4f8861bfd8",
        "trajectory.svg": "71a894066c49aae3b5336b839cfcb00687c7ee1ca8b701cb413bc6076d917ca2",
    },
}


def assert_pinned(out, pins):
    """The files in ``out`` have the sha256 digests ``pins`` names, when
    numpy is the 2.4 the pins were recorded under (another numpy may round
    a trajectory differently)."""
    if not np.__version__.startswith("2.4."):
        return
    for name, digest in pins.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, name


@pytest.fixture(scope="module")
def workspace_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("ws")
    main(["generate", "--family", "test_id", "--count", "1", "--seed", "11",
          "--out", str(out)])
    return out / "test_id_0000.json"


@pytest.fixture(scope="module")
def dungeon_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("dungeon")
    main(["generate", "--family", "dungeon", "--count", "1", "--seed", "0",
          "--out", str(out)])
    return out / "dungeon_0000.json"


class TestRunCommand:
    def test_astar_summary_has_reference(self, tmp_path, workspace_file):
        out = tmp_path / "astar"
        assert main(["run", "--workspace", str(workspace_file), "--method",
                     "astar_rigid", "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert "L_ref" in doc and "feasible" in doc
        assert doc["mapping_ratio"] == 1.0

    @pytest.mark.parametrize("method", ["astar_rigid", "astar_deform"])
    def test_astar_plot_draws_the_plan(self, tmp_path, workspace_file, method):
        out = tmp_path / method
        assert main(["run", "--workspace", str(workspace_file), "--method", method,
                     "--out", str(out), "--plot"]) == 0
        ws = read_workspace(str(workspace_file))
        # the plan starts at the centre of the grid cell holding the start
        cell = ws.side / round(ws.side / RunConfig().astar_resolution)
        cx, cy = (np.floor(ws.start / cell) + 0.5) * cell
        pad, width = 20, 640
        scale = (width - 2 * pad) / ws.side
        poly = [ln for ln in (out / "trajectory.svg").read_text().splitlines()
                if "polyline" in ln and "d22" in ln][0]
        gx, gy = map(float, poly.split('points="')[1].split(" ")[0].split(","))
        assert gx == pytest.approx(pad + cx * scale, abs=0.01)
        assert gy == pytest.approx(pad + (ws.side - cy) * scale, abs=0.01)

    def test_episode_artifacts_and_determinism(self, tmp_path, workspace_file):
        outs = []
        for tag in ("e1", "e2"):
            out = tmp_path / tag
            assert main(["run", "--workspace", str(workspace_file), "--method",
                         "grlsnam", "--out", str(out), "--plot"]) == 0
            outs.append(out)
        assert (outs[0] / "steps.csv").read_bytes() == (outs[1] / "steps.csv").read_bytes()
        assert (outs[0] / "trajectory.svg").exists()
        assert (outs[0] / "timeseries.svg").exists()
        assert_pinned(outs[0], RING_ARTIFACTS)
        with open(outs[0] / "steps.csv") as fh:
            header = next(csv.reader(fh))
        for col in ("t", "q0", "p0", "H", "clr", "dist", "speed", "E_sensor",
                    "E_goal", "E_obj", "E_barrier_total", "beta", "lam",
                    "alpha_sum", "active", "mu", "u_f0", "u_f1"):
            assert col in header

    @pytest.mark.parametrize("method", ["pf", "dwa"])
    def test_baseline_artifacts_are_pinned(self, tmp_path, workspace_file, method):
        out = tmp_path / method
        assert main(["run", "--workspace", str(workspace_file), "--method", method,
                     "--out", str(out), "--plot"]) == 0
        assert_pinned(out, RUN_ARTIFACTS[method])

    def test_dungeon_artifacts_are_pinned(self, tmp_path, dungeon_file):
        out = tmp_path / "dungeon"
        assert main(["run", "--workspace", str(dungeon_file), "--out", str(out),
                     "--plot"]) == 0
        assert not (out / "ring_snapshots.json").exists()
        assert_pinned(out, RUN_ARTIFACTS["dungeon"])

    def test_invalid_config_exits_with_message(self, tmp_path, workspace_file, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("method = \"grlsnam\"\n\n[episode]\ntau = -5.0\n")
        rc = main(["run", "--config", str(bad), "--workspace", str(workspace_file),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("table, line", [("episode", 'tau = "fast"'),
                                             ("train", 'fd_step = "small"'),
                                             ("train", "epochs = 2.5"),
                                             ("episode", 'horizons = ["a", 1, 1]'),
                                             ("train", 'weights = [1.0, "x", 1.0, 1.0]'),
                                             ("episode.adapt", 'zeta_cap = [8, 8, "c"]')])
    def test_wrong_type_config_exits_with_its_name(self, tmp_path, workspace_file, capsys,
                                                   table, line):
        bad = tmp_path / "bad.toml"
        bad.write_text(f"[{table}]\n{line}\n")
        rc = main(["run", "--config", str(bad), "--workspace", str(workspace_file),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: config field {table}.{line.split()[0]} must be ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cap", ["[8.0, 8.0, 15.0, 12.0]", "[8.0, 8.0]", "[8.0, -1.0, 12.0]",
                                     "[]"])
    def test_bad_zeta_cap_exits_with_its_name(self, tmp_path, workspace_file, capsys, cap):
        # three ceilings >= 0, for beta, lam and mu; the four-entry cap with
        # an alpha ceiling is rejected too
        bad = tmp_path / "bad.toml"
        bad.write_text(f"[episode.adapt]\nzeta_cap = {cap}\n")
        rc = main(["run", "--config", str(bad), "--workspace", str(workspace_file),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: episode.adapt.zeta_cap must be three ceilings")
        assert not (tmp_path / "x").exists()

    def test_unknown_config_field_exits_with_its_name(self, tmp_path, workspace_file,
                                                      capsys):
        old = tmp_path / "old.toml"
        old.write_text("[episode]\ncontact_window = 20\n")
        rc = main(["run", "--config", str(old), "--workspace", str(workspace_file),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "episode.contact_window" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        (json.dumps(MALFORMED_START), "outside [0,10.0]^2"),
        (json.dumps(THREE_COORD_START), "start must be two finite numbers"),
        (json.dumps(ONE_COORD_START), "start must be two finite numbers"),
        (json.dumps({"obstacles": [], "start": [1, 1], "goal": [9, 9]}), "missing field 'L'"),
        ("[1, 2]", "list indices must be integers"),
        (json.dumps(NAN_OBSTACLES), "obstacle centre must be two finite numbers"),
        (json.dumps(NAN_RADIUS), "obstacle radius must be > 0 and finite"),
        (json.dumps(ZERO_SIDE), "side L must be > 0 and finite"),
        (json.dumps(INFINITE_SIDE), "side L must be > 0 and finite"),
    ], ids=["bad_json", "start_outside", "start_three_coordinates", "start_one_coordinate",
            "missing_L", "not_an_object", "nan_obstacles", "nan_radius", "zero_side",
            "infinite_side"])
    def test_malformed_workspace_exits_with_message(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["run", "--workspace", str(bad), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}: ") and message in err
        assert not (tmp_path / "x").exists()

    def test_unknown_method_exits_2(self, tmp_path, workspace_file, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["run", "--workspace", str(workspace_file), "--method", "teleport",
                  "--out", str(tmp_path / "x")])
        assert stop.value.code == 2
        assert "invalid choice: 'teleport'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_seed_option_is_gone(self, tmp_path, workspace_file, capsys):
        # an episode draws nothing at random: a seed had no effect, so there is none
        with pytest.raises(SystemExit) as stop:
            main(["run", "--workspace", str(workspace_file), "--seed", "7",
                  "--out", str(tmp_path / "x")])
        assert stop.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_holding_seed_exits_with_message(self, tmp_path, workspace_file, capsys):
        old = tmp_path / "old.toml"
        old.write_text('seed = 0\nmethod = "pf"\n')
        rc = main(["run", "--config", str(old), "--workspace", str(workspace_file),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: unknown config field seed")
        assert not (tmp_path / "x").exists()

    def test_summary_has_no_seed(self, tmp_path, workspace_file):
        out = tmp_path / "pf"
        assert main(["run", "--workspace", str(workspace_file), "--method", "pf",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["method"] == "pf" and "seed" not in doc

    def test_missing_workspace_exits_with_message(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "--workspace", str(missing), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {missing}: ")

    @pytest.mark.parametrize("line", ["beta = -1.0", "lam = -0.5", "alpha = -2.0",
                                      "mu_boost = -5.0", "d_ref = 0.0"])
    def test_bad_meta_weight_exits_with_its_name(self, tmp_path, workspace_file, capsys,
                                                 line):
        bad = tmp_path / "bad.toml"
        bad.write_text(f"[meta]\n{line}\n")
        for args in (["run", "--workspace", str(workspace_file)],
                     ["eval", "--workspaces", str(workspace_file.parent), "--methods", "grlsnam"]):
            capsys.readouterr()
            assert main(args + ["--config", str(bad), "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and f"meta.{line.split()[0]}=" in err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, field", [
        ("astar_resolution = 0.0", "astar_resolution"),
        ("rigid_radius = -1.0", "rigid_radius"),
        ("[dwa]\nn_per_axis = 0", "dwa.n_per_axis"),
        ("[dwa]\ndt = 0.0", "dwa.dt"),
        ("[pf]\nv_max = nan", "pf.v_max"),
    ], ids=["astar_resolution", "rigid_radius", "dwa_n_per_axis", "dwa_dt", "pf_v_max"])
    def test_bad_baseline_field_exits_with_its_name(self, tmp_path, workspace_file, capsys,
                                                    text, field):
        # each of these ran before: into a ValueError traceback, planning with
        # a negative inflation, to "stuck" with no DWA candidates, into a
        # ZeroDivisionError row, or to "stuck"
        bad = tmp_path / "bad.toml"
        bad.write_text(f"{text}\n")
        method = field.split(".")[0] if "." in field else "astar_rigid"
        for args in (["run", "--workspace", str(workspace_file), "--method", method],
                     ["eval", "--workspaces", str(workspace_file.parent), "--methods", method]):
            capsys.readouterr()
            assert main(args + ["--config", str(bad), "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and f"config field {field}=" in err
            assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("text, field", [
        ("[episode.adapt]\neps = 0.0", "episode.adapt.eps"),
        ("[episode]\nmass_frame = 0.0", "episode.mass_frame"),
        ("[episode]\ninertia = 0.0", "episode.inertia"),
        ("[episode.adapt]\nu_box = -1.0", "episode.adapt.u_box"),
        ("[episode.adapt]\nv_min = inf", "episode.adapt.v_min"),
        ("[episode]\neps_stage = nan", "episode.eps_stage"),
        ("[episode]\nscale_floor = nan", "episode.scale_floor"),
        ("[episode]\nscale_floor = 2.0", "episode.scale_floor"),
        ("[episode.adapt]\nlam_zeta = 0.0", "episode.adapt.lam_zeta"),
        ("[episode.adapt]\nlam_u = 0.0", "episode.adapt.lam_u"),
    ], ids=["adapt_eps", "mass_frame", "inertia", "u_box", "v_min", "eps_stage",
            "scale_floor_nan", "scale_floor_above_cap", "lam_zeta", "lam_u"])
    def test_bad_step_field_exits_with_its_name(self, tmp_path, workspace_file, capsys,
                                                text, field):
        # on a test_id workspace these ran before to "diverged" (adapt eps,
        # v_min, scale_floor nan), into a traceback (mass_frame, inertia, and
        # the zero ridges' LinAlgError), to "stuck" (u_box), or to "success"
        # (eps_stage nan, with no exit ever attained; a floor above the cap)
        bad = tmp_path / "bad.toml"
        bad.write_text(f"{text}\n")
        for args in (["run", "--workspace", str(workspace_file)],
                     ["eval", "--workspaces", str(workspace_file.parent), "--methods", "grlsnam"]):
            capsys.readouterr()
            assert main(args + ["--config", str(bad), "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and f"config field {field}=" in err
            assert not (tmp_path / "x").exists()


class TestRunMethod:
    @pytest.mark.parametrize("method", ["astar_rigid", "astar_rigd"])
    def test_other_methods_are_unknown(self, method):
        ws = generate_workspace("test_id", 21)
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            run_method(ws, RunConfig(), method)

    def test_dwa_plans_for_the_disc_it_is_judged_as(self):
        # the ring robot's baselines are rigid discs of rigid_radius (0.4)
        ws, cfg = generate_workspace("test_id", 0), RunConfig()
        res = run_method(ws, cfg, "dwa")
        ref = run_baseline_episode(ws, "dwa", cfg.episode_config(), robot_radius=0.4)
        np.testing.assert_array_equal(res.qs, ref.qs)
        assert res.true_clearances.min() > 0

    def test_dwa_in_a_dungeon_scores_with_the_episode_d_hat(self):
        # the CLI's dungeon DWA is the baseline under dungeon_setup, d_hat 1.5
        ws = generate_dungeon(0, cells=3)
        res = run_method(ws, RunConfig(), "dwa")
        ref = run_baseline_episode(ws, "dwa", dungeon_setup()[0])
        assert res.termination == ref.termination
        np.testing.assert_array_equal(res.qs, ref.qs)

    def test_pf_in_a_dungeon_repels_within_the_episode_d_hat(self):
        # PFGains.d_hat None is the episode's d_hat (1.5 under dungeon_setup)
        ws = generate_dungeon(0, cells=3)
        res = run_method(ws, RunConfig(), "pf")
        ref = run_baseline_episode(ws, "pf", dungeon_setup()[0])
        assert res.termination == ref.termination
        np.testing.assert_array_equal(res.qs, ref.qs)


class TestPlotCommand:
    def test_polyline_matches_csv_after_view_transform(self, tmp_path, workspace_file):
        out = tmp_path / "ep"
        main(["run", "--workspace", str(workspace_file), "--method", "grlsnam",
              "--out", str(out), "--plot"])
        # re-render from artifacts only
        out2 = tmp_path / "replot"
        assert main(["plot", "--episode", str(out), "--out", str(out2)]) == 0
        svg_text = (out2 / "trajectory.svg").read_text()
        with open(out / "steps.csv") as fh:
            rows = list(csv.DictReader(fh))
        ws = read_workspace(str(workspace_file))
        # documented affine transform: px = pad + x * scale, py flipped
        pad, width = 20, 640
        scale = (width - 2 * pad) / ws.side
        x0, y0 = float(rows[0]["q2"]), float(rows[0]["q3"])
        px = pad + x0 * scale
        py = pad + (ws.side - y0) * scale
        poly = [ln for ln in svg_text.splitlines() if "polyline" in ln and "d22" in ln][0]
        first_pt = poly.split('points="')[1].split(" ")[0]
        gx, gy = map(float, first_pt.split(","))
        assert gx == pytest.approx(px, abs=0.02)
        assert gy == pytest.approx(py, abs=0.02)

    def test_timeseries_has_one_series_per_component(self, tmp_path, workspace_file):
        out = tmp_path / "ep"
        main(["run", "--workspace", str(workspace_file), "--method", "grlsnam",
              "--out", str(out)])
        main(["plot", "--episode", str(out)])
        text = (out / "timeseries.svg").read_text()
        for name in ("beta", "lam", "alpha_sum", "mu"):
            assert f">{name}</text>" in text

    @pytest.mark.parametrize("text, message", [
        ("t,q2,q3\n0,1,1\n1,1,x\n", "could not convert string to float: 'x'"),
        ("t,q2,q3\n0,1,1\n1,1\n", "line 3: 2 cells under 3 columns"),
        ("", "empty file"),
    ], ids=["not_a_number", "short_row", "empty"])
    def test_malformed_steps_exits_with_message(self, tmp_path, capsys, text, message):
        ep = tmp_path / "broken"
        ep.mkdir()
        (ep / "summary.json").write_text("{}")
        (ep / "steps.csv").write_text(text)
        assert main(["plot", "--episode", str(ep), "--out", str(tmp_path / "replot")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ep / 'steps.csv'}: ") and message in err
        assert not (tmp_path / "replot").exists()

    @pytest.mark.parametrize("method", ["astar_rigid", "astar_deform"])
    def test_plan_replots_the_same_bytes(self, tmp_path, workspace_file, method):
        out = tmp_path / method
        assert main(["run", "--workspace", str(workspace_file), "--method", method,
                     "--out", str(out), "--plot"]) == 0
        assert json.loads((out / "summary.json").read_text())["workspace"] == str(workspace_file)
        assert main(["plot", "--episode", str(out), "--out", str(tmp_path / "replot")]) == 0
        assert ((tmp_path / "replot" / "trajectory.svg").read_bytes()
                == (out / "trajectory.svg").read_bytes())
        assert not (tmp_path / "replot" / "timeseries.svg").exists()

    def test_plan_without_workspace_exits_with_message(self, tmp_path, capsys):
        ep = tmp_path / "plan"
        ep.mkdir()
        (ep / "summary.json").write_text('{"method": "astar_rigid", "feasible": true}')
        (ep / "steps.csv").write_text("t,q0,q1\n0,1,1\n1,2,2\n")
        assert main(["plot", "--episode", str(ep), "--out", str(tmp_path / "replot")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ep / 'summary.json'}: ") and "workspace" in err
        assert not (tmp_path / "replot").exists()

    def test_header_only_steps_draw_no_series(self, tmp_path):
        ep = tmp_path / "empty"
        ep.mkdir()
        (ep / "summary.json").write_text("{}")
        (ep / "steps.csv").write_text("t,q0,q1,q2,q3,H,clr,beta,lam,alpha_sum,mu\n")
        assert main(["plot", "--episode", str(ep)]) == 0
        assert "<polyline" not in (ep / "timeseries.svg").read_text()
        assert not (ep / "trajectory.svg").exists()  # no workspace to draw on

    def test_missing_columns_schema_error(self, tmp_path, capsys):
        ep = tmp_path / "broken"
        ep.mkdir()
        (ep / "summary.json").write_text("{}")
        (ep / "steps.csv").write_text("a,b\n1,2\n")
        assert main(["plot", "--episode", str(ep)]) == 2
        assert "columns" in capsys.readouterr().err

    def test_malformed_summary_exits_with_message(self, tmp_path, capsys):
        ep = tmp_path / "broken"
        ep.mkdir()
        (ep / "summary.json").write_text("{")
        (ep / "steps.csv").write_text("t,q2,q3\n0,1,1\n")
        assert main(["plot", "--episode", str(ep)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {ep / 'summary.json'}: ")

    @pytest.mark.parametrize("damage", ["deleted", "truncated"])
    def test_unreadable_workspace_exits_with_message(self, tmp_path, workspace_file, capsys,
                                                     damage):
        moved = tmp_path / "ws.json"
        moved.write_text(workspace_file.read_text())
        out = tmp_path / "ep"
        assert main(["run", "--workspace", str(moved), "--method", "pf", "--out", str(out)]) == 0
        if damage == "deleted":
            moved.unlink()
        else:
            moved.write_text(moved.read_text()[:40])
        capsys.readouterr()
        assert main(["plot", "--episode", str(out), "--out", str(tmp_path / "replot")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {moved}: ")
        assert not (tmp_path / "replot").exists()


def per_episode_rows(out):
    """``per_episode.json`` of an eval in ``out`` without the wall times."""
    doc = json.loads((out / "per_episode.json").read_text())
    for by_ws in doc.values():
        for row in by_ws.values():
            row.pop("wall_time", None)  # planner and error rows have none
    return doc


def same_json(a, b):
    """Equal as sorted JSON text, so NaN fields compare equal."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# runs `hamnav eval` on its arguments, then prints its exit status and the
# process-pool modules loaded (a JSON list)
NO_POOL = """
import json, sys
from hamnav.cli import main
code = main(sys.argv[1:])
print(code)
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("concurrent", "multiprocessing"))))
"""


class TestEvalCommand:
    def test_table_schema_and_astar_mapping(self, tmp_path):
        ws_dir = tmp_path / "ws"
        main(["generate", "--family", "test_id", "--count", "1", "--seed", "21",
              "--out", str(ws_dir)])
        out = tmp_path / "eval"
        assert main(["eval", "--workspaces", str(ws_dir), "--methods",
                     "grlsnam,astar_rigid", "--out", str(out)]) == 0
        with open(out / "comparison.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "SPL", "Detour", "MinClear", "Mapping"]
        by_method = {r[0]: r for r in rows[1:]}
        assert float(by_method["astar_rigid"][4]) == 1.0
        md = (out / "comparison.md").read_text()
        assert "| Method | SPL | Detour | MinClear | Mapping |" in md

    def test_one_reference_plan_per_workspace(self, tmp_path, monkeypatch):
        import hamnav.cli as cli

        calls = []

        def counted(ws, resolution, radius):
            calls.append(radius)
            return astar_rigid(ws, resolution, radius)

        monkeypatch.setattr(cli, "astar_rigid", counted)
        ws_dir = tmp_path / "ws"
        main(["generate", "--family", "test_id", "--count", "2", "--seed", "21",
              "--out", str(ws_dir)])
        cfgp = tmp_path / "point.toml"
        save_config(RunConfig(robot="point"), cfgp)
        assert main(["eval", "--config", str(cfgp), "--workspaces", str(ws_dir),
                     "--methods", "astar_deform,astar_rigid", "--out", str(tmp_path / "e")]) == 0
        # one reference plan per workspace, which is also the astar_rigid row's
        assert calls == [0.4, 0.4]
        calls.clear()
        assert main(["run", "--workspace", str(ws_dir / "test_id_0000.json"), "--method",
                     "astar_deform", "--out", str(tmp_path / "r")]) == 0
        assert calls == []

    @pytest.mark.parametrize("robot", ["ring", "point", "grid"])
    def test_rows_as_from_separate_reference_and_plans(self, robot):
        # the rows _eval_one builds from one reference plan equal those built
        # from a reference plan of their own and one plan per planner row
        methods = ["pf", "astar_rigid", "astar_deform"]
        cfg = RunConfig(robot="ring" if robot == "ring" else "point")
        ws = generate_workspace("test_id", 1)
        if robot == "grid":
            # a disc wider than the 0.5-m cells plans a longer path than the
            # one-cell reference disc
            cfg.rigid_radius, ws = 0.6, generate_dungeon(0, cells=3)
        rows = _eval_one(ws, cfg, methods)
        radius = ws.grid.cell_size if robot == "grid" else cfg.rigid_radius
        ref = astar_rigid(ws, cfg.astar_resolution, radius)
        lref = ref.length if ref.feasible else np.nan
        for method in methods:
            if method == "pf":
                want = episode_metrics(run_method(ws, cfg, "pf"), lref, cfg.d_thr).row()
                del want["wall_time"], rows[method]["wall_time"]
            else:
                plan = plan_method(ws, cfg, method)
                r_min = cfg.rigid_radius if method == "astar_rigid" else cfg.deform_r_min
                want = {"success": int(plan.feasible),
                        "spl": spl(plan.feasible, plan.length, lref),
                        "detour": plan.length / lref if plan.feasible else np.nan,
                        "min_clearance": r_min, "mapping_ratio": 1.0}
            assert json.dumps(rows[method], sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("robot", ["ring", "point"])
    def test_mixed_directory_rows_as_each_alone(self, tmp_path, robot):
        # one config serves a dungeon and two test_id workspaces: each row of
        # their eval equals the row of that workspace evaluated alone
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        suite = {"dungeon.json": generate_dungeon(0, cells=3),
                 "test_id_0.json": generate_workspace("test_id", 21),
                 "test_id_1.json": generate_workspace("test_id", 22)}
        for name, ws in suite.items():
            save_workspace(ws, mixed / name)
        cfgp = tmp_path / "cfg.toml"
        save_config(RunConfig(robot=robot), cfgp)
        methods = ",".join(RunConfig.METHODS)

        def rows(ws_dir, out):
            assert main(["eval", "--config", str(cfgp), "--workspaces", str(ws_dir),
                         "--methods", methods, "--out", str(out)]) == 0
            return per_episode_rows(out)

        together = rows(mixed, tmp_path / "together")
        for i, name in enumerate(sorted(suite)):
            alone_dir = tmp_path / f"alone{i}"
            alone_dir.mkdir()
            (alone_dir / name).write_bytes((mixed / name).read_bytes())
            alone = rows(alone_dir, tmp_path / f"alone{i}_eval")
            for m in RunConfig.METHODS:
                assert same_json(together[m][str(i)], alone[m]["0"]), (name, m)

    def test_eval_loads_no_process_pool(self, tmp_path):
        import hamnav.cli as cli

        ws_dir = tmp_path / "ws"
        ws_dir.mkdir()
        save_workspace(generate_workspace("test_id", 21), ws_dir / "test_id.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parent.parent)]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        argv = ["eval", "--workspaces", str(ws_dir), "--methods", "pf,astar_rigid",
                "--out", str(tmp_path / "e")]
        out = subprocess.run([sys.executable, "-c", NO_POOL, *argv], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout.splitlines()
        assert out[-2] == "0" and json.loads(out[-1]) == []

    def test_failing_episode_becomes_error_row(self, tmp_path, monkeypatch, capsys):
        import hamnav.cli as cli

        ws_dir = tmp_path / "ws"
        main(["generate", "--family", "test_id", "--count", "2", "--seed", "21",
              "--out", str(ws_dir)])
        methods = "pf,astar_rigid"
        clean = tmp_path / "clean"
        assert main(["eval", "--workspaces", str(ws_dir), "--methods", methods,
                     "--out", str(clean)]) == 0
        real = cli.run_method

        def flaky(ws, cfg, method=None):
            if method == "pf" and ws.seed == 22:
                raise RuntimeError("boom")
            return real(ws, cfg, method)

        monkeypatch.setattr(cli, "run_method", flaky)
        faulty = tmp_path / "faulty"
        capsys.readouterr()
        assert main(["eval", "--workspaces", str(ws_dir), "--methods", methods,
                     "--out", str(faulty)]) == 0
        assert "pf on test_id_0001.json: RuntimeError: boom" in capsys.readouterr().err
        got, want = per_episode_rows(faulty), per_episode_rows(clean)
        assert got["pf"].pop("1") == {"success": 0, "spl": 0.0, "termination": "error",
                                      "error": "RuntimeError: boom"}
        del want["pf"]["1"]
        assert same_json(got, want)
        # the error row counts as a failure in SPL and carries no mapping ratio
        table = {r[0]: r for r in csv.reader((faulty / "comparison.csv").read_text().splitlines())}
        pf0 = want["pf"]["0"]
        assert float(table["pf"][1]) == pytest.approx(pf0["spl"] / 2, abs=1e-4)
        assert float(table["pf"][4]) == pytest.approx(pf0["mapping_ratio"], abs=1e-4)

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        (json.dumps(MALFORMED_START), "outside [0,10.0]^2"),
        (json.dumps(THREE_COORD_START), "start must be two finite numbers"),
        (json.dumps(NAN_OBSTACLES), "obstacle centre must be two finite numbers"),
        (json.dumps(ZERO_SIDE), "side L must be > 0 and finite"),
    ], ids=["bad_json", "start_outside", "start_three_coordinates", "nan_obstacles",
            "zero_side"])
    def test_malformed_workspace_stops_the_batch_first(self, tmp_path, monkeypatch, capsys,
                                                       text, message):
        import hamnav.cli as cli

        ws_dir = tmp_path / "ws"
        main(["generate", "--family", "test_id", "--count", "2", "--seed", "21",
              "--out", str(ws_dir)])
        bad = ws_dir / "test_id_0000b.json"  # sorted between the two good files
        bad.write_text(text)
        ran = []
        monkeypatch.setattr(cli, "_eval_one", lambda *job: ran.append(job))
        capsys.readouterr()
        rc = main(["eval", "--workspaces", str(ws_dir), "--methods", "pf",
                   "--out", str(tmp_path / "e")])
        assert rc == 2 and ran == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err
        assert not (tmp_path / "e").exists()

    def test_unknown_method_stops_the_batch_first(self, tmp_path, monkeypatch, capsys):
        import hamnav.cli as cli

        ws_dir = tmp_path / "ws"
        main(["generate", "--family", "test_id", "--count", "1", "--seed", "21",
              "--out", str(ws_dir)])
        ran = []
        monkeypatch.setattr(cli, "_eval_one", lambda *job: ran.append(job))
        capsys.readouterr()
        rc = main(["eval", "--workspaces", str(ws_dir), "--methods", "pf,astar_rigd",
                   "--out", str(tmp_path / "e")])
        assert rc == 2 and ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: unknown methods ['astar_rigd']")
        assert not (tmp_path / "e").exists()

    def test_no_methods_error(self, tmp_path):
        assert main(["eval", "--workspaces", str(tmp_path), "--methods", "",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_config_field_exits_with_its_name(self, tmp_path, capsys):
        ws_dir = tmp_path / "ws"
        main(["generate", "--family", "test_id", "--count", "1", "--seed", "21",
              "--out", str(ws_dir)])
        old = tmp_path / "old.toml"
        old.write_text("[episode]\ncontact_window = 20\n")
        rc = main(["eval", "--config", str(old), "--workspaces", str(ws_dir),
                   "--methods", "pf", "--out", str(tmp_path / "e")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "episode.contact_window" in err
        assert not (tmp_path / "e").exists()

    def test_out_of_range_config_exits_with_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[episode]\ntau = -5.0\n")
        rc = main(["eval", "--config", str(bad), "--workspaces", str(tmp_path),
                   "--methods", "pf", "--out", str(tmp_path / "e")])
        assert rc == 2
        assert "config error: " in capsys.readouterr().err


class TestTrainCommand:
    def test_dataset_then_train(self, tmp_path):
        data = tmp_path / "data"
        assert main(["make-dataset", "--count", "2", "--seed", "5",
                     "--out", str(data)]) == 0
        cfgp = tmp_path / "cfg.toml"
        cfg = RunConfig()
        cfg.train.epochs = 2
        save_config(cfg, cfgp)
        out = tmp_path / "model"
        assert main(["train", "--dataset", str(data), "--config", str(cfgp),
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.bin").exists()
        with open(out / "loss_curve.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss"] and len(rows) == 3

    def test_unknown_config_field_exits_with_its_name(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["make-dataset", "--count", "1", "--seed", "5",
                     "--out", str(data)]) == 0
        old = tmp_path / "old.toml"
        old.write_text("[episode]\ncontact_window = 20\n")
        rc = main(["train", "--dataset", str(data), "--config", str(old),
                   "--out", str(tmp_path / "model")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "episode.contact_window" in err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("line, field", [
        ("fd_step = 0.0", "fd_step"),
        ("horizons = []", "horizons"),
        ("horizons = [2, -1]", "horizons"),
        ("epochs = 0", "epochs"),
        ("epochs = -3", "epochs"),
        ("weights = [1.0, 2.0]", "weights"),
        ("weights = [1.0, 1.0, -0.1, 0.5]", "weights"),
        ("d_hat = 0.0", "d_hat"),
        ("tau = 0.0", "tau"),
        ("clip_norm = nan", "clip_norm"),
        ("m_trials = -1", "m_trials"),
        # out of range, where training used to run on: with the multi-start
        # penalty silently off, at any step, or into a FloatingPointError
        ("r_min = nan", "r_min"),
        ("r_min = -1e308", "r_min"),
        ("tau = 1e9", "tau"),
        ("d_hat = inf", "d_hat"),
    ])
    def test_malformed_train_config_exits_with_its_name(self, tmp_path, capsys, line, field):
        data = tmp_path / "data"
        assert main(["make-dataset", "--count", "1", "--seed", "5", "--out", str(data)]) == 0
        bad = tmp_path / "bad.toml"
        bad.write_text(f"[train]\n{line}\n")
        capsys.readouterr()
        rc = main(["train", "--dataset", str(data), "--config", str(bad),
                   "--out", str(tmp_path / "model")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"train.{field}" in err
        assert not (tmp_path / "model").exists()

    def test_obstacle_free_scene_trains(self, tmp_path):
        # a scene with no obstacles: no alpha weights and no multi-start trials
        data = tmp_path / "data"
        data.mkdir()
        scene = SceneDatum([], np.array([4.0, 4.0]), np.array([0.0, 0.0, 1.0, 1.0]),
                           2.0, 1.5, 0.0, 4.0)
        scene.q_ref, scene.v_ref = scene_rollout(scene, scene.ref_weights(), 6, 0.03, 1.0)
        (data / "scene_0000.json").write_text(json.dumps(scene.to_json()))
        cfgp = tmp_path / "cfg.toml"
        cfg = RunConfig()
        cfg.train.epochs = 2
        save_config(cfg, cfgp)
        assert main(["train", "--dataset", str(data), "--config", str(cfgp),
                     "--out", str(tmp_path / "model")]) == 0
        with open(tmp_path / "model" / "loss_curve.csv") as fh:
            assert len(list(csv.reader(fh))) == 3

    @pytest.mark.parametrize("field", ["q_ref", "v_ref"])
    def test_scene_without_reference_exits_with_its_name(self, tmp_path, capsys, field):
        data = tmp_path / "data"
        data.mkdir()
        doc = make_reference_dataset(1, seed=5)[0].to_json()
        doc[field] = None
        bad = data / "scene_0000.json"
        bad.write_text(json.dumps(doc))
        rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "model")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "q_ref" in err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: json.dumps(doc)[:100], "line 1 column"),
        (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "goal"}),
         "missing field 'goal'"),
        (lambda doc: json.dumps({**doc, "obstacles": [{"c": [1.0, 1.0], "r": -0.5}]}),
         "radius must be > 0"),
        (lambda doc: json.dumps({**doc, "goal": [1.0, 2.0, 3.0]}), "a goal of 2 numbers"),
        (lambda doc: json.dumps({**doc, "q_ref": [[0.0, 1.0]]}), "(T, 4) arrays"),
        (lambda doc: "[1, 2]", "list indices must be integers"),
    ], ids=["truncated", "missing_goal", "bad_radius", "goal_of_3", "narrow_q_ref",
            "not_an_object"])
    def test_malformed_scene_exits_with_message(self, tmp_path, capsys, edit, message):
        data = tmp_path / "data"
        assert main(["make-dataset", "--count", "2", "--seed", "5", "--out", str(data)]) == 0
        bad = data / "scene_0001.json"
        bad.write_text(edit(json.loads(bad.read_text())))
        capsys.readouterr()
        rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "model")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}: ") and message in err
        assert not (tmp_path / "model").exists()

    def test_empty_dataset_errors(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["train", "--dataset", str(empty), "--out", str(tmp_path)]) == 2
