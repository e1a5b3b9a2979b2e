import json
import os

import pytest

from ridepool.cli import main
from ridepool.config import CONFIG_KEYS, ConfigError, parse_config

TOWN = {"--nodes": "data/town/nodes.csv", "--edges": "data/town/edges.csv",
        "--requests": "data/town/requests.csv", "--vehicles": "data/town/vehicles.csv"}


def town_args(*extra, **over):
    files = dict(TOWN)
    files.update(over)
    out = []
    for k, v in files.items():
        out += [k, v]
    return out + list(extra)


# -- config parsing -----------------------------------------------------------------

def test_defaults_match_paper_settings(tmp_path):
    empty = tmp_path / "empty.conf"
    empty.write_text("")
    cfg = parse_config(str(empty))
    assert cfg.epoch_interval == 60.0
    assert cfg.capacity == 4
    assert cfg.max_wait == 300.0
    assert cfg.max_detour == 600.0
    assert cfg.enumerate_limit == 12


def test_flag_overrides_file(tmp_path):
    f = tmp_path / "c.conf"
    f.write_text("algo = la\n")
    cfg = parse_config(str(f), {"algo": "la-mr-ce"})
    assert cfg.algo == "la-mr-ce"


def test_zero_interval_rejected(tmp_path):
    f = tmp_path / "c.conf"
    f.write_text("epoch.interval = 0\n")
    with pytest.raises(ConfigError):
        parse_config(str(f))


def test_unknown_key_rejected(tmp_path):
    f = tmp_path / "c.conf"
    f.write_text("nonsense.key = 1\n")
    with pytest.raises(ConfigError, match="nonsense.key"):
        parse_config(str(f))


# -- subcommands ------------------------------------------------------------------------

def test_validate_ok():
    assert main(["validate"] + town_args()) == 0


def test_simulate_missing_requests_exits_2(tmp_path, capsys):
    rc = main(["simulate"] + town_args("--out", str(tmp_path / "o"),
                                       **{"--requests": "data/town/missing.csv"}))
    assert rc == 2
    assert "missing.csv" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path):
    rc = main(["validate"] + town_args("--set", "epoch.interval=0"))
    assert rc == 2


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "run1"
    rc = main(["simulate"] + town_args("--out", str(out), "--algo", "la",
                                       "--horizon", "300"))
    assert rc == 0
    for name in ("metrics.csv", "epochs.csv", "events.csv", "run_manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["algo"] == "la"
    assert set(manifest["inputs"]) == {"nodes", "edges", "requests", "vehicles"}
    assert all(len(d) == 64 for d in manifest["inputs"].values())
    # every config key materialized in the manifest
    assert set(manifest["config"]) == set(CONFIG_KEYS)


def test_repeat_simulate_events_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv1 = ["simulate"] + town_args("--out", str(out1), "--algo", "la-mr",
                                     "--horizon", "300")
    argv2 = ["simulate"] + town_args("--out", str(out2), "--algo", "la-mr",
                                     "--horizon", "300")
    assert main(argv1) == 0 and main(argv2) == 0
    assert (out1 / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_compare_writes_table(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare"] + town_args("--out", str(out), "--horizon", "240",
                                      "--algos", "la,la-mr-ce"))
    assert rc == 0
    text = (out / "compare.csv").read_text().splitlines()
    assert text[0].startswith("algo,service_rate")
    assert len(text) == 3
    printed = capsys.readouterr().out
    assert "la-mr-ce" in printed


def test_gen_demand_roundtrip(tmp_path):
    out_csv = tmp_path / "requests.csv"
    rc = main(["gen-demand", "--nodes", "data/town/nodes.csv",
               "--edges", "data/town/edges.csv", "--rate", "3",
               "--horizon-s", "120", "--seed", "2", "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 6  # header + 3/min * 2 min
    rc2 = main(["validate"] + town_args(**{"--requests": str(out_csv)}))
    assert rc2 == 0


def test_analyze_lag_outputs(tmp_path):
    out = tmp_path / "runlag"
    main(["simulate"] + town_args("--out", str(out), "--horizon", "600"))
    rc = main(["analyze-lag", "--epochs", str(out / "epochs.csv"),
               "--max-lag", "3", "--out-prefix", str(tmp_path / "lag")])
    assert rc == 0
    assert (tmp_path / "lag_slopes.csv").exists()
    assert (tmp_path / "lag_lag1.svg").exists()
    assert (tmp_path / "lag_slopes.svg").exists()


def test_help_documents_config_keys(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    text = capsys.readouterr().out
    for key in CONFIG_KEYS:
        assert key in text


def test_env_var_default_config(tmp_path, monkeypatch):
    f = tmp_path / "env.conf"
    f.write_text("algo = la-mr\n")
    monkeypatch.setenv("RIDEPOOL_CONFIG", str(f))
    out = tmp_path / "envrun"
    rc = main(["simulate"] + town_args("--out", str(out), "--horizon", "120"))
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["algo"] == "la-mr"


def test_removed_threads_key_rejected():
    with pytest.raises(ConfigError, match="threads"):
        parse_config(None, {"threads": "2"})
