import json

import pytest

from ldplab.cli import EXIT_CONFIG, EXIT_OK, main


def write_config(tmp_path, **overrides):
    payload = {
        "protocol": "ahead",
        "dataset": {"kind": "gaussian", "count": 3000, "mean": 32.0, "std": 10.0},
        "domain_size": 64,
        "rho": 0.0,
        "attack": "none",
        "n_queries": 2,
        "seeds": [0],
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_succeeds(tmp_path, capsys):
    code = main(["run", "--config", write_config(tmp_path)])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["protocol"] == "ahead"
    assert summary["n_trials"] == 2


def test_run_writes_output(tmp_path):
    out = tmp_path / "results.jsonl"
    code = main(["run", "--config", write_config(tmp_path), "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    assert out.with_suffix(".summary.csv").exists()


def test_sweep_runs_grid_of_settings(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--config",
            write_config(tmp_path, rho=0.1, attack="mga"),
            "--rhos",
            "0.05,0.1",
        ]
    )
    assert code == EXIT_OK
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
    assert len(lines) == 2
    assert {json.loads(l)["rho"] for l in lines} == {0.05, 0.1}


def test_detect_forces_defense(tmp_path, capsys):
    code = main(["detect", "--config", write_config(tmp_path, rho=0.1, attack="mga")])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["detection_rate"] is not None


def test_prism_check(capsys):
    code = main(["prism-check", "--epsilon", "1.0"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["violates_claimed_bound"] is True
    assert payload["closed_form_ratio"] == pytest.approx(
        payload["bruteforce_ratio"], rel=1e-12
    )


def test_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG


def test_invalid_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG


def test_invalid_field_config(tmp_path):
    assert main(["run", "--config", write_config(tmp_path, protocol="nope")]) == EXIT_CONFIG


def test_unknown_field_config(tmp_path):
    assert main(["run", "--config", write_config(tmp_path, bogus=1)]) == EXIT_CONFIG


def test_protocol_config_error_exits_before_data(tmp_path, monkeypatch):
    from ldplab import harness

    def no_data(*args, **kwargs):
        raise AssertionError("data generated for a bad config")

    monkeypatch.setattr(harness, "gen_synthetic", no_data)
    for bad in (
        {"domain_size": 1000},
        {"protocol": "hdg", "family_prime": 10, "domain_size": 64},
        {"protocol": "hdg", "dims_total": 1, "dims_query": 1, "domain_size": 64},
        {"dataset": {"kind": "csv"}},
        {"dataset": {"kind": "gaussian", "count": "many"}},
    ):
        assert main(["run", "--config", write_config(tmp_path, **bad)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides, extra",
    [
        ({"strategy": "bogus", "rho": 0.1, "attack": "aot"}, []),
        ({"protocol": "hdg", "dataset": {"kind": "gaussian", "count": 14}}, []),
        ({"rho": 0.1}, ["--attacks", "none,mga,haog"]),
        ({}, ["--epsilons", "1,x"]),
        ({}, ["--rhos", "0.1,"]),
    ],
    ids=["strategy", "small-hdg", "sweep-attacks", "sweep-epsilons", "sweep-rhos"],
)
def test_boundary_errors_exit_before_data_and_files(tmp_path, monkeypatch, overrides, extra):
    from ldplab import harness

    def no_data(*args, **kwargs):
        raise AssertionError("data generated for a bad config")

    monkeypatch.setattr(harness, "gen_synthetic", no_data)
    out = tmp_path / "out"
    out.mkdir()
    config = write_config(tmp_path, **overrides)
    command = "sweep" if extra else "run"
    target = str(out) if extra else str(out / "results.jsonl")
    assert main([command, "--config", config, "--out", target, *extra]) == EXIT_CONFIG
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "payload, extra",
    [
        ({"protocol": "hdg", "dims_query": 1}, []),
        ([{"protocol": "ahead"}], ["--seed", "1"]),
        ({}, ["--seed", "-1"]),
        ({"seeds": [0, -2]}, []),
    ],
    ids=["hdg-1d-query", "non-object", "negative-seed-flag", "negative-seed"],
)
def test_run_config_errors_exit_before_data_and_files(tmp_path, monkeypatch, payload, extra):
    from ldplab import harness

    def no_data(*args, **kwargs):
        raise AssertionError("data generated for a bad config")

    monkeypatch.setattr(harness, "gen_synthetic", no_data)
    out = tmp_path / "out"
    out.mkdir()
    if isinstance(payload, dict):
        config = write_config(tmp_path, **payload)
    else:
        config = tmp_path / "list.json"
        config.write_text(json.dumps(payload))
    args = ["run", "--config", str(config), "--out", str(out / "results.jsonl"), *extra]
    assert main(args) == EXIT_CONFIG
    assert list(out.iterdir()) == []
