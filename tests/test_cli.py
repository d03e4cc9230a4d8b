"""Command-line entry points, exercised in-process."""

import json
import math

import pytest

import nfvplace as nv
from nfvplace.cli import main


def small_config_dict(slots=40, seed=5):
    return {
        "infrastructure": {
            "inps": [
                {"failure_prob": 0.1, "servers": [[10]]},
                {"failure_prob": 0.2, "servers": [[10]]},
            ],
            "alpha": [1.0],
            "beta": math.log(2.0) / 0.1,
            "v_base": 0.2,
            "deployment_cost": [[0.0], [0.0]],
        },
        "service_types": [
            {
                "name": "tiny",
                "failure_cap": 0.05,
                "departure_prob": 0.5,
                "bandwidth": 1.0,
                "vnfs": [{"vnf_type": 0, "demands": [5]}],
                "arrival_pmf": [0.5, 0.5],
                "admission_reward": 100.0,
                "sigma_max": 2,
            }
        ],
        "mdp": {"epsilon": 1e-8, "seed": 3},
        "sim": {"slots": slots, "seed": seed},
    }


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(small_config_dict()))
    return str(path)


class TestSolve:
    def test_writes_policy_and_trace(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "policy.json")
        assert main(["solve", "--config", cfg_path, "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        policy = nv.Policy.load(out)
        assert policy.fingerprint == nv.load_config(cfg_path).fingerprint
        trace = (tmp_path / "policy.json.trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,mean_value,sup_diff"
        assert len(trace) == policy.iterations + 1

    def test_repeat_solve_is_byte_identical(self, cfg_path, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["solve", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["solve", "--config", cfg_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_artifact_metadata(self, cfg_path, tmp_path):
        out = tmp_path / "p.json"
        assert main(["solve", "--config", cfg_path, "--out", str(out), "--seed", "9"]) == 0
        assert nv.Policy.load(out).seed == 9


class TestSimulate:
    def test_static_strategy_outputs(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["simulate", "--config", cfg_path, "--strategy", "trellis", "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slots"] == 40
        assert 0.0 <= payload["admission_ratio"] <= 1.0
        assert out.exists()
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["slots"] == 40

    def test_mdp_strategy_needs_policy_flag(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["simulate", "--config", cfg_path, "--strategy", "mdp", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_mdp_strategy_with_policy(self, cfg_path, tmp_path, capsys):
        pol = tmp_path / "p.json"
        assert main(["solve", "--config", cfg_path, "--out", str(pol)]) == 0
        out = tmp_path / "run.csv"
        rc = main([
            "simulate", "--config", cfg_path, "--strategy", "mdp",
            "--policy", str(pol), "--out", str(out), "--slots", "30",
        ])
        assert rc == 0
        capsys.readouterr()
        assert out.exists()

    def test_policy_fingerprint_mismatch_rejected(self, cfg_path, tmp_path, capsys):
        pol = tmp_path / "p.json"
        assert main(["solve", "--config", cfg_path, "--out", str(pol)]) == 0
        other = small_config_dict()
        other["infrastructure"]["inps"][0]["failure_prob"] = 0.15
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        rc = main([
            "simulate", "--config", str(other_path), "--strategy", "mdp",
            "--policy", str(pol), "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "fingerprint" in err["message"]

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("actions", lambda p: p.pop("actions")),
            ("actions", lambda p: p["actions"].pop()),
            ("arrangements", lambda p: p["arrangements"].pop()),
            ("values", lambda p: p["values"].pop()),
            ("departure_mode", lambda p: p.update(departure_mode="literal")),
            # two admissions where none arrived, and above sigma_max elsewhere
            ("actions[0]", lambda p: p.update(actions=[[2]] * len(p["actions"]))),
            ("arrangements[0]", lambda p: p.update(arrangements=[[0, 0]] * len(p["arrangements"]))),
        ],
        ids=[
            "missing-actions", "short-actions", "short-arrangements", "short-values", "literal",
            "infeasible-actions", "arrangement-not-an-ordering",
        ],
    )
    def test_malformed_policy_rejected(self, cfg_path, tmp_path, capsys, field, edit):
        pol = tmp_path / "p.json"
        assert main(["solve", "--config", cfg_path, "--out", str(pol)]) == 0
        payload = json.loads(pol.read_text())
        edit(payload)
        pol.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main([
            "simulate", "--config", cfg_path, "--strategy", "mdp",
            "--policy", str(pol), "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{field}:")

    def test_unknown_strategy_rejected_by_parser(self, cfg_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", cfg_path, "--strategy", "best", "--out", str(tmp_path / "x.csv")])


class TestCompare:
    def test_grid_csv_and_summary(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main([
            "compare", "--config", cfg_path,
            "--strategies", "trellis,min_resource",
            "--seeds", "1,2,3", "--slots", "25", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("strategy,seed,")
        assert len(lines) == 1 + 2 * 3
        assert [l.split(",")[0] for l in lines[1:]] == ["trellis"] * 3 + ["min_resource"] * 3
        summary = json.loads(capsys.readouterr().out)
        stats = summary["strategies"]["trellis"]["admission_ratio"]
        assert set(stats) == {"mean", "stddev"}

    def test_rows_are_deterministic(self, cfg_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["compare", "--config", cfg_path, "--strategies", "cera,min_reliability",
                "--seeds", "4,5", "--slots", "20"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_seed_list_rejected(self, cfg_path, tmp_path, capsys):
        rc = main(["compare", "--config", cfg_path, "--strategies", "trellis",
                   "--seeds", "1,two", "--out", str(tmp_path / "x.csv")])
        assert rc != 0
        capsys.readouterr()


class TestSlotsOverride:
    @pytest.mark.parametrize("slots", ["-1", "0"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--strategy", "trellis"],
        ["compare", "--strategies", "trellis", "--seeds", "1"],
    ])
    def test_non_positive_slots_exit_two(self, cfg_path, tmp_path, capsys, command, slots):
        out = tmp_path / "x.csv"
        rc = main(command + ["--config", cfg_path, "--slots", slots, "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("--slots:")
        assert not out.exists()


class TestOracle:
    def test_inline_instance(self, cfg_path, capsys):
        rc = main(["oracle", "--config", cfg_path, "--instance", "0,0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["objective"] == "reliable"
        # both services place main plus backup, 5 units each at costs 1 and 2
        assert payload["objective_value"] == pytest.approx(30.0)
        assert len(payload["services"]) == 2
        assert all(e <= 0.05 for e in payload["failure_probs"])

    def test_instance_file(self, cfg_path, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"types": [0]}))
        rc = main(["oracle", "--config", cfg_path, "--instance", str(inst)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True

    def test_large_infrastructure_refused(self, tmp_path, capsys):
        bundled = nv.seven_providers()
        path = tmp_path / "big.json"
        path.write_text(json.dumps(bundled.source))
        rc = main(["oracle", "--config", str(path), "--instance", "0"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OracleError"

    def test_bad_type_index_rejected(self, cfg_path, capsys):
        rc = main(["oracle", "--config", cfg_path, "--instance", "7"])
        assert rc != 0
        capsys.readouterr()


class TestErrors:
    def test_missing_config_exits_two(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--strategy", "trellis", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    # link_bandwidth is not a field: servers are the only capacity, so the
    # key fails as unknown before its table is read
    @pytest.mark.parametrize("table, message", [
        ("link_cost", "infrastructure.link_cost.matrix: expected a numeric table"),
        ("link_bandwidth", "infrastructure.link_bandwidth: unknown field"),
    ], ids=["link_cost", "link_bandwidth"])
    def test_non_numeric_link_table_exits_two(self, tmp_path, capsys, table, message):
        cfg = small_config_dict()
        cfg["infrastructure"][table] = {"matrix": [[0.0, "x"], ["x", 0.0]]}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--strategy", "trellis",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(message)

    def test_ambiguous_link_table_exits_two(self, tmp_path, capsys):
        # an all-zero matrix next to a default must not load as all zeros
        cfg = small_config_dict()
        cfg["infrastructure"]["link_cost"] = {"matrix": [[0.0, 0.0], [0.0, 0.0]], "default": 5.0}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--strategy", "trellis",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("infrastructure.link_cost: expected one of")
        assert not (tmp_path / "x.csv").exists()

    # each loaded before finite numbers were required, and the trellis then
    # found no best move and raised out of main
    @pytest.mark.parametrize("edit, prefix", [
        (lambda cfg: cfg["infrastructure"].update(link_cost={"default": math.inf}),
         "infrastructure.link_cost.default"),
        (lambda cfg: cfg["service_types"][0].update(bandwidth=math.nan), "service_types[0].bandwidth"),
        (lambda cfg: cfg["service_types"][0].update(penalty=math.nan), "service_types[0].penalty"),
    ], ids=["link-cost", "bandwidth", "penalty"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, edit, prefix):
        cfg = small_config_dict()
        cfg["service_types"][0]["vnfs"] *= 2
        edit(cfg)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--strategy", "trellis",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{prefix}: expected a finite number")

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    # int() used to truncate both, so the run used capacity 9 and demand 2
    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["infrastructure"]["inps"][0].update(servers=[[9.9]]),
         "infrastructure.inps[0].servers[0][0]: expected an integer, got float"),
        (lambda cfg: cfg["service_types"][0]["vnfs"][0].update(demands=[2.7]),
         "service_types[0].vnfs[0].demands[0]: expected an integer, got float"),
    ], ids=["server", "demand"])
    def test_fractional_amount_exits_two(self, tmp_path, capsys, edit, message):
        cfg = small_config_dict()
        edit(cfg)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--strategy", "trellis",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == message
        assert not (tmp_path / "x.csv").exists()
