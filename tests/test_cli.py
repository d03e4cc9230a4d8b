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
        # only the empty system admits its arrival, so no admission ever
        # lands in the full state and its estimate stays at zero
        assert payload["zero_action_states"] == 5
        assert payload["unestimated_actives"] == 1
        policy = nv.Policy.load(out)
        assert policy.fingerprint == nv.load_config(cfg_path).fingerprint
        trace = (tmp_path / "policy.json.trace.csv").read_text().splitlines()
        assert trace[0] == (
            "iteration,mean_value,sup_diff,trellis_searches,memo_hits,continuations"
        )
        assert len(trace) == policy.iterations + 1
        # every sweep scores the same (state, action) pairs, searched or memoized
        scorings = {sum(map(int, row.split(",")[3:5])) for row in trace[1:]}
        assert len(scorings) == 1

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
            # each loaded before, coerced: "false" as True, 1.7 as 1, "0.5" as 0.5
            ("converged", lambda p: p.update(converged="false")),
            ("seed", lambda p: p.update(seed=1.7)),
            ("iterations", lambda p: p.update(iterations=2.9)),
            ("num_arrangements", lambda p: p.update(num_arrangements=True)),
            ("gamma", lambda p: p.update(gamma="0.5")),
            ("values[0]", lambda p: p["values"].__setitem__(0, "1.0")),
            ("actions[0][0]", lambda p: p["actions"][0].__setitem__(0, 0.0)),
            # stored solver settings obey the config's rules
            ("gamma", lambda p: p.update(gamma=1.5)),
            ("seed", lambda p: p.update(seed=-1)),
        ],
        ids=[
            "missing-actions", "short-actions", "short-arrangements", "short-values", "literal",
            "infeasible-actions", "arrangement-not-an-ordering", "converged-string",
            "seed-fraction", "iterations-fraction", "arrangements-bool", "gamma-string",
            "value-string", "action-float", "gamma-range", "seed-negative",
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


class TestSeedOverride:
    @pytest.mark.parametrize("command, flag", [
        (["solve", "--seed", "-1"], "--seed"),
        (["simulate", "--strategy", "trellis", "--slots", "5", "--seed", "-1"], "--seed"),
        (["compare", "--strategies", "trellis", "--slots", "5", "--seeds", "1,-3"], "--seeds"),
    ], ids=["solve", "simulate", "compare"])
    def test_negative_seed_exits_two(self, cfg_path, tmp_path, capsys, command, flag):
        out = tmp_path / "x.out"
        rc = main(command + ["--config", cfg_path, "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{flag}:")
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

    # solve used to exit 1 without the field's path; simulate and compare
    # ran with the bad value
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["simulate", "--strategy", "trellis", "--slots", "5"],
        ["compare", "--strategies", "trellis", "--slots", "5", "--seeds", "1"],
    ], ids=["solve", "simulate", "compare"])
    @pytest.mark.parametrize("field, value", [
        ("alpha_init", 0.0), ("estimate_discount", 1.0), ("num_arrangements", 0),
        ("max_iterations", 1), ("epsilon", -1.0), ("seed", -1),
    ], ids=["alpha_init", "estimate_discount", "num_arrangements", "max_iterations", "epsilon",
            "seed"])
    def test_solver_parameter_out_of_range_exits_two(self, tmp_path, capsys, command, field, value):
        cfg = small_config_dict()
        cfg["mdp"][field] = value
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "x.out"
        rc = main(command + ["--config", str(path), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"mdp.{field}: ")
        assert not out.exists()

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

    # each repeat used to add an identical CSV row and count again in the
    # summary's means and stddevs
    @pytest.mark.parametrize("strategies, seeds, message", [
        ("cera,trellis,cera", "1", "--strategies: cera repeated"),
        ("cera", "1,2,1", "--seeds: 1 repeated"),
    ], ids=["strategies", "seeds"])
    def test_repeated_compare_entry_exits_two(
        self, cfg_path, tmp_path, capsys, strategies, seeds, message
    ):
        out = tmp_path / "x.csv"
        rc = main(["compare", "--config", cfg_path, "--strategies", strategies, "--seeds", seeds,
                   "--slots", "5", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"] == message
        assert not out.exists()

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
