"""Config parsing, validation diagnostics, and canonical serialization."""

import copy
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

import nfvplace as nv
from nfvplace.policy import MdpParams
from nfvplace.sim import SimParams

ROOT = Path(__file__).resolve().parents[1]
# every config the package ships and the one the benchmark reads
SHIPPED_CONFIGS = sorted(nv.seven_providers_path().parent.glob("*.json")) + [ROOT / "bench" / "reduced.json"]

# (object path as keys, unknown key, full field path the error must start with)
UNKNOWN_FIELDS = {
    "top": ((), "extra", "extra"),
    "infrastructure": (("infrastructure",), "link_bandwidth", "infrastructure.link_bandwidth"),
    "inps": (("infrastructure", "inps", 2), "capacity", "infrastructure.inps[2].capacity"),
    "link_cost": (("infrastructure", "link_cost"), "scale", "infrastructure.link_cost.scale"),
    "service_types": (("service_types", 1), "priority", "service_types[1].priority"),
    "vnfs": (("service_types", 1, "vnfs", 2), "cpu", "service_types[1].vnfs[2].cpu"),
    "mdp": (("mdp",), "explore", "mdp.explore"),
    "sim": (("sim",), "slot", "sim.slot"),
}


@pytest.fixture()
def base(bundled_cfg):
    return copy.deepcopy(bundled_cfg.source)


class TestRoundTrip:
    def test_parse_serialize_is_stable(self, base):
        cfg = nv.parse_config(base)
        again = nv.parse_config(nv.serialize_config(cfg))
        assert nv.serialize_config(again) == nv.serialize_config(cfg)
        assert again.fingerprint == cfg.fingerprint

    def test_load_config_file(self, base, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base))
        cfg = nv.load_config(path)
        assert cfg.fingerprint == nv.parse_config(base).fingerprint

    def test_bundled_instance_loads(self):
        cfg = nv.seven_providers()
        assert cfg.infrastructure.num_servers == 21
        assert len(cfg.service_types) == 4
        assert cfg.mdp.gamma == pytest.approx(0.9)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_round_trips(self, path):
        # a schema change that a shipped config no longer satisfies fails here,
        # not first in the benchmark
        cfg = nv.load_config(path)
        again = nv.parse_config(nv.serialize_config(cfg))
        assert nv.serialize_config(again) == cfg.source
        assert again.fingerprint == cfg.fingerprint


class TestDiagnostics:
    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"infrastructure": }')
        with pytest.raises(nv.ConfigError) as err:
            nv.load_config(path)
        assert "line" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(nv.ConfigError):
            nv.load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("where, key, field", UNKNOWN_FIELDS.values(), ids=UNKNOWN_FIELDS.keys())
    def test_unknown_field_rejected(self, base, where, key, field):
        spec = base
        for step in where:
            spec = spec[step]
        spec[key] = 0.1
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(base)
        assert str(err.value).startswith(f"{field}: unknown field")

    @pytest.mark.parametrize("mode", ["geometric", "literal", "binomial"])
    def test_bad_departure_mode_rejected(self, base, mode):
        # only the binomial departure law exists, so the key itself is unknown
        base["mdp"]["departure_mode"] = mode
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(base)
        assert "mdp.departure_mode" in str(err.value)

    def test_negative_capacity_rejected(self, base):
        base["infrastructure"]["inps"][0]["servers"][0][0] = -5
        with pytest.raises(nv.ConfigError):
            nv.parse_config(base)

    def test_vnf_type_out_of_range_rejected(self, base):
        base["service_types"][0]["vnfs"][0]["vnf_type"] = 99
        with pytest.raises(nv.ConfigError):
            nv.parse_config(base)

    def test_demand_width_mismatch_rejected(self, base):
        base["service_types"][0]["vnfs"][0]["demands"] = [20, 20]
        with pytest.raises(nv.ConfigError):
            nv.parse_config(base)

    def test_pmf_must_sum_to_one(self, base):
        base["service_types"][0]["arrival_pmf"] = [0.9, 0.3, 0.3]
        with pytest.raises(nv.ConfigError):
            nv.parse_config(base)

    def test_state_space_cap_enforced(self, base):
        base["mdp"]["state_space_cap"] = 1000
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(base)
        assert "104976" in str(err.value)

    @pytest.mark.parametrize("edit, prefix", [
        (lambda cfg: cfg["infrastructure"].update(beta=-1.0), "infrastructure: beta"),
        (lambda cfg: cfg["service_types"][0]["vnfs"][1].pop("demands"),
         "service_types[0].vnfs[1].demands: missing required field"),
        (lambda cfg: cfg["service_types"][0].update(vnfs=[7]), "service_types[0].vnfs[0]: expected an object"),
    ], ids=["beta", "vnf-without-demands", "vnf-not-an-object"])
    def test_field_path_in_message(self, base, edit, prefix):
        edit(base)
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(base)
        assert str(err.value).startswith(prefix)

    # json reads NaN and Infinity: each must fail at load with its field path
    @pytest.mark.parametrize("edit, prefix", [
        (lambda cfg: cfg["infrastructure"].update(link_cost={"default": math.inf}),
         "infrastructure.link_cost.default: expected a finite number"),
        (lambda cfg: cfg["infrastructure"].update(link_cost={"intra_inp": 0.1, "inter_inp": math.nan}),
         "infrastructure.link_cost.inter_inp: expected a finite number"),
        (lambda cfg: cfg["infrastructure"].update(link_cost={"matrix": [[math.inf] * 21] * 21}),
         "infrastructure.link_cost.matrix: expected finite numbers"),
        (lambda cfg: cfg["infrastructure"].update(beta=math.inf), "infrastructure.beta: expected a finite number"),
        (lambda cfg: cfg["infrastructure"].update(alpha=[math.nan]), "infrastructure: resource weights"),
        (lambda cfg: cfg["infrastructure"]["deployment_cost"][0].__setitem__(0, math.inf),
         "infrastructure: deployment costs must be finite"),
        (lambda cfg: cfg["infrastructure"]["inps"][0]["servers"][0].__setitem__(0, math.inf),
         "infrastructure.inps[0].servers[0][0]: expected an integer, got float"),
        (lambda cfg: cfg["service_types"][0].update(bandwidth=math.nan),
         "service_types[0].bandwidth: expected a finite number"),
        (lambda cfg: cfg["service_types"][0].update(penalty=math.nan),
         "service_types[0].penalty: expected a finite number"),
        (lambda cfg: cfg["service_types"][0].update(admission_reward=math.inf),
         "service_types[0].admission_reward: expected a finite number"),
        (lambda cfg: cfg["service_types"][0].update(arrival_pmf=[math.nan, 0.5, 0.5]),
         "service_types[0]: arrival_pmf entries must be finite"),
        (lambda cfg: cfg["service_types"][0]["vnfs"][0].update(demands=[math.inf]),
         "service_types[0].vnfs[0].demands[0]: expected an integer, got float"),
        (lambda cfg: cfg["mdp"].update(epsilon=math.nan), "mdp.epsilon: expected a finite number"),
    ], ids=["link-default", "link-inter", "link-matrix", "beta", "alpha", "deployment",
            "server", "bandwidth", "penalty", "reward", "pmf", "demand", "epsilon"])
    def test_non_finite_number_rejected(self, base, edit, prefix):
        edit(base)
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(json.loads(json.dumps(base)))
        assert str(err.value).startswith(prefix)


    # each loaded before; solve then failed inside the solver without the
    # field's path, and simulate and compare ran with it
    @pytest.mark.parametrize("field, value, message", [
        ("alpha_init", 0.0, "must lie in (0, 1]"),
        ("alpha_init", 1.5, "must lie in (0, 1]"),
        ("estimate_discount", 0.0, "must lie in (0, 1)"),
        ("estimate_discount", 1.0, "must lie in (0, 1)"),
        ("num_arrangements", 0, "must be at least 1"),
        ("max_iterations", 1, "must allow at least two sweeps"),
        ("epsilon", 0.0, "must be positive"),
        ("epsilon", -1e-3, "must be positive"),
        # a negative seed loaded, and solve then failed inside numpy
        ("seed", -1, "must be non-negative"),
    ], ids=["alpha-zero", "alpha-above-one", "discount-zero", "discount-one",
            "arrangements", "iterations", "epsilon-zero", "epsilon-negative", "seed"])
    def test_solver_parameter_out_of_range_rejected(self, base, field, value, message):
        base["mdp"][field] = value
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(base)
        assert str(err.value) == f"mdp.{field}: {message}"

    @pytest.mark.parametrize("field, value, message", [
        ("slots", 0, "must be positive"),
        ("seed", -1, "must be non-negative"),
    ], ids=["slots", "seed"])
    def test_sim_parameter_out_of_range_rejected(self, base, field, value, message):
        base["sim"][field] = value
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(base)
        assert str(err.value) == f"sim.{field}: {message}"

    def test_solver_parameter_bounds_load(self, base):
        base["mdp"].update(alpha_init=1.0, max_iterations=2, num_arrangements=1, epsilon=1e-12)
        mdp = nv.parse_config(base).mdp
        assert (mdp.alpha_init, mdp.max_iterations, mdp.num_arrangements) == (1.0, 2, 1)

    # int() used to truncate these, so 9.9 loaded as 9 and 2.7 as 2
    @pytest.mark.parametrize("edit, prefix", [
        (lambda cfg: cfg["infrastructure"]["inps"][1]["servers"][2].__setitem__(0, 9.9),
         "infrastructure.inps[1].servers[2][0]: expected an integer, got float"),
        (lambda cfg: cfg["infrastructure"]["inps"][0]["servers"][0].__setitem__(0, 10.0),
         "infrastructure.inps[0].servers[0][0]: expected an integer, got float"),
        (lambda cfg: cfg["infrastructure"]["inps"][0].update(servers=[10]),
         "infrastructure.inps[0].servers[0]: expected a list, got int"),
        (lambda cfg: cfg["service_types"][2]["vnfs"][3].update(demands=[2.7]),
         "service_types[2].vnfs[3].demands[0]: expected an integer, got float"),
        (lambda cfg: cfg["service_types"][0]["vnfs"][0].update(demands=["20"]),
         "service_types[0].vnfs[0].demands[0]: expected an integer, got str"),
    ], ids=["server-fraction", "server-float", "server-row", "demand-fraction", "demand-string"])
    def test_non_integer_amount_rejected(self, base, edit, prefix):
        edit(base)
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(json.loads(json.dumps(base)))
        assert str(err.value).startswith(prefix)


class TestSettings:
    """Every field of the two settings sections, read from its declaration."""

    @pytest.mark.parametrize("section, cls", [("mdp", MdpParams), ("sim", SimParams)])
    def test_each_field_defaults_type_checks_and_round_trips(self, base, section, cls):
        for f in fields(cls):
            edited = copy.deepcopy(base)
            del edited[section][f.name]
            cfg = nv.parse_config(edited)
            assert getattr(getattr(cfg, section), f.name) == f.default
            # no field of either section takes text, and only one whose
            # default is None takes null
            for wrong in ("1", None):
                edited[section][f.name] = wrong
                if wrong is None and f.default is None:
                    assert getattr(getattr(nv.parse_config(edited), section), f.name) is None
                    continue
                with pytest.raises(nv.ConfigError) as err:
                    nv.parse_config(edited)
                assert str(err.value).startswith(f"{section}.{f.name}: expected ")
            assert nv.parse_config(nv.serialize_config(cfg)).source == cfg.source
            assert nv.serialize_config(cfg)[section][f.name] == f.default


class TestLinkTables:
    def test_intra_inter_form(self, base):
        base["infrastructure"]["link_cost"] = {"intra_inp": 0.1, "inter_inp": 0.5}
        cfg = nv.parse_config(base)
        lc = cfg.infrastructure.link_cost
        assert lc[0, 1] == pytest.approx(0.1)
        assert lc[0, 3] == pytest.approx(0.5)
        assert lc[0, 0] == 0.0

    def test_default_form(self, base):
        del base["infrastructure"]["link_cost"]
        cfg = nv.parse_config(base)
        assert cfg.infrastructure.link_cost.shape == (21, 21)

    # every pair of forms; the matrix is well-formed, so only the mix fails
    @pytest.mark.parametrize("spec, forms", [
        ({"matrix": [[0.0] * 21] * 21, "intra_inp": 0.1, "inter_inp": 0.5},
         "matrix and intra_inp/inter_inp"),
        ({"matrix": [[0.0] * 21] * 21, "default": 5.0}, "matrix and default"),
        ({"intra_inp": 0.1, "inter_inp": 0.5, "default": 5.0}, "intra_inp/inter_inp and default"),
    ], ids=["matrix+intra_inter", "matrix+default", "intra_inter+default"])
    def test_more_than_one_form_rejected(self, base, spec, forms):
        base["infrastructure"]["link_cost"] = spec
        with pytest.raises(nv.ConfigError) as err:
            nv.parse_config(base)
        assert str(err.value) == (
            "infrastructure.link_cost: expected one of matrix, intra_inp/inter_inp, default, "
            f"got {forms}"
        )

    def test_wrong_matrix_shape_rejected(self, base):
        base["infrastructure"]["link_cost"] = {"matrix": [[0.0]]}
        with pytest.raises(nv.ConfigError):
            nv.parse_config(base)


class TestFingerprint:
    def test_ignores_solver_and_sim_sections(self, base):
        a = nv.parse_config(base)
        base["mdp"]["seed"] = 12345
        base["sim"]["slots"] = 77
        b = nv.parse_config(base)
        assert a.fingerprint == b.fingerprint

    def test_tracks_infrastructure(self, base):
        a = nv.parse_config(base)
        base["infrastructure"]["v_base"] = 0.08
        b = nv.parse_config(base)
        assert a.fingerprint != b.fingerprint
