import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from twofold import cli, scenarios
from twofold.expr import Num, parse_expr
from twofold.fields import TwoFoldParams
from twofold.integrate import integrate_filippov
from twofold.scenarios import (ConfigError, builtin, builtin_config, builtin_names,
                               load_config, save_run)
from twofold.singularities import classify_two_fold, folded_singularities


def test_builtin_names_cover_examples_and_normal_forms():
    names = builtin_names()
    for want in ("example-i", "example-ii", "example-iii",
                 "visible-nf", "invisible-nf", "mixed-nf"):
        assert want in names


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        builtin("example-iv")


def test_example_ii_field_values():
    sc = builtin("example-ii")
    assert sc.system.f_plus.fn(0.0, 1.0, 0.0) == (-1.0, 1.0, -7 / 5)


def test_example_iii_field_values():
    sc = builtin("example-iii")
    assert sc.system.f_minus.fn(0.0, 0.0, 0.0) == (0.0, 23 / 100, 1.0)


def test_example_coefficients_are_exact_rationals():
    # stored coefficients carry no decimal-entry drift
    sc = builtin("example-i")
    c3 = sc.system.f_plus.components[2]     # 3/10*x2 - 1/5*x2*x3 - 2/5
    nums = []

    def walk(e):
        if isinstance(e, Num):
            nums.append(e.value)
        for attr in ("arg", "left", "right", "base"):
            child = getattr(e, attr, None)
            if child is not None:
                walk(child)

    walk(c3)
    assert Fraction(3, 10) in nums and Fraction(1, 5) in nums and Fraction(2, 5) in nums
    assert sc.system.hidden.fn(0.0, 0.0, 0.0) == (0.2, 0.0, 0.0)


def test_normal_form_scenarios_satisfy_their_conditions():
    for name, tag in (("visible-nf", "visible"), ("invisible-nf", "invisible"),
                      ("mixed-nf", "mixed")):
        sc = builtin(name)
        flavor = classify_two_fold(sc.params)
        assert flavor.tag == tag
        assert flavor.determinacy_breaking
        assert sc.params.alpha == 0.2


def test_invisible_nf_classification():
    sc = builtin("invisible-nf")
    f = classify_two_fold(sc.params)
    assert f.tag == "invisible" and f.determinacy_breaking


def test_mixed_nf_has_saddle_node_pair():
    sc = builtin("mixed-nf")
    pair = folded_singularities(sc.params)
    assert len(pair) == 2
    assert sorted(s.folded_type for s in pair) == ["folded-node", "folded-saddle"]
    assert pair[0].det * pair[1].det < 0


# ------------------------------------------------------------ config i/o

def test_params_only_config_expands_to_normal_form():
    sc = load_config({"params": {"a1": 1, "a2": 1, "b1": -2, "b2": -2, "alpha": 0.2}})
    assert sc.params == TwoFoldParams(1, 1, -2.0, -2.0, 0.2)
    assert sc.system.f_plus.fn(0.0, 3.0, 0.0) == (-3.0, 1.0, -2.0)


def test_missing_f_minus_is_located():
    with pytest.raises(ConfigError) as err:
        load_config({"f_plus": ["0", "0", "0"]})
    assert err.value.pointer == "/f_minus"


def test_both_sources_rejected():
    with pytest.raises(ConfigError) as err:
        load_config({"f_plus": ["0", "0", "0"], "f_minus": ["0", "0", "0"],
                     "params": {"a1": 1, "a2": 1, "b1": 0, "b2": 0, "alpha": 0}})
    assert err.value.pointer == "/params"


def test_bad_expression_is_located():
    with pytest.raises(ConfigError) as err:
        load_config({"f_plus": ["0", "0", "x4"], "f_minus": ["0", "0", "0"]})
    assert err.value.pointer == "/f_plus"


def test_bad_sim_options_are_located():
    base = {"params": {"a1": 1, "a2": 1, "b1": 0, "b2": 0, "alpha": 0.1}}
    with pytest.raises(ConfigError) as err:
        load_config({**base, "sim": {"epsilon": -1}})
    assert err.value.pointer == "/sim/epsilon"
    for bad in (0, float("nan")):
        with pytest.raises(ConfigError) as err:
            load_config({**base, "sim": {"t_end": bad}})
        assert err.value.pointer == "/sim/t_end"
    with pytest.raises(ConfigError) as err:
        load_config({"params": {**base["params"], "b1": float("inf")}})
    assert err.value.pointer == "/params/b1"
    with pytest.raises(ConfigError) as err:
        load_config({**base, "sim": {"x0": [1, 2]}})
    assert err.value.pointer == "/sim/x0"
    with pytest.raises(ConfigError) as err:
        load_config({**base, "sim": {"x0": [1, float("nan"), 2]}})
    assert err.value.pointer == "/sim/x0"
    with pytest.raises(ConfigError) as err:
        load_config({**base, "sim": {"sigmoid": "smoothstep"}})
    assert err.value.pointer == "/sim/sigmoid"
    with pytest.raises(ConfigError) as err:
        load_config({**base, "sim": {"dt": 0.1}})
    assert err.value.pointer == "/sim/dt"


_PARAMS = {"a1": 1, "a2": 1, "b1": 0, "b2": 0, "alpha": 0.1}
_HUGE = "1" + "0" * 400 + "*x2"


@pytest.mark.parametrize("doc, message, pointer", [
    ({"f_plus": ["0", "0"], "f_minus": ["0", "0", "0"]},
     "f_plus must be a list of three expression strings", "/f_plus"),
    ({"params": {**_PARAMS, "b1": "1"}}, "b1 must be a number", "/params/b1"),
    ([_PARAMS], "top-level document must be an object", "/"),
    ({"name": 3, "params": _PARAMS}, "name must be a string", "/name"),
    ({"params": [1, 1, 0, 0, 0.1]}, "params must be an object", "/params"),
    ({"params": {k: v for k, v in _PARAMS.items() if k != "alpha"}},
     "params is missing alpha", "/params/alpha"),
    ({"params": {**_PARAMS, "a2": 0}}, "a1 and a2 must be +-1", "/params/a1"),
    ({"params": _PARAMS, "sim": [1e-3, 10]}, "sim must be an object", "/sim"),
    # json reads an integer of any size, and a float cannot hold these
    ({"params": {**_PARAMS, "b1": 10 ** 400}}, "b1 must be finite", "/params/b1"),
    ({"params": _PARAMS, "sim": {"t_end": 10 ** 400}}, "t_end must be finite", "/sim/t_end"),
    ({"params": _PARAMS, "sim": {"x0": [0, -10 ** 400, 0]}},
     "x0 must be a list of three finite numbers", "/sim/x0"),
    # nor an expression number of 401 digits
    ({"f_plus": [_HUGE, "1", "0"], "f_minus": ["0", "0", "0"]},
     f"bad expression in f_plus: number beyond the float range at position 0: "
     f"{_HUGE[:60]!r}...", "/f_plus"),
    # a member load_config would not read: a misspelled hidden term would
    # otherwise load as the zero hidden field
    ({"f_plus": ["-x2", "1", "-1"], "f_minus": ["x3", "0.5", "-1"],
      "Hidden": ["1/5", "0", "0"]}, "unknown member 'Hidden'", "/Hidden"),
    ({"params": _PARAMS, "hidden": ["1/5", "0", "0"]},
     "give either explicit fields or params, not both", "/params"),
    ({"params": {**_PARAMS, "alpah": 0.2}}, "unknown params member 'alpah'",
     "/params/alpah"),
    ({"params": _PARAMS, "note": 5}, "note must be a string", "/note"),
])
def test_each_config_error_names_its_member(doc, message, pointer, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert (str(err.value), err.value.pointer) == (f"{message} (at {pointer})", pointer)


def test_round_trip_is_exact(tmp_path):
    for name in builtin_names():
        sc = builtin(name)
        path = tmp_path / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(builtin_config(name), fh)
        back = load_config(path)
        assert back.name == sc.name
        assert back.epsilon == sc.epsilon
        assert back.t_end == sc.t_end
        assert back.x0 == sc.x0
        assert back.sigmoid == sc.sigmoid
        assert back.system.f_plus.components == sc.system.f_plus.components
        assert back.system.f_minus.components == sc.system.f_minus.components
        assert back.system.hidden.components == sc.system.hidden.components
        assert back.params == sc.params


def test_builtins_are_config_documents_built_by_load_config(monkeypatch):
    loaded = []

    def recording_load_config(source):
        loaded.append(source)
        return load_config(source)

    monkeypatch.setattr(scenarios, "load_config", recording_load_config)
    monkeypatch.setattr(cli, "load_config", recording_load_config)
    for name in builtin_names():
        builtin(name)
        assert loaded.pop() == builtin_config(name) == {"name": name, **scenarios._BUILTINS[name]}
    # the CLI's normal-form flags are a params document whose sim block sets
    # only the start; the other sim values are load_config's defaults
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classify", "--a1", "1", "--a2", "-1", "--b1", "0.5",
                         "--b2", "-2", "--alpha", "0.2"]) == 0
    assert loaded == [{"name": "normal-form",
                       "params": {"a1": 1, "a2": -1, "b1": 0.5, "b2": -2.0, "alpha": 0.2},
                       "sim": {"x0": [0.0, 1.0, 1.0]}}]
    sc = load_config(loaded[0])
    assert (sc.epsilon, sc.t_end, sc.x0, sc.sigmoid) == (1e-3, 10.0, (0.0, 1.0, 1.0), "tanh")


def test_a_builtin_document_is_the_callers_copy():
    doc = builtin_config("example-i")
    doc["sim"]["t_end"] = 1.0
    doc["f_plus"][0] = "x1"
    sc = builtin("example-i")
    assert sc.t_end == 200.0 and sc.system.f_plus.components[0] != parse_expr("x1")


def test_config_echo_evaluates_identically():
    sc = builtin("example-i")
    again = load_config(builtin_config("example-i"))
    rng = random.Random(123)
    for _ in range(100):
        x = tuple(rng.uniform(-2, 2) for _ in range(3))
        for fld in ("f_plus", "f_minus", "hidden"):
            a = getattr(sc.system, fld).fn(*x)
            b = getattr(again.system, fld).fn(*x)
            for u, v in zip(a, b):
                assert u == v or abs(u - v) <= 1e-14 * abs(u)


def test_save_run_writes_events_file(tmp_path):
    sc = builtin("invisible-nf")
    traj = integrate_filippov(sc.system, (0.1, 1.0, -1.0), (0.0, 0.3))
    out = tmp_path / "run.csv"
    save_run(traj, out)
    assert out.exists()
    assert (tmp_path / "run.events.csv").exists()
