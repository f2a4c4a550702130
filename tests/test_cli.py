import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from powergap import cli, scenarios, solver
from powergap.cli import (
    EXIT_OK,
    EXIT_STRUCTURAL,
    EXIT_VIOLATION,
    _mesh_stage,
    _Run,
    _solve_stage,
    emit_plot_data,
    load_config,
    main,
    parse_config,
    report_json,
    run,
    sweep,
)
from powergap.errors import ConfigError, SolverError
from powergap.geometry import build_regions, flattening_map
from powergap.mesh import build_mesh
from powergap.scenarios import size_family
from powergap.smallness import check_three_region
from powergap.solver import BackgroundOperator, fourier_data

from corpus import CONFIGS, SCENES, corpus_config

README = Path(__file__).resolve().parents[1] / "README.md"


# values of the wrong kind or out of range, per kind of `cli._FIELDS`; "x"
# is of the wrong kind for every kind but a label
_MALFORMED = {
    "integer": [2.5], "bool": ["false", 1], "label": [1.5, "", "../x"],
    "2 numbers": [[1.0]], "3 numbers": [[1.0, 2.0]],
    "curve": [{"kind": "circle", "center": [0.0, 0.0], "radius": 0.0},
              {"kind": "circle", "center": [0.0], "radius": 1.0},
              {"kind": "square", "center": [0.0, 0.0], "radius": 1.0}],
    "coefficient": [[[1.0, 0.0]], {"kind": "affine", "gx": 1.0}],
    "modes": [[[1.5, 1.0, 0.0]], [[1, 1.0]]],
    "checks": ["energy", ["nope"]], "section": [[1]],
}


def _out_of_range(rng: str) -> list:
    """Numbers just outside a range of `cli._FIELDS`."""
    if not rng:
        return []
    if rng[0] in "([":
        lo, hi = map(float, rng[1:-1].split(","))
        return [lo - (rng[0] == "["), hi + (rng[-1] == "]")]
    op, bound = rng.split()
    return [float(bound) - (op == ">=")]


@st.composite
def _malformed_configs(draw):
    """A corpus config with one field of the wrong kind or out of range."""
    name = draw(st.sampled_from(sorted(p.stem for p in
                                       CONFIGS.glob("*.json"))))
    doc = json.loads((CONFIGS / f"{name}.json").read_text())

    def section(path):
        node = doc
        for key in path.split(".")[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        return node if isinstance(node, dict) else None

    field = draw(st.sampled_from([f for f in cli._FIELDS
                                  if section(f.path) is not None]))
    bad = _out_of_range(field.rng)
    if field.kind.endswith("numbers"):
        n = int(field.kind[0]) if field.kind[0].isdigit() else 1
        bad = [[x] * n for x in bad]
    value = draw(st.sampled_from(
        ([] if field.kind == "label" else ["x"]) + bad
        + _MALFORMED.get(field.kind, [])))
    section(field.path)[field.path.rpartition(".")[2]] = value
    return field.path, doc


def _edited_config(tmp_path, path: str, value, checks,
                   name: str = "one_phase_disk") -> Path:
    """A corpus config at h=0.08 with one field replaced, written to disk."""
    with open(CONFIGS / f"{name}.json") as fh:
        doc = json.load(fh)
    doc["mesh"]["h"] = 0.08
    doc["three_ball"] = {"center": [0.3, 0.2], "radii": [0.02, 0.06, 0.3]}
    if checks is not None:
        doc["checks"] = checks
    *parents, key = path.split(".")
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


@pytest.fixture(scope="module")
def fast_concentric():
    return corpus_config("concentric_disk", mesh={"h": 0.05},
                         regions={"n_family": 3})


@pytest.fixture(scope="module")
def fast_report(fast_concentric):
    cfg = parse_config(fast_concentric)
    rep, code = run(cfg)
    assert code == EXIT_OK
    return rep


class TestConfigParsing:
    def test_corpus_parses(self):
        for name in SCENES:
            cfg = parse_config(corpus_config(name))
            assert cfg.label.startswith(name)

    def test_missing_section_named(self):
        with pytest.raises(ConfigError, match="background"):
            parse_config({"scene": {"outer": {"kind": "circle",
                                              "center": [0, 0],
                                              "radius": 1.0}},
                          "mesh": {"h": 0.1}})

    def test_missing_mesh_h_named(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        del doc["mesh"]["h"]
        with pytest.raises(ConfigError, match="mesh.h"):
            parse_config(doc)

    def test_unknown_check_named(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["solve_the_universe"]
        with pytest.raises(ConfigError, match="solve_the_universe"):
            parse_config(doc)

    def test_bad_curve_kind(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        doc["scene"]["outer"] = {"kind": "triangle"}
        with pytest.raises(ConfigError, match="scene.outer"):
            parse_config(doc)

    def test_precondition_checks(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        doc["scene"]["interface"] = None
        doc["checks"] = ["three_region"]
        with pytest.raises(ConfigError, match="three_region"):
            parse_config(doc)

    @pytest.mark.parametrize("check", ["bracket", "size"])
    def test_check_needs_energy(self, fast_concentric, check):
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["admissibility", check]
        with pytest.raises(ConfigError,
                           match=f"check '{check}' needs check 'energy'"):
            parse_config(doc)

    def test_check_override_validated(self, capsys):
        code = main(["run", "--config", str(CONFIGS / "one_phase_disk.json"),
                     "--check", "bogus,admissibility"])
        assert code == EXIT_STRUCTURAL
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, checks, refused", [
        pytest.param("weights.kappa0", 0.5, None, "weights.kappa0",
                     id="weights.kappa0-0.5-None-section 'weights'"),
        pytest.param("weights.bogus", 1.0, None, "weights.bogus",
                     id="weights.bogus-1.0-None-section 'weights'"),
        pytest.param("background.lambda0", -1, None, "background.lambda0",
                     id="background.lambda0--1-None-section 'background'"),
        pytest.param("law.varrho", -1, None, "law.varrho",
                     id="law.varrho--1-None-section 'law'"),
        pytest.param("mesh.h", "x", None, "mesh.h",
                     id="mesh.h-x-None-section 'mesh'"),
        pytest.param("background", {"m_minus": 1.0}, None,
                     "background.m_plus",
                     id="background-value5-None-section 'background': "
                        "missing key 'm_plus'"),
        pytest.param("boundary_data", [[1, "a", 0]], None, "boundary_data",
                     id="boundary_data-value6-None-section 'boundary_data'"),
        pytest.param("three_ball.radii", [0.02, 0.1, 0.3], ["three_ball"],
                     "three_ball",
                     id="three_ball.radii-value7-checks7-check 'three_ball'"),
        pytest.param("three_ball.center", [0.9, 0], ["three_ball"],
                     "three_ball",
                     id="three_ball.center-value8-checks8-check "
                        "'three_ball'"),
        pytest.param("lipschitz_a", 0.5, ["lipschitz"], "lipschitz_a",
                     id="lipschitz_a-0.5-checks9-check 'lipschitz'"),
        pytest.param("three_ball.radii", [0.02, 0.06], ["three_ball"],
                     "three_ball.radii",
                     id="three_ball.radii-value10-checks10-check "
                        "'three_ball': three_ball needs a center and radii"),
        pytest.param("three_ball", {"radii": [0.02, 0.06, 0.3]},
                     ["three_ball"], "three_ball.center",
                     id="three_ball-value11-checks11-check 'three_ball': "
                        "three_ball needs a center and radii"),
        pytest.param("chain.h", 0, None, "chain.h",
                     id="chain.h-0-None-check 'chain': chain h must be "
                        "positive"),
        pytest.param("chain", {"x0": [0.0, 0.0], "r": 0.1}, None, "chain.h",
                     id="chain-value13-None-check 'chain' needs a 'chain' "
                        "section (x0, r, h)"),
        pytest.param("size_constants", [2.0], ["energy", "bracket", "size"],
                     "size_constants",
                     id="size_constants-value14-checks14-check 'size': "
                        "size_constants must be [c1, c2]"),
    ])
    def test_out_of_range_value_named(self, tmp_path, capsys, path, value,
                                      checks, refused):
        # the ids are the names these cases had when the message named a
        # section or a check; it now names the path at fault
        cfg_path = _edited_config(tmp_path, path, value, checks)
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_STRUCTURAL
        assert capsys.readouterr().err.startswith(
            f"error: config field '{refused}': ")

    @pytest.mark.parametrize("name, path, value, checks, named", [
        pytest.param("one_phase_disk", "three_ball.radii", [0.02, 0.1, 0.3],
                     ["three_ball"], "config field 'three_ball': ",
                     id="three_ball.radii-value0-three_ball"),
        pytest.param("one_phase_disk", "three_ball.center", [0.9, 0],
                     ["three_ball"], "config field 'three_ball': ball B_r3 "
                     "must stay inside the domain",
                     id="three_ball.center-value1-three_ball"),
        pytest.param("one_phase_disk", "lipschitz_a", 0.5, ["lipschitz"],
                     "config field 'lipschitz_a': Omega_(4a) is empty",
                     id="lipschitz_a-0.5-lipschitz"),
        pytest.param("one_phase_disk", "three_ball.radii", [0.02, 0.06],
                     ["three_ball"], "config field 'three_ball.radii': must "
                     "be a list of 3 numbers > 0, got [0.02, 0.06]",
                     id="three_ball.radii-value3-three_ball"),
        pytest.param("one_phase_disk", "three_ball",
                     {"radii": [0.02, 0.06, 0.3]}, ["three_ball"],
                     "config field 'three_ball.center': required",
                     id="three_ball-value4-three_ball"),
        # each of these was once read only after the solve, or crashed it
        pytest.param("concentric_disk", "regions.R1", 100, ["three_region"],
                     "config field 'regions': R1, R2 must lie in",
                     id="regions.R1-100"),
        pytest.param("concentric_disk", "regions.theta", 2, ["three_region"],
                     "config field 'regions.theta': must be a number in "
                     "(0, 1], got 2", id="regions.theta-2"),
        pytest.param("concentric_disk", "regions.anchor_t", "x",
                     ["three_region"],
                     "config field 'regions.anchor_t': must be a number, "
                     "got 'x'", id="regions.anchor_t-x"),
        pytest.param("concentric_disk", "vitali_radius", -0.05, ["vitali"],
                     "config field 'vitali_radius': must be a number > 0, "
                     "got -0.05", id="vitali_radius-negative"),
        pytest.param("one_phase_disk", "chain.x0", [0.9, 0], ["chain"],
                     "config field 'chain': seed ball B_r(x0) is not "
                     "contained in D", id="chain.x0-outside-D"),
        pytest.param("one_phase_disk", "chain.r", "a", ["chain"],
                     "config field 'chain.r': must be a number > 0, got 'a'",
                     id="chain.r-a"),
        # the chain check with no chain section once ended in a KeyError
        pytest.param("concentric_disk", "checks", ["chain"], None,
                     "config field 'chain': required by check 'chain'",
                     id="chain-section-absent"),
        pytest.param("one_phase_disk", "chain", None, ["chain"],
                     "config field 'chain': required by check 'chain'",
                     id="chain-section-null"),
        pytest.param("one_phase_disk", "bracket_tol", "a",
                     ["energy", "bracket"],
                     "config field 'bracket_tol': must be a number >= 0, "
                     "got 'a'", id="bracket_tol-a"),
        pytest.param("one_phase_disk", "size_constants", ["a", "b"],
                     ["energy", "bracket", "size"],
                     "config field 'size_constants': must be a list of 2 "
                     "numbers, got ['a', 'b']", id="size_constants-a-b"),
        pytest.param("one_phase_disk", "size_constants", [2.0, 1.0],
                     ["energy", "bracket", "size"],
                     "config field 'size_constants': must be [c1, c2] with "
                     "c1 <= c2, got [2.0, 1.0]",
                     id="size_constants-c1-above-c2"),
        pytest.param("one_phase_disk", "mesh.min_angle_deg", "a", None,
                     "config field 'mesh.min_angle_deg': must be a number in "
                     "[0, 60), got 'a'", id="mesh.min_angle_deg-a"),
        pytest.param("one_phase_disk", "three_ball.radii", ["a", "b", "c"],
                     ["three_ball"],
                     "config field 'three_ball.radii': must be a list of 3 "
                     "numbers > 0, got ['a', 'b', 'c']",
                     id="three_ball.radii-a-b-c"),
        pytest.param("one_phase_disk", "boundary_layer_a", 0.2,
                     ["boundary_layer"],
                     "config field 'boundary_layer_a': must be a list of "
                     "numbers > 0, got 0.2", id="boundary_layer_a-scalar"),
        pytest.param("one_phase_disk", "boundary_layer_a", [0.2],
                     ["boundary_layer"],
                     "config field 'boundary_layer_a': must hold two or more "
                     "distinct depths, got [0.2]",
                     id="boundary_layer_a-one-depth"),
        pytest.param("one_phase_disk", "boundary_layer_a", [0.2, 0.2],
                     ["boundary_layer"],
                     "config field 'boundary_layer_a': must hold two or more "
                     "distinct depths, got [0.2, 0.2]",
                     id="boundary_layer_a-one-distinct-depth"),
        pytest.param("one_phase_disk", "lipschitz_a", -0.1, ["lipschitz"],
                     "config field 'lipschitz_a': must be a number > 0, "
                     "got -0.1", id="lipschitz_a-negative"),
        # mesh sizes that only the mesher refused, so only `run` did
        pytest.param("concentric_disk", "mesh.h", 0, None,
                     "config field 'mesh.h': h must be positive",
                     id="mesh.h-zero"),
        pytest.param("concentric_disk", "mesh.h", 0.001, None,
                     "config field 'mesh.h': h = 0.001 needs about",
                     id="mesh.h-over-node-budget"),
        pytest.param("concentric_disk", "mesh.h", 0.5, None,
                     "config field 'mesh.h': h = 0.5 too coarse",
                     id="mesh.h-too-coarse"),
        # sections given as arrays once ended in a traceback
        pytest.param("concentric_disk", "regions", [1], None,
                     "config field 'regions': must be an object, got [1]",
                     id="regions-array"),
        pytest.param("concentric_disk", "scene", [1], None,
                     "config field 'scene': must be an object, got [1]",
                     id="scene-array"),
        pytest.param("concentric_disk", "law", [1], None,
                     "config field 'law': must be an object, got [1]",
                     id="law-array"),
        # values once misread without a word
        pytest.param("concentric_disk", "seed", 1.5, None,
                     "config field 'seed': must be an integer >= 0, got 1.5",
                     id="seed-fraction"),
        pytest.param("concentric_disk", "regions.n_family", 2.5, None,
                     "config field 'regions.n_family': must be an integer "
                     ">= 1, got 2.5", id="regions.n_family-fraction"),
        pytest.param("concentric_disk", "export_fields", "false", None,
                     "config field 'export_fields': must be true or false, "
                     "got 'false'", id="export_fields-string"),
        pytest.param("concentric_disk", "checks", "energy", None,
                     "config field 'checks': must be a list of checks from "
                     "admissibility, energy, ", id="checks-string"),
        pytest.param("concentric_disk", "label", "../escaped", None,
                     "config field 'label': must be a non-empty name without "
                     "a path separator, got '../escaped'",
                     id="label-path-separator"),
        pytest.param("concentric_disk", "bracket_tl", 0.5, None,
                     "config field 'bracket_tl': not a config field",
                     id="bracket_tl-typo"),
        # scenes once refused only by the mesh stage, without a path: D
        # nearer than d0 to the boundary, Sigma on it
        pytest.param("one_phase_disk", "scene.d0", 0.9, None,
                     "config field 'scene.d0': dist(D, boundary) = 0.8 "
                     "below required d0 = 0.9\n", id="scene.d0-0.9"),
        pytest.param("concentric_disk", "scene.interface.radius", 1.0, None,
                     "config field 'scene.interface': dist(Sigma, "
                     "boundary) must be positive\n",
                     id="scene.interface-on-boundary"),
        # and scenes once valid by their polygons' distance alone: Sigma
        # across the boundary, D outside the body
        pytest.param("concentric_disk", "scene.interface.center", [0.6, 0.0],
                     None, "config field 'scene.interface': dist(Sigma, "
                     "boundary) must be positive\n",
                     id="scene.interface-crossing"),
        pytest.param("one_phase_disk", "scene.inclusion.center", [2.0, 0.0],
                     None, "config field 'scene.d0': dist(D, boundary) = "
                     "-0.8 below required d0 = 0.3\n",
                     id="scene.inclusion-outside"),
    ])
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys,
                                               monkeypatch, name, path, value,
                                               checks, named):
        # both verbs refuse at parse, with one message, before any mesh
        def no_mesh(*args, **kwargs):
            raise AssertionError("meshed a config that should be refused")

        monkeypatch.setattr("powergap.cli.build_mesh", no_mesh)
        cfg_path = _edited_config(tmp_path, path, value, checks, name)
        assert main(["validate", "--config", str(cfg_path)]) \
            == EXIT_STRUCTURAL
        refused = capsys.readouterr().err
        assert refused.startswith(f"error: {named}")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == EXIT_STRUCTURAL
        assert capsys.readouterr().err == refused

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_malformed_configs())
    def test_malformed_field_refused_by_path(self, tmp_path_factory,
                                             malformed):
        # one field of a corpus config of the wrong kind or out of range:
        # both verbs refuse it at parse with one message naming its path
        path, doc = malformed
        cfg_path = tmp_path_factory.mktemp("malformed") / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        errs = []
        with mock.patch("powergap.cli.build_mesh",
                        side_effect=AssertionError("meshed a refused config")):
            for verb in ("validate", "run"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert main([verb, "--config", str(cfg_path)]) \
                        == EXIT_STRUCTURAL
                errs.append(err.getvalue())
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"error: config field '{path}': ")
        assert errs[0].count("\n") == 1

    def test_readme_lists_every_field_with_its_default(self):
        # README's field table and `_FIELDS` agree in both directions
        text = README.read_text()
        text = text[text.index("Config fields:"):
                    text.index("## Library layout")]
        listed = dict(re.findall(
            r"^\| `([\w.]+)` \| [^|]* \| (required|`[^`]*`) \|", text,
            re.M))
        assert listed == {
            f.path: "required" if f.default is cli._REQUIRED
            else f"`{json.dumps(f.default)}`" for f in cli._FIELDS}

    @pytest.mark.parametrize("name, path, value, check", [
        ("concentric_disk", "regions.n_family", 0, "three_region"),
        ("concentric_disk", "regions.n_family", -1, "three_region"),
        ("one_phase_disk", "boundary_layer_a", [-0.1, 0.2], "boundary_layer"),
    ])
    def test_check_measuring_nothing_refused(self, tmp_path, capsys, name,
                                             path, value, check):
        # an empty family or a layer of negative depth gives no number to
        # fit; both verbs refuse it by name before anything is solved
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        *parents, key = path.split(".")
        node = doc
        for k in parents:
            node = node[k]
        node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert check in doc["checks"]
        for verb in ("validate", "run"):
            assert main([verb, "--config", str(cfg_path)]) == EXIT_STRUCTURAL
            err = capsys.readouterr().err
            assert err.startswith(f"error: config field '{path}': must be")

    def test_size_family_base_is_the_concentric_config(self):
        # configs/ is the one corpus; size_family keeps a copy of one config
        doc = json.loads((CONFIGS / "concentric_disk.json").read_text())
        assert scenarios._CONCENTRIC_DISK == doc

    def test_case_i_config_flips_zeta1(self):
        doc = json.loads((CONFIGS / "concentric_disk_case_i.json").read_text())
        assert corpus_config("concentric_disk", case="case_i") == doc

    @pytest.mark.parametrize("name", sorted(p.stem for p in
                                            CONFIGS.glob("*.json")))
    def test_corpus_config_validates(self, name):
        assert main(["validate", "--config",
                     str(CONFIGS / f"{name}.json")]) == EXIT_OK

    def test_round_trip(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        cfg = parse_config(doc)
        assert json.dumps(cfg.raw, sort_keys=True) == json.dumps(
            doc, sort_keys=True)


class TestRun:
    def test_report_deterministic(self, fast_concentric):
        cfg = parse_config(fast_concentric)
        r1, _ = run(cfg)
        r2, _ = run(cfg)
        assert report_json(r1) == report_json(r2)

    def test_stages_read_only_what_parse_built(self, fast_concentric):
        # the document is read once, at parse: a run with another document
        # in `raw` differs only in the report's config echo
        cfg = parse_config(json.loads(json.dumps(fast_concentric)))
        want, _ = run(cfg)
        st = _Run(cfg)
        assert all(getattr(st, name) is getattr(cfg, name)
                   for name in ("scene", "background", "law", "g"))
        cfg.raw = {"label": "not read"}
        got, _ = run(cfg)
        assert got.pop("config") == {"label": "not read"}
        want.pop("config")
        assert report_json(got) == report_json(want)

    def test_identical_laws_zero_gap(self):
        doc = corpus_config("concentric_disk", mesh={"h": 0.05})
        doc["law"] = {"sigma1": 2.0, "zeta1": 0.0, "epsilon1": None,
                      "lambda1": 0.4, "varrho": 0.5, "delta_tol": 0.0}
        doc["checks"] = ["admissibility", "energy", "bracket", "size"]
        rep, code = run(parse_config(doc))
        assert code == EXIT_OK
        assert abs(rep["power"]["delta_w_re"] / rep["power"]["w0_re"]) < 1e-8
        assert rep["size"]["lower"] == 0.0 and rep["size"]["upper"] == 0.0

    def test_case_ii_full_report(self, fast_report):
        p = fast_report["power"]
        assert p["case"] == "case_ii"
        assert p["sign_ok"] and p["bracket_ok"]
        assert fast_report["checks"]["three_region"]["max_constant"] > 0

    def test_se0_violation_exit_code(self, tmp_path, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        doc["law"]["lambda1"] = 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == EXIT_STRUCTURAL

    def test_w0_free_mismatch_is_a_violation(self, tmp_path, fast_concentric,
                                             monkeypatch):
        # u0's boundary pairing off by 1e-3 relative: the volume form of W'0
        # no longer matches it
        solve = BackgroundOperator.solve

        def skewed(self, g):
            sols = solve(self, g)
            if not isinstance(sols, list):
                sols.power *= 1.0 + 1e-3
            return sols

        monkeypatch.setattr(BackgroundOperator, "solve", skewed)
        doc = dict(fast_concentric, checks=["energy"])
        rep, code = run(parse_config(doc))
        assert code == EXIT_VIOLATION
        assert rep["violations"] == [
            "W'0 volume and boundary forms differ by 9.990e-04 relative"]
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == EXIT_VIOLATION

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_corpus_w0_free_forms_agree(self, path):
        doc = json.loads(path.read_text())
        doc["mesh"]["h"], doc["checks"] = 0.06, ["energy"]
        rep, code = run(parse_config(doc))
        assert code == EXIT_OK and rep["violations"] == []

    @pytest.mark.parametrize("name,stages", [
        ("concentric_disk", ["mesh", "admissibility", "solve", "energy",
                             "three_region", "vitali", "size"]),
        ("one_phase_disk", ["mesh", "admissibility", "solve", "energy",
                            "chain", "scaling", "lipschitz",
                            "boundary_layer", "size"]),
        ("curved_ellipse", ["mesh", "admissibility", "solve", "energy",
                            "three_region", "size"]),
    ])
    def test_stage_names_timed_in_order(self, name, stages):
        # the benchmark tracer matches its spans to these stage names
        doc = corpus_config(name, mesh={"h": 0.08}, regions={"n_family": 2})
        rep, _ = run(parse_config(doc), timings=True)
        assert list(rep["timings"]) == stages

    def test_exit_codes_distinct(self):
        assert len({EXIT_OK, EXIT_STRUCTURAL, EXIT_VIOLATION}) == 3

    def test_run_writes_artifacts(self, tmp_path, fast_concentric):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fast_concentric))
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_OK
        label = fast_concentric["label"]
        assert (tmp_path / f"{label}.json").exists()
        assert (tmp_path / f"{label}_three_region.csv").exists()
        saved = json.loads((tmp_path / f"{label}.json").read_text())
        assert saved["config"]["label"] == label
        assert "timings" not in saved

    def test_three_region_family_solved_at_once(self, monkeypatch,
                                                fast_concentric):
        calls = []
        solve = BackgroundOperator.solve

        def counting_solve(self, g):
            calls.append(len(g) if isinstance(g, list) else None)
            return solve(self, g)

        monkeypatch.setattr(BackgroundOperator, "solve", counting_solve)
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["three_region"]
        rep, _ = run(parse_config(doc))
        # one solve for u0, one for the n_family = 3 members
        assert calls == [None, 3]
        assert len(rep["checks"]["three_region"]["rows"]) == 3

    def test_three_region_rows_match_independent_family(self):
        # the family the solve stage solves is the seed's draws, and the
        # three_region stage only samples it
        cfg = load_config(CONFIGS / "concentric_disk.json",
                          mesh={"h": 0.06, "min_angle_deg": 5.0})
        rep, _ = run(cfg)
        scene, rcfg = cfg.scene, cfg.raw["regions"]
        op = BackgroundOperator(build_mesh(scene, 0.06, 5.0),
                                cfg.background)
        rng = np.random.default_rng(cfg.values["seed"])
        family = [fourier_data([(k, rng.normal(), rng.normal())
                                for k in range(1, 6)]) for _ in range(8)]
        checks = check_three_region(
            op.solve(family),
            build_regions(cfg.weights, rcfg["R1"], rcfg["R2"],
                          rcfg["theta"]),
            flattening_map(scene.interface, rcfg["anchor_t"], scene.rho0,
                           scene.K0))
        want = [[c.small_factor, c.lhs, c.large_factor, c.constant,
                 c.margin, c.violation_candidate] for c in checks]
        got = [[r["I1"], r["I2"], r["I3"], r["constant"], r["margin"],
                r["violation"]] for r in rep["checks"]["three_region"]["rows"]]
        # NaN-safe bitwise equality
        assert json.dumps(got) == json.dumps(want)

    def test_one_run_makes_one_factorization(self, monkeypatch):
        # the benchmark's tracer times `splu` as powergap.solver calls it,
        # through its `spla` module reference; a factor made by any other
        # name would leave solver.factor_s empty
        calls = []

        class CountingSpla:
            def __getattr__(self, name):
                return getattr(spla, name)

            @staticmethod
            def splu(a, **kwargs):
                calls.append(a.shape)
                return spla.splu(a, **kwargs)

        monkeypatch.setattr(solver, "spla", CountingSpla())
        report, code = run(parse_config(corpus_config("concentric_disk")))
        assert code == EXIT_OK
        n = report["mesh"]["n_points"]
        assert calls == [(n + 1, n + 1)]

    def test_one_run_evaluates_g_once_per_load(self, monkeypatch):
        # three rule nodes for each of the ten loads (u0, u1 and the 8
        # three-region members) and one call for the norm ratio's nodes;
        # the energy stage reads each W from its solve and evaluates none
        calls = []
        raw = solver.NeumannData.raw

        def counting_raw(self, points):
            calls.append(len(points))
            return raw(self, points)

        in_energy = []
        energy_stage = cli._energy_stage

        def counting_energy(st):
            before = len(calls)
            out = energy_stage(st)
            in_energy.append(len(calls) - before)
            return out

        monkeypatch.setattr(solver.NeumannData, "raw", counting_raw)
        monkeypatch.setattr(cli, "_energy_stage", counting_energy)
        report, code = run(parse_config(corpus_config("concentric_disk")))
        assert code == EXIT_OK
        assert len(calls) == 31 and in_energy == [0]

    @pytest.mark.parametrize("checks", [["three_region"], ["energy"]])
    def test_solve_stage_releases_factorization(self, fast_concentric,
                                                checks):
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = checks
        st = _Run(parse_config(doc))
        _mesh_stage(st)
        _solve_stage(st)
        assert st.op._lu is None
        with pytest.raises(SolverError, match="factorization was released"):
            st.op.solve(st.g)
        n_family = 3 if "three_region" in checks else 0
        assert len(st.family or []) == n_family

    def test_threads_option_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(CONFIGS / "one_phase_disk.json"),
                  "--threads", "2"])
        assert exc.value.code == EXIT_STRUCTURAL
        assert "--threads" in capsys.readouterr().err

    def test_validate_verb(self, tmp_path, fast_concentric):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fast_concentric))
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    def test_small_body_validates_at_its_own_h(self, tmp_path, capsys):
        # a body 0.2 across at h = 0.01: validate meshes at the config's
        # own h, as run does, and says so
        doc = {"mesh": {"h": 0.01},
               "scene": {"outer": {"kind": "circle", "center": [0.0, 0.0],
                                   "radius": 0.1}},
               "background": {"m_plus": 1.0, "m_minus": 1.0}}
        path = tmp_path / "small.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert "at h=0.01" in capsys.readouterr().out
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_module_entry_point(self):
        # `python -m powergap` from a checkout, with only src on the path
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-m", "powergap", "validate", "--config",
             "configs/concentric_disk.json"],
            cwd=root, env=env, capture_output=True, text=True)
        assert out.returncode == EXIT_OK, out.stderr
        assert "config 'concentric_disk_case_ii' valid" in out.stdout


class TestSweep:
    def test_mesh_sweep_convergence_row(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["energy"]
        cfg = parse_config(doc)
        orders = []
        for values in ([0.08, 0.04, 0.02], [0.02, 0.04, 0.08]):
            agg = sweep(cfg, "mesh.h", values)
            assert len(agg["rows"]) == 3
            assert all(r["exit_code"] == EXIT_OK for r in agg["rows"])
            orders.append(agg["convergence_order_w0"])
        # the order does not depend on which way the values run
        assert orders[1] == pytest.approx(orders[0], rel=1e-12)

    def test_process_pool_matches_serial(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["energy"]
        cfg = parse_config(doc)
        values = [0.1, 0.08, 0.06]
        assert report_json(sweep(cfg, "mesh.h", values, threads=2)) \
            == report_json(sweep(cfg, "mesh.h", values, threads=1))

    def test_no_convergence_order_without_two_differences(
            self, fast_concentric):
        # h = 0.1 three times gives equal w0 values, so there is no order
        # to fit although the ratio is constant
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["energy"]
        agg = sweep(parse_config(doc), "mesh.h", [0.1, 0.1, 0.1])
        assert [r["exit_code"] for r in agg["rows"]] == [EXIT_OK] * 3
        assert agg["rows"][0]["w0_re"] == agg["rows"][1]["w0_re"]
        assert "convergence_order_w0" not in agg

    @pytest.mark.parametrize("values, order", [
        ([0.08, 0.04, 0.02], 2.0),
        ([0.08, 0.04, 0.01], None),
    ])
    def test_convergence_order_needs_constant_ratio(
            self, fast_concentric, monkeypatch, values, order):
        # w0 = 1 + h^2 exactly, so a constant ratio gives order 2
        import powergap.cli as cli

        def fake_one(doc, param, value, out_dir):
            return {"value": value, "label": f"h{value:g}", "exit_code": 0,
                    "report": {"power": {"w0_re": 1.0 + value ** 2}}}

        monkeypatch.setattr(cli, "_sweep_one", fake_one)
        agg = sweep(parse_config(fast_concentric), "mesh.h", values)
        if order is None:
            assert "convergence_order_w0" not in agg
        else:
            assert agg["convergence_order_w0"] == pytest.approx(order)

    def test_sweep_seed_then_report_verbs(self, tmp_path, capsys,
                                          fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["energy", "bracket"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--param",
                     "mesh.h", "--values", "0.1,0.08", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        reports = sorted(out.glob("*.json"))
        assert len(reports) == 2
        for p in reports:
            assert json.loads(p.read_text())["config"]["seed"] == 3
        csv_path = tmp_path / "bracket.csv"
        assert main(["report", *map(str, reports), "--kind", "bracket",
                     "--out", str(csv_path)]) == EXIT_OK
        assert "wrote 2 rows" in capsys.readouterr().out
        assert len(csv_path.read_text().splitlines()) == 3

    def test_zero_mesh_size_refused_in_its_row(self, tmp_path, capsys,
                                               fast_concentric):
        # h = 0 is refused by its own run, and no order is fitted over it
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["energy"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg_path), "--param",
                     "mesh.h", "--values", "0.1,0,0.05"]) == EXIT_STRUCTURAL
        agg = json.loads(capsys.readouterr().out)
        assert [r["exit_code"] for r in agg["rows"]] \
            == [EXIT_OK, EXIT_STRUCTURAL, EXIT_OK]
        assert agg["rows"][1]["error"] \
            == "config field 'mesh.h': h must be positive"
        assert "convergence_order_w0" not in agg

    @pytest.mark.parametrize("threads", [1, 2])
    def test_refused_config_value_in_its_row(self, tmp_path, capsys,
                                             fast_concentric, threads):
        # delta = -1 is refused by the config parser: its row says so, and
        # the delta = 8 row, the aggregate and the CSV are kept
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["energy"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--param",
                     "weights.delta", "--values", "8,-1", "--threads",
                     str(threads), "--out", str(out)]) == EXIT_STRUCTURAL
        agg = json.loads(capsys.readouterr().out)
        assert [r["exit_code"] for r in agg["rows"]] \
            == [EXIT_OK, EXIT_STRUCTURAL]
        assert agg["rows"][1]["error"] \
            == "config field 'weights.delta': must be a number > 0, got -1.0"
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
        assert len(list(out.glob("*.json"))) == 1

    def test_refused_separation_in_its_row(self, tmp_path, capsys,
                                           fast_concentric):
        # d0 = 0.9 puts D too near the boundary: the config parser refuses
        # it, in its own row, and the d0 = 0.3 run is kept
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["energy"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg_path), "--param",
                     "scene.d0", "--values", "0.3,0.9"]) == EXIT_STRUCTURAL
        agg = json.loads(capsys.readouterr().out)
        assert [r["exit_code"] for r in agg["rows"]] \
            == [EXIT_OK, EXIT_STRUCTURAL]
        assert agg["rows"][1]["error"] == "config field 'scene.d0': " \
            "dist(D, boundary) = 0.75 below required d0 = 0.9"

    def test_unknown_param_path_is_fatal(self, tmp_path, capsys,
                                         fast_concentric):
        # outside the field table, and not a key inside a given value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_concentric))
        for param in ("weights.nope", "lipschitz_b", "scene.inclusion.width"):
            assert main(["sweep", "--config", str(cfg_path), "--param",
                         param, "--values", "8,-1"]) == EXIT_STRUCTURAL
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: config field '{param}': " \
                                   "not a valid config path\n"

    @pytest.mark.parametrize("param,value", [("lipschitz_a", 0.2),
                                             ("regions.n_family", 3)])
    def test_table_path_the_document_omits(self, tmp_path, param, value):
        # concentric_disk gives neither path; each is set where the parser
        # reads it
        doc = corpus_config("concentric_disk", mesh={"h": 0.08},
                            checks=["energy"])
        *section, key = param.split(".")
        assert key not in (doc[section[0]] if section else doc)
        out = tmp_path / "out"
        agg = sweep(parse_config(doc), param, [value], out_dir=out)
        [row] = agg["rows"]
        assert row["exit_code"] == EXIT_OK
        echo = json.loads((out / f"{row['label']}.json").read_text())
        node = echo["config"]
        for k in param.split("."):
            node = node[k]
        assert node == value

    def test_empty_values(self, fast_concentric):
        cfg = parse_config(fast_concentric)
        agg = sweep(cfg, "mesh.h", [])
        assert agg["rows"] == []

    def test_inclusion_radius_sweep_monotone(self):
        doc = corpus_config("concentric_disk", mesh={"h": 0.05},
                            checks=["energy"])
        cfg = parse_config(doc)
        agg = sweep(cfg, "scene.inclusion.radius", [0.15, 0.2, 0.25])
        col = [r["grad_energy_D"] for r in agg["rows"]]
        assert col == sorted(col)

    def test_failed_member_recorded_sweep_continues(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        cfg = parse_config(doc)
        agg = sweep(cfg, "mesh.h", [0.05, 9.0])
        codes = [r["exit_code"] for r in agg["rows"]]
        assert codes[0] == EXIT_OK and codes[1] == EXIT_STRUCTURAL


class TestPlotData:
    def test_bracket_projection(self, fast_report, tmp_path):
        rows = emit_plot_data([fast_report], "bracket",
                              tmp_path / "bracket.csv")
        assert len(rows) == 1
        header = (tmp_path / "bracket.csv").read_text().splitlines()[0]
        assert header == "scenario,grad_energy_D,delta_w_re,kappa_lo,kappa_hi"

    def test_three_region_projection(self, fast_report, tmp_path):
        rows = emit_plot_data([fast_report], "three_region",
                              tmp_path / "tr.csv")
        assert len(rows) == 3  # n_family members

    def test_size_projection(self, fast_report, tmp_path):
        rows = emit_plot_data([fast_report], "size", tmp_path / "size.csv")
        assert rows[0][1] == pytest.approx(math.pi * 0.25 ** 2)

    def test_refused_size_stage_named(self, tmp_path, capsys):
        # sigma1 = 2 classifies the jump as 'none': run exits 0 with a
        # refused size section, and the size report says so, exit 2
        doc = corpus_config("one_phase_disk", mesh={"h": 0.08},
                            law={"sigma1": 2.0},
                            checks=["admissibility", "energy", "bracket",
                                    "size"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) \
            == EXIT_OK
        [report] = out.glob("*.json")
        assert "refused" in json.loads(report.read_text())["size"]
        capsys.readouterr()
        assert main(["report", str(report), "--kind", "size", "--out",
                     str(tmp_path / "size.csv")]) == EXIT_STRUCTURAL
        err = capsys.readouterr().err
        assert err.startswith("error: report 'one_phase_disk_case_ii' lacks "
                              "size.true_area/lower/upper for kind 'size'; "
                              "its size stage refused: jump condition (a0)")
        assert not (tmp_path / "size.csv").exists()

    def test_schema_mismatch_named(self, tmp_path):
        with pytest.raises(ConfigError, match="three_region"):
            emit_plot_data([{"config": {"label": "x"}, "checks": {}}],
                           "three_region", tmp_path / "x.csv")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            emit_plot_data([], "histogram", tmp_path / "x.csv")


class TestScenarios:
    def test_size_family_shapes(self):
        fam = size_family(10)
        assert len(fam) == 10
        labels = {f["label"] for f in fam}
        assert len(labels) == 10
        # the family spans the inner component, the outer component, and
        # interface-crossing positions
        sides = set()
        for f in fam:
            c = f["scene"]["inclusion"]["center"]
            r = f["scene"]["inclusion"]["radius"]
            dist = (c[0] ** 2 + c[1] ** 2) ** 0.5
            if dist + r < 0.5:
                sides.add("inner")
            elif dist - r > 0.5:
                sides.add("outer")
            else:
                sides.add("crossing")
        assert sides == {"inner", "outer", "crossing"}

    def test_case_variants_flip_chirality(self):
        ii, = size_family(1, case="case_ii")
        i, = size_family(1, case="case_i")
        assert ii["law"]["zeta1"] == -i["law"]["zeta1"]


class TestGammaSweep:
    def test_three_region_uniform_over_gamma(self):
        # sweep the complex-part magnitude and watch the fitted constants:
        # the checks stay well-behaved over the swept range
        doc = corpus_config("concentric_disk", mesh={"h": 0.05},
                            regions={"n_family": 3},
                            checks=["three_region"])
        cfg = parse_config(doc)
        agg = sweep(cfg, "background.gamma", [0.02, 0.05, 0.1])
        assert all(r["exit_code"] == EXIT_OK for r in agg["rows"])
        assert all(r["violations"] == 0 for r in agg["rows"])


class TestCorpus:
    def test_every_scenario_runs_clean(self):
        for name in SCENES:
            doc = corpus_config(name, mesh={"h": 0.06})
            doc.setdefault("regions", {})["n_family"] = 2
            if "chain" in doc.get("checks", []):
                doc["checks"] = [c for c in doc["checks"] if c != "chain"]
            rep, code = run(parse_config(doc))
            assert code == EXIT_OK, (name, rep.get("violations"))
            assert rep["violations"] == []

    def test_concentric_error_is_second_order(self):
        # concentric_disk has an exact layered-disk solution: halving h
        # divides the errors of W0 and dW by about four
        from oracles import LayeredDiskSolution, constitutive_matrix

        orc0 = LayeredDiskSolution(
            [0.5, 1.0],
            [constitutive_matrix(2.0, 0.05), constitutive_matrix(1.0, 0.05)],
            1, (1.0, 0.0))
        orc1 = LayeredDiskSolution(
            [0.25, 0.5, 1.0],
            [constitutive_matrix(1.5, 0.05, 1.2),
             constitutive_matrix(2.0, 0.05), constitutive_matrix(1.0, 0.05)],
            1, (1.0, 0.0))
        w0 = orc0.power((1.0, 0.0)).real
        dw = w0 - orc1.power((1.0, 0.0)).real
        with open(CONFIGS / "concentric_disk.json") as fh:
            doc = json.load(fh)
        doc["checks"] = ["energy"]
        errors = []
        for h in (0.03, 0.015):
            doc["mesh"]["h"] = h
            rep, code = run(parse_config(doc))
            assert code == EXIT_OK
            errors.append((rep["power"]["w0_re"] / w0 - 1.0,
                           rep["power"]["delta_w_re"] / dw - 1.0))
        (w_coarse, dw_coarse), (w_fine, dw_fine) = errors
        assert abs(w_coarse) < 5e-5 and abs(dw_coarse) < 2e-3
        assert abs(dw_fine) < 6e-4
        assert 3.0 <= w_coarse / w_fine <= 5.0
        assert 3.0 <= dw_coarse / dw_fine <= 5.0

    def test_concentric_report_matches_series_oracle(self, fast_report):
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).parent))
        from oracles import LayeredDiskSolution, constitutive_matrix

        orc0 = LayeredDiskSolution(
            [0.5, 1.0],
            [constitutive_matrix(2.0, 0.05), constitutive_matrix(1.0, 0.05)],
            1, (1.0, 0.0))
        orc1 = LayeredDiskSolution(
            [0.25, 0.5, 1.0],
            [constitutive_matrix(1.5, 0.05, 1.2),
             constitutive_matrix(2.0, 0.05), constitutive_matrix(1.0, 0.05)],
            1, (1.0, 0.0))
        w0 = orc0.power((1.0, 0.0))
        dw = w0 - orc1.power((1.0, 0.0))
        assert fast_report["power"]["w0_re"] == pytest.approx(w0.real,
                                                              rel=0.01)
        assert fast_report["power"]["delta_w_re"] == pytest.approx(dw.real,
                                                                   rel=0.02)
