import json
import math
from pathlib import Path

import pytest

from powergap.cli import (
    EXIT_OK,
    EXIT_STRUCTURAL,
    EXIT_VIOLATION,
    emit_plot_data,
    main,
    parse_config,
    report_json,
    run,
    sweep,
)
from powergap.errors import ConfigError
from powergap.scenarios import all_scenarios, scenario, size_family

CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.fixture(scope="module")
def fast_concentric():
    return scenario("concentric_disk", mesh={"h": 0.05},
                    regions={"n_family": 3})


@pytest.fixture(scope="module")
def fast_report(fast_concentric):
    cfg = parse_config(fast_concentric)
    rep, code = run(cfg)
    assert code == EXIT_OK
    return rep


class TestConfigParsing:
    def test_corpus_parses(self):
        for name, doc in all_scenarios().items():
            cfg = parse_config(doc)
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

    def test_identical_laws_zero_gap(self):
        doc = scenario("concentric_disk", mesh={"h": 0.05})
        doc["law"] = {"sigma1": 2.0, "zeta1": 0.0, "epsilon1": None,
                      "lambda1": 0.4, "varrho": 0.5, "delta_tol": 0.0}
        doc["checks"] = ["admissibility", "energy", "size"]
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
        doc = scenario(name, mesh={"h": 0.08}, regions={"n_family": 2})
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

    def test_validate_verb(self, tmp_path, fast_concentric):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fast_concentric))
        assert main(["validate", "--config", str(path)]) == EXIT_OK


class TestSweep:
    def test_mesh_sweep_convergence_row(self, fast_concentric):
        doc = json.loads(json.dumps(fast_concentric))
        doc["checks"] = ["energy"]
        cfg = parse_config(doc)
        agg = sweep(cfg, "mesh.h", [0.08, 0.04, 0.02])
        assert len(agg["rows"]) == 3
        assert "convergence_order_w0" in agg
        assert all(r["exit_code"] == EXIT_OK for r in agg["rows"])

    def test_empty_values(self, fast_concentric):
        cfg = parse_config(fast_concentric)
        agg = sweep(cfg, "mesh.h", [])
        assert agg["rows"] == []

    def test_inclusion_radius_sweep_monotone(self):
        doc = scenario("concentric_disk", mesh={"h": 0.05},
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
        ii = scenario("concentric_disk", case="case_ii")
        i = scenario("concentric_disk", case="case_i")
        assert ii["law"]["zeta1"] == -i["law"]["zeta1"]


class TestGammaSweep:
    def test_three_region_uniform_over_gamma(self):
        # sweep the complex-part magnitude and watch the fitted constants:
        # the checks stay well-behaved over the swept range
        doc = scenario("concentric_disk", mesh={"h": 0.05},
                       regions={"n_family": 3},
                       checks=["three_region"])
        cfg = parse_config(doc)
        agg = sweep(cfg, "background.gamma", [0.02, 0.05, 0.1])
        assert all(r["exit_code"] == EXIT_OK for r in agg["rows"])
        assert all(r["violations"] == 0 for r in agg["rows"])


class TestCorpus:
    def test_every_scenario_runs_clean(self):
        for name in ("one_phase_disk", "concentric_disk",
                     "off_center_inclusion", "crossing_inclusion",
                     "curved_ellipse"):
            doc = scenario(name, mesh={"h": 0.06})
            doc.setdefault("regions", {})["n_family"] = 2
            if "chain" in doc.get("checks", []):
                doc["checks"] = [c for c in doc["checks"] if c != "chain"]
            rep, code = run(parse_config(doc))
            assert code == EXIT_OK, (name, rep.get("violations"))
            assert rep["violations"] == []

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
