import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from powergap.smallness import check_three_region
from powergap.solver import BackgroundOperator, fourier_data
from powergap.scenarios import all_scenarios, scenario, size_family

CONFIGS = Path(__file__).parent.parent / "configs"


def _one_phase_config(tmp_path, path: str, value, checks) -> Path:
    """one_phase_disk at h=0.08 with one field replaced, written to disk."""
    with open(CONFIGS / "one_phase_disk.json") as fh:
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

    @pytest.mark.parametrize("path, value, checks, named", [
        ("weights.kappa0", 0.5, None, "section 'weights'"),
        ("weights.bogus", 1.0, None, "section 'weights'"),
        ("background.lambda0", -1, None, "section 'background'"),
        ("law.varrho", -1, None, "section 'law'"),
        ("mesh.h", "x", None, "section 'mesh'"),
        ("background", {"m_minus": 1.0}, None,
         "section 'background': missing key 'm_plus'"),
        ("boundary_data", [[1, "a", 0]], None, "section 'boundary_data'"),
        ("three_ball.radii", [0.02, 0.1, 0.3], ["three_ball"],
         "check 'three_ball'"),
        ("three_ball.center", [0.9, 0], ["three_ball"], "check 'three_ball'"),
        ("lipschitz_a", 0.5, ["lipschitz"], "check 'lipschitz'"),
    ])
    def test_out_of_range_value_named(self, tmp_path, capsys, path, value,
                                      checks, named):
        cfg_path = _one_phase_config(tmp_path, path, value, checks)
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_STRUCTURAL
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, check", [
        ("three_ball.radii", [0.02, 0.1, 0.3], "three_ball"),
        ("three_ball.center", [0.9, 0], "three_ball"),
        ("lipschitz_a", 0.5, "lipschitz"),
    ])
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys, path,
                                               value, check):
        cfg_path = _one_phase_config(tmp_path, path, value, [check])
        assert main(["validate", "--config", str(cfg_path)]) \
            == EXIT_STRUCTURAL
        refused = capsys.readouterr().err
        assert refused.startswith(f"error: check '{check}': ")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == EXIT_STRUCTURAL
        assert capsys.readouterr().err == refused

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
        scene, rcfg = cfg.build_scene(), cfg.raw["regions"]
        op = BackgroundOperator(build_mesh(scene, 0.06, 5.0),
                                cfg.build_background())
        rng = np.random.default_rng(cfg.seed)
        family = [fourier_data([(k, rng.normal(), rng.normal())
                                for k in range(1, 6)]) for _ in range(8)]
        checks = check_three_region(
            op.solve(family),
            build_regions(cfg.build_weights(), rcfg["R1"], rcfg["R2"],
                          rcfg["theta"]),
            flattening_map(scene.interface, rcfg["anchor_t"], scene.rho0,
                           scene.K0))
        want = [[c.small_factor, c.lhs, c.large_factor, c.constant,
                 c.margin, c.violation_candidate] for c in checks]
        got = [[r["I1"], r["I2"], r["I3"], r["constant"], r["margin"],
                r["violation"]] for r in rep["checks"]["three_region"]["rows"]]
        # NaN-safe bitwise equality
        assert json.dumps(got) == json.dumps(want)

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
        assert agg["rows"][1]["error"] == "h must be positive"
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
            == "config section 'weights': delta must be positive"
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
        assert len(list(out.glob("*.json"))) == 1

    def test_unknown_param_path_is_fatal(self, tmp_path, capsys,
                                         fast_concentric):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_concentric))
        assert main(["sweep", "--config", str(cfg_path), "--param",
                     "weights.nope", "--values", "8,-1"]) == EXIT_STRUCTURAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a valid config path" in captured.err

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
