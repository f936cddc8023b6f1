import csv
import dataclasses
import json
import statistics

import numpy as np
import pytest

from kinomo import cli, planner, transcription
from kinomo.contact import NormalForceNonPositive
from kinomo.scenario import (
    load_scenario,
    make_standing_scenario,
    make_stepping_scenario,
    save_scenario,
    scenario_to_dict,
)
from kinomo.solver import QPSubproblemInfeasible


@pytest.fixture(scope="module")
def stand_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "stand.json"
    save_scenario(make_standing_scenario(T=10), path)
    return str(path)


@pytest.fixture(scope="module")
def step_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "step.json"
    save_scenario(make_stepping_scenario(T=21), path)
    return str(path)


def read_csv(path):
    with open(path) as f:
        header = f.readline().rstrip("\n")
        rows = list(csv.reader(f))
    return header, rows[0], rows[1:]


class TestValidate:
    def test_ok(self, stand_path, capsys):
        assert cli.main(["validate", stand_path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli.main(["validate", str(bad)]) == 2

    def test_schema_error_reports_path(self, tmp_path, capsys):
        d = scenario_to_dict(make_standing_scenario(T=10))
        d["phases"][0]["epsilon"] = 50
        p = tmp_path / "bad_phase.json"
        p.write_text(json.dumps(d))
        assert cli.main(["validate", str(p)]) == 2
        assert "phases[0].epsilon" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [("force", -1.0), ("momentum", [-1.0] * 9)])
    def test_negative_weight_rejected(self, tmp_path, capsys, field, value):
        d = scenario_to_dict(make_standing_scenario(T=10))
        d["weights"][field] = value
        p = tmp_path / "bad_weights.json"
        p.write_text(json.dumps(d))
        assert cli.main(["validate", str(p)]) == 2
        assert "$.weights" in capsys.readouterr().out


    def test_non_positive_friction_exits_schema(self, tmp_path, capsys):
        d = scenario_to_dict(make_standing_scenario(T=10))
        d["phases"][0]["surface"]["mu"] = 0.0
        p = tmp_path / "bad_mu.json"
        p.write_text(json.dumps(d))
        assert cli.main(["validate", str(p)]) == 2
        assert "$.phases[0].surface.mu" in capsys.readouterr().out

    def test_non_numeric_entry_exits_schema(self, tmp_path, capsys):
        d = scenario_to_dict(make_standing_scenario(T=10))
        d["robot"]["links"][0]["axis"] = ["a", 0, 0]
        p = tmp_path / "bad_axis.json"
        p.write_text(json.dumps(d))
        assert cli.main(["validate", str(p)]) == cli.EXIT_SCHEMA
        assert "$.robot.links[0].axis" in capsys.readouterr().out


class TestMomentum:
    def test_sequential(self, stand_path, tmp_path, capsys):
        rc = cli.main(["momentum", stand_path, "--out-dir", str(tmp_path)])
        assert rc == 0
        header, cols, rows = read_csv(tmp_path / "stand_momentum.csv")
        assert header == "# kinomo-csv v1"
        assert cols == ["t", "rx", "ry", "rz", "lx", "ly", "lz", "kx", "ky", "kz"]
        assert len(rows) == 11

        # forces sum to -Mg at every step
        _, ccols, crows = read_csv(tmp_path / "stand_contacts.csv")
        assert ccols[:5] == ["t", "effector", "fx", "fy", "fz"]
        by_t = {}
        for r in crows:
            t = int(r[0])
            by_t.setdefault(t, np.zeros(3))
            by_t[t] += np.array([float(v) for v in r[2:5]])
            assert r[8] == "1"  # feasible flag
        for t, total in by_t.items():
            assert np.allclose(total, [0.0, 0.0, 30.0 * 9.81], atol=1e-5), t

    def test_iteration_stats_written(self, stand_path, tmp_path):
        cli.main(["momentum", stand_path, "--out-dir", str(tmp_path)])
        header, cols, rows = read_csv(tmp_path / "stand_iterations.csv")
        assert cols == ["iter", "kkt", "mu", "alpha", "alpha_dual", "time_ms", "hessian"]
        kkts = [float(r[1]) for r in rows]
        assert kkts[-1] <= 1e-6
        assert {r[6] for r in rows} <= {"exact", "convexified"}

    @pytest.mark.parametrize("backend", ["ipm", "sqp"])
    def test_summary_counts_fallbacks(self, stand_path, tmp_path, capsys, backend):
        cli.main(["momentum", stand_path, "--backend", backend, "--out-dir", str(tmp_path)])
        # the standing instance never rejects the exact matrix; the SQP
        # is convexified by design and never falls back
        assert " fallbacks=0 " in capsys.readouterr().out

    def test_formulations_agree(self, stand_path, tmp_path, capsys):
        assert cli.main(["momentum", stand_path, "--out-dir", str(tmp_path)]) == 0
        out_seq = capsys.readouterr().out
        assert cli.main(["momentum", stand_path, "--formulation", "sim",
                         "--out-dir", str(tmp_path)]) == 0
        out_sim = capsys.readouterr().out

        def objective(s):
            return float(s.split("objective=")[1].split()[0])

        o1, o2 = objective(out_seq), objective(out_sim)
        assert abs(o1 - o2) <= 1e-3 * (1.0 + abs(o1))

    @pytest.mark.parametrize("formulation", ["seq", "sim"])
    def test_sqp_backend(self, stand_path, tmp_path, formulation):
        rc = cli.main(["momentum", stand_path, "--backend", "sqp",
                       "--formulation", formulation, "--out-dir", str(tmp_path)])
        assert rc == 0

    def test_infeasible_qp_subproblem_exits_numeric(self, stand_path, tmp_path,
                                                    capsys, monkeypatch):
        def infeasible(p, opts):
            raise QPSubproblemInfeasible("singular QP KKT system")

        monkeypatch.setattr(cli, "solve", infeasible)
        rc = cli.main(["momentum", stand_path, "--backend", "sqp",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_NUMERIC
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("error:")

    def test_nonpositive_normal_force_exits_numeric(self, stand_path, tmp_path,
                                                    capsys, monkeypatch):
        def no_force(w, s, r):
            raise NormalForceNonPositive("normal force 0.0 <= 1e-09")

        monkeypatch.setattr(cli, "com_to_cop", no_force)
        rc = cli.main(["momentum", stand_path, "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_NUMERIC
        assert capsys.readouterr().out.splitlines()[-1].startswith("error:")
        assert not (tmp_path / "stand_contacts.csv").exists()

    def test_numeric_failure_exits_numeric_without_csv(self, stand_path, tmp_path,
                                                       capsys, monkeypatch):
        real = cli.solve
        monkeypatch.setattr(cli, "solve", lambda p, opts: dataclasses.replace(
            real(p, opts), status="NumericFailure"))
        rc = cli.main(["momentum", stand_path, "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_NUMERIC
        assert "[sequential/NumericFailure]" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("formulation", ["seq", "sim"])
    def test_contacts_skip_inactive_phases(self, step_path, tmp_path, formulation):
        assert cli.main(["momentum", step_path, "--formulation", formulation,
                         "--out-dir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "step_stones_contacts.csv")
        scn = load_scenario(step_path)
        active = [(t, ph.effector_id) for t in range(scn.T) for ph in scn.phases if ph.active(t)]
        assert len(active) < scn.T * len(scn.phases)  # some phase is inactive at some step
        assert [(int(r[0]), r[1]) for r in rows] == active

    @pytest.mark.parametrize("keys, value, path", [
        (("solver", "max_iter"), -1, "$.solver"),
        (("solver", "max_iter"), 2.5, "$.solver"),
        (("solver", "max_iter"), "7", "$.solver"),
        (("phases", 0, "surface", "mu"), float("nan"), "$.phases[0].surface.mu"),
        (("delta",), float("nan"), "$.delta"),
        (("robot", "links", 3, "mass"), float("nan"), "$.robot.links[3].mass"),
        (("q0", 2), float("inf"), "$.q0[2]"),
        (("phases", 1, "surface", "p_max", 0), float("nan"), "$.phases[1].surface.p_max[0]"),
    ])
    def test_malformed_number_exits_schema(self, tmp_path, capsys, keys, value, path):
        d = scenario_to_dict(make_standing_scenario(T=10))
        node = d
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        p = tmp_path / "bad_number.json"
        p.write_text(json.dumps(d))  # writes NaN and Infinity as JSON parsers read them
        assert cli.main(["momentum", str(p), "--out-dir", str(tmp_path)]) == cli.EXIT_SCHEMA
        assert capsys.readouterr().out.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["momentum", "plan", "bench"])
    def test_missing_file(self, command, tmp_path, capsys):
        assert cli.main([command, str(tmp_path / "nope.json"),
                         "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().out.startswith("error:")


class TestPlan:
    def test_standing_near_constant_q(self, stand_path, tmp_path):
        rc = cli.main(["plan", stand_path, "--out-dir", str(tmp_path)])
        assert rc == 0
        header, cols, rows = read_csv(tmp_path / "stand_joints.csv")
        assert header == "# kinomo-csv v1"
        q = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.abs(q - q[0]).max() <= 1e-3

        _, ccols, crows = read_csv(tmp_path / "stand_cop.csv")
        assert ccols == ["t", "effector", "px_hat", "py_hat", "px_max", "py_max", "feasible"]
        for r in crows:
            assert r[6] == "1"
            assert abs(float(r[2])) <= float(r[4])
            assert abs(float(r[3])) <= float(r[5])

        _, pcols, prows = read_csv(tmp_path / "stand_passes.csv")
        assert pcols == ["outer", "mismatch", "delta_h", "delta_c", "momentum_status",
                         "momentum_iters"]
        assert all(r[4] == "Converged" for r in prows)
        assert all(int(r[5]) >= 1 for r in prows)

    def test_planner_error_exits_numeric(self, stand_path, tmp_path, capsys, monkeypatch):
        def failing(scn, opts):
            raise planner.PlannerError(2, "momentum sub-problem failed: NumericFailure")

        monkeypatch.setattr(cli.planner, "plan", failing)
        rc = cli.main(["plan", stand_path, "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_NUMERIC
        assert capsys.readouterr().out.splitlines() == [
            "error: pass 2: momentum sub-problem failed: NumericFailure"]
        assert not list(tmp_path.iterdir())


class TestBench:
    def test_csv_and_counts(self, stand_path, tmp_path, capsys):
        rc = cli.main(["bench", stand_path, "--T-list", "10,20", "--repeats", "3",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        header, cols, rows = read_csv(tmp_path / "stand_bench_seq.csv")
        assert cols == ["T", "n_vars", "iter_count", "total_ms", "ms_per_iter", "kkt_final",
                        "kkt_ms"]
        for r in rows:
            # sequential double support: 12T variables
            assert int(r[1]) == 12 * int(r[0])
            assert 0.0 < float(r[6]) < float(r[3])  # the build is part of a solve's time

    def test_sim_counts(self, stand_path, tmp_path):
        cli.main(["bench", stand_path, "--formulation", "sim", "--T-list", "10",
                  "--repeats", "1", "--out-dir", str(tmp_path)])
        _, _, rows = read_csv(tmp_path / "stand_bench_sim.csv")
        assert int(rows[0][1]) == 21 * int(rows[0][0])

    def test_ms_per_iter_is_median_iteration_time(self, stand_path, tmp_path, monkeypatch):
        """Every timed solve runs on a compiled problem, and ms_per_iter is
        the median IterationStat.time_ms over all of them."""
        compiles, solves = [], []
        for name in ("CompiledObjective", "CompiledVectorFunction"):
            cls = getattr(transcription, name)
            monkeypatch.setattr(transcription, name,
                                lambda f, cls=cls: compiles.append(f) or cls(f))
        real = cli.solve

        def timed(p, opts, kkt):
            before = len(compiles)
            res = real(p, opts, kkt=kkt)
            assert len(compiles) == before, "a compile ran inside a timed solve"
            solves.append(res)
            return res

        monkeypatch.setattr(cli, "solve", timed)
        assert cli.main(["bench", stand_path, "--T-list", "10", "--repeats", "3",
                         "--out-dir", str(tmp_path)]) == 0
        _, _, rows = read_csv(tmp_path / "stand_bench_seq.csv")
        assert len(solves) == 3 and len(compiles) == 3
        assert float(rows[0][4]) == statistics.median(
            st.time_ms for res in solves for st in res.stats)

    @pytest.mark.parametrize("option, value", [
        ("--repeats", "0"), ("--repeats", "-2"), ("--T-list", "0"),
        ("--T-list", "10,-5"), ("--T-list", "10,x"), ("--T-list", "10,,20"),
    ])
    def test_bad_option_exits_schema(self, stand_path, tmp_path, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", stand_path, f"{option}={value}", "--out-dir", str(tmp_path)])
        assert exc.value.code == cli.EXIT_SCHEMA
        assert f"argument {option}: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestOutDir:
    @pytest.mark.parametrize("command", ["momentum", "plan", "bench"])
    @pytest.mark.parametrize("target", ["missing", "file"])
    def test_bad_out_dir_exits_schema(self, stand_path, tmp_path, capsys, monkeypatch,
                                      command, target):
        def no_solve(*args):
            raise AssertionError("solved before the output directory was checked")

        monkeypatch.setattr(cli, "solve", no_solve)
        monkeypatch.setattr(cli.planner, "plan", no_solve)
        out = tmp_path / "out"
        if target == "file":
            out.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, stand_path, "--out-dir", str(out)])
        assert exc.value.code == cli.EXIT_SCHEMA
        assert "argument --out-dir: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["momentum", "plan", "bench"])
    def test_unwritable_out_dir_exits_schema(self, stand_path, tmp_path, capsys,
                                             monkeypatch, command):
        def no_solve(*args):
            raise AssertionError("solved before the output directory was checked")

        monkeypatch.setattr(cli, "solve", no_solve)
        monkeypatch.setattr(cli.planner, "plan", no_solve)
        # root passes every os.access check, so the denial is injected
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, stand_path, "--out-dir", str(tmp_path)])
        assert exc.value.code == cli.EXIT_SCHEMA
        assert "is not writable" in capsys.readouterr().err
