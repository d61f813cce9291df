import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from igdist import derive_seed, load_config, runner
from igdist.cli import main as cli_main
from igdist.bpsim import labeled_growth
from igdist.config import config_from_dict
from igdist.errors import ConfigError, PopulationCapError
from igdist.model import derived_scalars
from igdist.runner import RunWriter, _default_horizon, parallel_map, run

GOLDEN = json.loads((Path(__file__).parent / "golden_seeds.json").read_text())
CONFIGS = Path(__file__).parent.parent / "configs"

MINIMAL = {
    "model": {"n": [1000], "m": [1000], "P": [[0.002]]},
    "seed": 4242,
    "reps": {"graph": 40, "pool": 60, "bp": 200},
    "horizon": 6,
    "depth": 3,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(123, "graph", 7) == derive_seed(123, "graph", 7)

    def test_replicates_distinct(self):
        seeds = {derive_seed(0, "graph", r) for r in range(10_000)}
        assert len(seeds) == 10_000

    def test_tags_distinct(self):
        assert derive_seed(0, "graph", 0) != derive_seed(0, "bp", 0)

    def test_golden_values(self):
        assert derive_seed(0, "graph", 0) == GOLDEN["derive_seed(0, 'graph', 0)"]
        assert derive_seed(0, "graph", 1) == GOLDEN["derive_seed(0, 'graph', 1)"]
        assert derive_seed(1, "graph", 0) == GOLDEN["derive_seed(1, 'graph', 0)"]
        assert derive_seed(0, "bp", 0) == GOLDEN["derive_seed(0, 'bp', 0)"]

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, "graph", -1)


class TestConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.seed == 4242
        assert cfg.k1 == 0 and cfg.k2 == 0
        assert cfg.graph_reps == 40

    def test_seed_required(self, tmp_path):
        doc = {k: v for k, v in MINIMAL.items() if k != "seed"}
        with pytest.raises(ConfigError, match="seed required"):
            load_config(write_config(tmp_path, doc))

    def test_exactly_one_model_block(self, tmp_path):
        doc = dict(MINIMAL)
        doc["rank1"] = {"alpha": [0.01], "beta": [1.0], "n": [100], "m": [100]}
        with pytest.raises(ConfigError, match="exactly one model block"):
            load_config(write_config(tmp_path, doc))
        doc = {k: v for k, v in MINIMAL.items() if k != "model"}
        with pytest.raises(ConfigError, match="exactly one model block"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_keys_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["sneaky"] = 1
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(write_config(tmp_path, doc))
        doc = dict(MINIMAL)
        doc["model"] = dict(doc["model"], extra=3)
        with pytest.raises(ConfigError, match="unknown model keys"):
            load_config(write_config(tmp_path, doc))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {,}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_invalid_model_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["model"] = {"n": [1000], "m": [1], "P": [[0.002]]}
        with pytest.raises(ConfigError, match="m_1"):
            load_config(write_config(tmp_path, doc))

    def test_k_range(self):
        doc = dict(MINIMAL)
        doc["k1"] = 2
        with pytest.raises(ConfigError, match="k1/k2"):
            config_from_dict(doc)

    def test_rank1_block(self):
        cfg = config_from_dict(
            {
                "rank1": {
                    "alpha": [0.005, 0.004],
                    "beta": [1.0],
                    "n": [200, 300],
                    "m": [500],
                },
                "seed": 1,
            }
        )
        assert cfg.rank1 is not None
        assert cfg.params.K == 2

    def test_bad_reps(self):
        doc = dict(MINIMAL)
        doc["reps"] = {"graph": 0}
        with pytest.raises(ConfigError, match="reps.graph"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("seed", "abc", "seed"),
            ("seed", [1], "seed"),
            ("seed", 1.7, "seed"),
            ("seed", True, "seed"),
            ("k1", True, "k1"),
            ("k2", 1.0, "k2"),
            ("reps", {"graph": True}, "reps.graph"),
            ("reps", {"pool": 60.0}, "reps.pool"),
            ("horizon", "6", "horizon"),
            ("depth", [3], "depth"),
            ("workers", True, "workers"),
            ("population_cap", 1e6, "population_cap"),
        ],
    )
    def test_integer_fields_must_be_json_integers(self, tmp_path, key, value, match):
        path = write_config(tmp_path, dict(MINIMAL, **{key: value}))
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert cli_main(["spectral", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "scheme",
        [
            5,
            {"w": 10, "zA": [[2]], "zB": [[3]]},
            {"w": [10], "zA": [[2]], "zB": [[30]]},
        ],
    )
    def test_bad_scheme_rejected(self, scheme):
        with pytest.raises(ConfigError, match="scheme"):
            config_from_dict(dict(MINIMAL, scheme=scheme))

    def test_scheme_block_parsed(self):
        cfg = config_from_dict(
            dict(MINIMAL, scheme={"w": [10], "zA": [[2]], "zB": [[3]]})
        )
        assert cfg.scheme.w == (10,) and cfg.scheme.excluded == (0,)


class TestParallelMap:
    def test_order_preserved(self, monkeypatch):
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        args = list(range(40))
        for workers in (1, 2, 3):
            assert parallel_map(_square, args, workers) == [a * a for a in args]
        _assert_no_child()

    def test_processes_capped_by_tasks_and_cpus(self, monkeypatch):
        # the caller works one share, so w workers fork w - 1 children; a
        # fork beyond the expected count raises before it starts a process
        forks, real_fork = [], os.fork
        allowed = [0]

        def counting_fork():
            if len(forks) >= allowed[0]:
                raise AssertionError(f"fork {len(forks) + 1} beyond the cap")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(runner.os, "fork", counting_fork)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        for args, children in (([1, 2, 3], 2), (list(range(10)), 3)):
            forks.clear()
            allowed[0] = children
            assert parallel_map(_square, args, 5000) == [a * a for a in args]
            assert len(forks) == children
        monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
        forks.clear()
        allowed[0] = 0
        assert parallel_map(_square, [1, 2, 3], 5000) == [1, 4, 9]
        _assert_no_child()

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "child"])
    def test_failure_propagates_and_leaves_no_child(self, failing, monkeypatch):
        # the last child sleeps far longer than the test may take, so only
        # killing it lets the call return in time
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match=f"task {failing}"):
            parallel_map(functools.partial(_fail_or_sleep, failing), [0, 1, 2], 3)
        assert time.monotonic() - t0 < 20
        _assert_no_child()

    def test_child_exit_status_named(self):
        with pytest.raises(RuntimeError, match="exited with status 7"):
            parallel_map(_exit_seven_at_one, [0, 1, 2, 3], 2)
        _assert_no_child()

    def test_unpicklable_child_result_named(self):
        with pytest.raises(RuntimeError, match="could not be pickled"):
            parallel_map(_closure, [0, 1], 2)
        _assert_no_child()

    def test_child_failure_keeps_parent_files(self, tmp_path):
        # run() discards its output when a stage raises; a child that
        # unwound into that handler would delete the parent's files
        cfg = load_config(write_config(tmp_path, MINIMAL))
        w = RunWriter(tmp_path / "out", cfg, "spectral")
        path = w.write_csv("kept.csv", ["x"], [(1,)])
        with pytest.raises(ValueError, match="task 1"):
            try:
                parallel_map(functools.partial(_fail_or_sleep, 1), [0, 1], 2)
            except BaseException:
                assert path.exists()
                w.discard()
                raise
        assert not path.exists()
        _assert_no_child()

    def test_cap_error_from_child_share(self):
        # the child's share hits the cap; the caller's share does not
        p = config_from_dict(MINIMAL).params

        def grow(cap):
            return labeled_growth(p, 0, 0, 3, 0, population_cap=cap).depth

        with pytest.raises(PopulationCapError) as direct:
            grow(50)
        with pytest.raises(PopulationCapError) as err:
            parallel_map(grow, [10**9, 50], 2)
        assert str(err.value) == str(direct.value)
        assert (err.value.generation, err.value.count, err.value.cap) == (
            direct.value.generation, direct.value.count, 50,
        )
        _assert_no_child()

    def test_imports_no_executor(self):
        # concurrent.futures and multiprocessing cost import time and
        # memory in every run; a subprocess because the test session may
        # have imported them already
        code = (
            "import sys\n"
            "import igdist.runner\n"
            "assert igdist.runner.parallel_map(abs, [-1, -2], 2) == [1, 2]\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        src = str(Path(runner.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "[]"


def _square(x):
    return x * x


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_or_sleep(failing, x):
    if x == failing:
        raise ValueError(f"task {x}")
    if x == 2:
        time.sleep(300)


def _closure(x):
    return lambda: x


def _exit_seven_at_one(x):
    if x == 1:
        os._exit(7)
    return x


class TestRun:
    def test_spectral_json_values(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        out = run("spectral", cfg, out_dir=tmp_path / "out")
        doc = json.loads((out / "spectral.json").read_text())
        assert doc["tau"] == pytest.approx(4.0, rel=1e-10)
        assert doc["kappa"] == pytest.approx(4.0 / 3.0, rel=1e-10)
        assert doc["i0"] == 4
        assert doc["phi_n"] == pytest.approx(0.256, rel=1e-10)
        idents = (out / "identities.csv").read_text().splitlines()
        assert idents[0] == "identity,residual"
        assert all(float(line.split(",")[1]) < 1e-10 for line in idents[1:])

    def test_compare_with_zero_probability_model(self, tmp_path):
        doc = dict(MINIMAL)
        doc["model"] = {"n": [50], "m": [40], "P": [[0.0]]}
        cfg = load_config(write_config(tmp_path, doc))
        out = run("compare", cfg, out_dir=tmp_path / "out")
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "inf"
        assert float(row[1]) == 1.0 and float(row[2]) == 1.0
        assert float(row[3]) == 0.0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        out1 = run("compare", cfg, out_dir=tmp_path / "a")
        out2 = run("compare", cfg, out_dir=tmp_path / "b")
        for name in (
            "distances.csv", "wpool_a.csv", "wpool_b.csv", "survival.csv",
            "approx_law.csv", "compare.csv",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_lists_outputs_with_hashes(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        out = run("graph-dist", cfg, out_dir=tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        names = {o["path"] for o in manifest["outputs"]}
        assert names == {"distances.csv"}
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        assert "graph-dist" in manifest["seeds"]

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        doc = dict(MINIMAL)
        doc["model"] = {"n": [1000], "m": [1000], "P": [[0.02]]}  # tau = 400
        doc["population_cap"] = 5000
        doc["horizon"] = 10
        cfg = load_config(write_config(tmp_path, doc))
        with pytest.raises(PopulationCapError):
            run("bp", cfg, out_dir=tmp_path / "out")
        leftovers = list((tmp_path / "out").glob("*.csv"))
        assert leftovers == []

    def test_failed_run_leaves_no_directory(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError, match="rank1"):
            run("rank1", cfg, out_dir=tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_discard_removes_only_created_directories(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        w = RunWriter(tmp_path / "a" / "b", cfg, "spectral")
        w.write_csv("x.csv", ["x"], [(1,)])
        w.discard()
        assert not (tmp_path / "a").exists()
        (tmp_path / "kept").mkdir()
        w = RunWriter(tmp_path / "kept", cfg, "spectral")
        w.write_csv("x.csv", ["x"], [(1,)])
        w.discard()
        assert (tmp_path / "kept").is_dir()
        assert list((tmp_path / "kept").iterdir()) == []

    def test_trajectory_mean_martingale(self, tmp_path):
        # E[X(h)] tau^-h = 1 for the scalar model; one vertex generation
        # has offspring Bin(n Bin(m, p), p), so with sigma^2 its variance
        # Var(X(h) tau^-h) = sigma^2 (1 - tau^-h) / (tau (tau - 1)).
        # Seed 4242 and the 4-SE bound were fixed before the first run.
        doc = dict(MINIMAL, reps={"graph": 40, "pool": 20, "bp": 4000})
        cfg = load_config(write_config(tmp_path, doc))
        out = run("bp", cfg, out_dir=tmp_path / "out")
        n, m, p, h = 1000, 1000, 0.002, cfg.horizon
        tau = n * m * p * p
        sigma2 = m * p * n * p * (1 - p) + (n * p) ** 2 * m * p * (1 - p)
        var = sigma2 * (1 - tau**-h) / (tau * (tau - 1))
        rows = [
            line.split(",")
            for line in (out / "trajectory_mean.csv").read_text().splitlines()[1:]
        ]
        x_h = [float(r[3]) for r in rows if r[1] == "X" and int(r[0]) == h]
        assert len(x_h) == 1
        assert abs(x_h[0] * tau**-h - 1.0) <= 4.0 * (var / cfg.bp_reps) ** 0.5

    def test_unknown_subcommand(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError, match="unknown subcommand"):
            run("frobnicate", cfg)

    def test_trajectory_csv_shape(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        out = run("bp", cfg, out_dir=tmp_path / "out")
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "generation,side,type,count"
        gen0 = lines[1].split(",")
        assert gen0 == ["0", "X", "1", "1"]
        sides = {line.split(",")[1] for line in lines[1:]}
        assert sides == {"X", "Y"}


class TestDefaultHorizon:
    @pytest.mark.parametrize(
        "name, want",
        [("rank1", 8), ("scheme", 9), ("scalar2_compare", 19)],
    )
    def test_lowered_below_population_cap(self, name, want):
        cfg = dataclasses.replace(load_config(CONFIGS / f"{name}.json"), horizon=None)
        spec = derived_scalars(cfg.params)
        h = _default_horizon(cfg, spec)
        assert h == want
        assert spec.tau**h <= cfg.population_cap / 100 < spec.tau ** (h + 1)

    def test_two_by_two_keeps_12(self):
        doc = dict(MINIMAL, model={
            "n": [300, 400], "m": [350, 450], "P": [[0.004, 0.001], [0.0008, 0.003]],
        })
        cfg = dataclasses.replace(config_from_dict(doc), horizon=None)
        assert _default_horizon(cfg, derived_scalars(cfg.params)) == 12

    def test_configured_horizon_untouched(self):
        cfg = load_config(CONFIGS / "scalar2_compare.json")
        assert _default_horizon(cfg, derived_scalars(cfg.params)) == 14

    def test_rank1_compare_completes(self, tmp_path):
        cfg = dataclasses.replace(
            load_config(CONFIGS / "rank1.json"), graph_reps=20, pool_size=30
        )
        out = run("compare", cfg, out_dir=tmp_path / "out")
        assert len((out / "compare.csv").read_text().splitlines()) == 8


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        code = cli_main(
            ["spectral", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert "spectral" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        doc = {k: v for k, v in MINIMAL.items() if k != "seed"}
        path = write_config(tmp_path, doc)
        code = cli_main(["spectral", "--config", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_scheme_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, scheme=5))
        code = cli_main(
            ["spectral", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "scheme" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_runtime_error_exit_three(self, tmp_path, capsys):
        doc = dict(MINIMAL)
        doc["model"] = {"n": [1000], "m": [1000], "P": [[0.02]]}
        doc["population_cap"] = 5000
        path = write_config(tmp_path, doc)
        code = cli_main(
            ["bp", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "population cap" in capsys.readouterr().err

    def test_cap_error_same_at_every_worker_count(self, tmp_path, capsys):
        # at two workers pool A runs in the caller and pool B in a child;
        # both hit the cap, and the error and exit code stay those of one
        # worker
        doc = dict(MINIMAL, population_cap=5000, horizon=10)
        doc["model"] = {"n": [1000], "m": [1000], "P": [[0.02]]}  # tau = 400
        path = write_config(tmp_path, doc)
        errors = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            code = cli_main(
                ["compare", "--config", str(path), "--out", str(out),
                 "--workers", workers]
            )
            assert code == 3
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert "population cap exceeded" in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_ghosts_obey_population_cap(self, tmp_path, capsys, workers):
        doc = dict(MINIMAL, population_cap=50, model={
            "n": [300, 400], "m": [350, 450], "P": [[0.004, 0.001], [0.0008, 0.003]],
        })
        path = write_config(tmp_path, doc)
        code = cli_main(
            ["ghosts", "--config", str(path), "--out", str(tmp_path / "o"),
             "--workers", workers]
        )
        assert code == 3
        assert "population cap exceeded" in capsys.readouterr().err

    def test_workers_flag_does_not_change_results(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        assert cli_main(
            ["graph-dist", "--config", str(path), "--out", str(tmp_path / "w1"),
             "--workers", "1"]
        ) == 0
        assert cli_main(
            ["graph-dist", "--config", str(path), "--out", str(tmp_path / "w8"),
             "--workers", "8"]
        ) == 0
        assert (tmp_path / "w1" / "distances.csv").read_bytes() == (
            tmp_path / "w8" / "distances.csv"
        ).read_bytes()
