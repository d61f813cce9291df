import ast
import dataclasses
import functools
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import igdist
from igdist import derive_seed, load_config, runner
from igdist.cli import main as cli_main
from igdist.bpsim import labeled_growth
from igdist.config import config_from_dict
from igdist.errors import ConfigError, PopulationCapError, ValidationError
from igdist.model import derived_scalars
from igdist.runner import RunWriter, _default_horizon, parallel_map, run
from igdist.seeding import replicate_blocks

GOLDEN = json.loads((Path(__file__).parent / "golden_seeds.json").read_text())
ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

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


class TestReplicateBlocks:
    @staticmethod
    def _draws(rng, count):
        return count, rng.integers(0, 2**62, size=count).tolist()

    def test_block_sizes(self):
        cases = [(23, 5, [5, 5, 5, 5, 3]), (5, 5, [5]), (3, 1, [1, 1, 1])]
        for reps, block, sizes in cases:
            jobs = replicate_blocks(self._draws, reps, block, seed=7, tag="t")
            assert [job()[0] for job in jobs] == sizes

    def test_block_streams(self):
        # job b draws from the substream (seed, tag, b); block 0 is the
        # stage's one-stream seed derive_seed(seed, tag)
        jobs = replicate_blocks(self._draws, 12, 4, seed=7, tag="t")
        for b, job in enumerate(jobs):
            rng = np.random.default_rng(derive_seed(7, "t", b))
            assert job()[1] == rng.integers(0, 2**62, size=4).tolist()
        assert derive_seed(7, "t", 0) == derive_seed(7, "t")

    def test_no_replicates_rejected(self):
        with pytest.raises(ValidationError, match="reps must be >= 1"):
            replicate_blocks(self._draws, 0, 4, seed=1, tag="t")

    @pytest.mark.parametrize("reps", [True, 2.5, 2.0, "2"])
    @pytest.mark.parametrize(
        "stage",
        ["replicate_blocks", "empirical_distance_law", "ghost_scaling", "p_no_collision_mc"],
    )
    def test_non_integer_replicates_rejected(self, stage, reps):
        # a bool is not a count of one and a float is no count at all:
        # every replicate stage refuses both before drawing
        p = igdist.ModelParams(n=[20], m=[20], P=[[0.1]])
        scheme = igdist.SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[2]])
        run = {
            "replicate_blocks": lambda: replicate_blocks(self._draws, reps, 4, 1, "t"),
            "empirical_distance_law": lambda: igdist.empirical_distance_law(
                p, 0, 0, reps, seed=1
            ),
            "ghost_scaling": lambda: igdist.ghost_scaling(
                p, derived_scalars(p), 2, reps, seed=1
            ),
            "p_no_collision_mc": lambda: igdist.p_no_collision_mc(scheme, reps, seed=1),
        }[stage]
        with pytest.raises(ValidationError, match="reps must be an integer"):
            run()

    def test_only_seeding_passes_a_replicate_index(self):
        # replicate_blocks owns the rule that addresses a substream by
        # index; every other derive_seed call in the package passes
        # (master, tag) alone
        src = Path(igdist.__file__).parent
        offenders = []
        for path in sorted(src.glob("*.py")):
            if path.name == "seeding.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name != "derive_seed":
                    continue
                if (
                    len(node.args) > 2
                    or any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg in ("replicate", None) for k in node.keywords)
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders
        assert len(list(src.glob("*.py"))) > 5  # the glob found the package


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

    @pytest.mark.parametrize("value", [None, 5, ["a"], True])
    def test_output_dir_must_be_a_string(self, tmp_path, value):
        # str() would turn each into a directory name: "None", "5", ...
        path = write_config(tmp_path, dict(MINIMAL, output_dir=value))
        with pytest.raises(ConfigError, match="output_dir must be a string"):
            load_config(path)
        assert cli_main(["spectral", "--config", str(path)]) == 2

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
            ("k1", None, "k1"),
            ("depth", None, "depth"),
        ],
    )
    def test_integer_fields_must_be_json_integers(self, tmp_path, key, value, match):
        path = write_config(tmp_path, dict(MINIMAL, **{key: value}))
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert cli_main(["spectral", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "doc, match",
        [
            (dict(MINIMAL, model=5), "model must be a JSON object"),
            (dict(MINIMAL, model="nmP"), "model must be a JSON object"),
            (dict(MINIMAL, model={"n": [1000], "m": [1000], "P": [["a"]]}),
             "P must be numbers"),
            (dict(MINIMAL, model={"n": 10, "m": [1000], "P": [[0.002]]}),
             "n must be 1-D"),
            (dict(MINIMAL, model={"n": [[1000]], "m": [1000], "P": [[0.002]]}),
             "n must be 1-D"),
            ({"rank1": [0.005], "seed": 1}, "rank1 must be a JSON object"),
            ({"rank1": {"alpha": "ab", "beta": [1.0], "n": [200], "m": [500]},
              "seed": 1}, "alpha must be 1-D"),
        ],
        ids=["model-int", "model-string", "P-string", "n-scalar", "n-2d",
             "rank1-list", "alpha-string"],
    )
    def test_malformed_model_block_is_config_error(
        self, tmp_path, capsys, doc, match
    ):
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert cli_main(["spectral", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfe{\x00}\x00"], ids=["directory", "undecodable"]
    )
    def test_unreadable_file(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot read config") as info:
            load_config(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "scheme",
        [
            5,
            {"w": 10, "zA": [[2]], "zB": [[3]]},
            {"w": [10], "zA": [[2]], "zB": [[30]]},
            {"w": [], "zA": [], "zB": []},
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
        _allow_cpus(monkeypatch, 4)
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
        _allow_cpus(monkeypatch, 4)
        for args, children in (([1, 2, 3], 2), (list(range(10)), 3)):
            forks.clear()
            allowed[0] = children
            assert parallel_map(_square, args, 5000) == [a * a for a in args]
            assert len(forks) == children
        # a mask smaller than the machine: one allowed CPU forks nothing
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        _allow_cpus(monkeypatch, 1)
        forks.clear()
        allowed[0] = 0
        assert parallel_map(_square, list(range(10)), 4) == [a * a for a in range(10)]
        # without an affinity mask, the machine's CPUs, or one if unknown
        monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
        for cpus, children in ((4, 3), (None, 0)):
            monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
            forks.clear()
            allowed[0] = children
            assert parallel_map(_square, list(range(10)), 5000) == [
                a * a for a in range(10)
            ]
            assert len(forks) == children
        _assert_no_child()

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "child"])
    def test_failure_propagates_and_leaves_no_child(self, failing, monkeypatch):
        # the last child sleeps far longer than the test may take, so only
        # killing it lets the call return in time
        _allow_cpus(monkeypatch, 4)
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


def _allow_cpus(monkeypatch, n):
    """Let this process run on n CPUs, whatever the machine has."""
    monkeypatch.setattr(
        runner.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
    )


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

    def test_compare_with_subcritical_model(self, tmp_path):
        # tau = 1000 * 1000 * 0.0005^2 = 0.25: no type survives, so the
        # approximation is all defect
        doc = dict(MINIMAL, model={"n": [1000], "m": [1000], "P": [[0.0005]]})
        cfg = load_config(write_config(tmp_path, doc))
        out = run("compare", cfg, out_dir=tmp_path / "out")
        assert {f.name for f in out.iterdir()} == {
            "distances.csv", "survival.csv", "compare.csv", "manifest.json",
        }
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "inf" and float(row[2]) == 1.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compare_distances_are_graph_dist(self, tmp_path, workers):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        a = run("compare", cfg, out_dir=tmp_path / "c", workers=workers)
        b = run("graph-dist", cfg, out_dir=tmp_path / "g", workers=workers)
        assert (a / "distances.csv").read_bytes() == (b / "distances.csv").read_bytes()

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
        for subcommand, names in (
            ("graph-dist", {"distances.csv"}),
            ("compare", {
                "distances.csv", "wpool_a.csv", "wpool_b.csv", "survival.csv",
                "approx_law.csv", "compare.csv",
            }),
        ):
            out = run(subcommand, cfg, out_dir=tmp_path / subcommand)
            manifest = json.loads((out / "manifest.json").read_text())
            assert {o["path"] for o in manifest["outputs"]} == names
            for entry in manifest["outputs"]:
                digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
                assert digest == entry["sha256"]
            assert "graph-dist" in manifest["seeds"]

    def test_fmt_strings_pinned(self):
        # the CSV cell strings, recorded before `_fmt` formatted floats
        # by float.__repr__ alone
        floats = {
            0.1: "0.1", 1 / 3: "0.3333333333333333", -0.0: "-0.0",
            1e-300: "1e-300", float("nan"): "nan", float("inf"): "inf",
            float("-inf"): "-inf",
        }
        for x, want in floats.items():
            assert runner._fmt(x) == want
            assert runner._fmt(np.float64(x)) == want
        assert runner._fmt(np.float32(0.1)) == "0.10000000149011612"
        assert runner._fmt(np.int64(7)) == "7"
        assert runner._fmt(True) == "True"
        assert runner._fmt("inf") == "inf"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_result_bytes_pinned(self, tmp_path, workers):
        # sha256 of every result file of the randomized pipelines on the
        # 2x2 fixture, recorded before the graph sampler built its CSR in
        # place; `ghosts` and `coincidence` (a scheme that takes the
        # Monte Carlo path) were recorded before the subset draw returned
        # keys.  The W pools were recorded again once nu came from the
        # symmetric eigensolve, which moved their values by an ulp.  The
        # manifest lists the same digests.  A change that alters a random stream on purpose
        # records them again.
        doc = dict(
            MINIMAL, k1=1, k2=2, seed=2424,
            model={"n": [300, 400], "m": [350, 450],
                   "P": [[0.004, 0.001], [0.0008, 0.003]]},
            scheme={"w": [60], "zA": [[3, 2]], "zB": [[2, 2]], "wstar": [5]},
        )
        distances = "3cc3a8beb0fbc22188a7dd261b1a0db9cfd7b5223d835f893b172fba561727f7"
        pools = {
            "survival.csv": "5d65d3eb0a1f074ec22f8332d46e19b31fc9d820447bc7f6ce0636b1c15fa465",
            "wpool_a.csv": "95b1ff162a492c0528201aca8c0057074b32611751a4764815e4871aa0bbcf33",
            "wpool_b.csv": "56e21bbd339ff24d30403bc20dbdb6c6dcea142ef67421d9c05826b94fefe535",
        }
        approx = "f6b0ebfff6bb3b33d06625c4c783de0e365fbd92f4b92c78abac03ebb87330d7"
        want = {
            "graph-dist": {"distances.csv": distances},
            "bp": {
                **pools,
                "trajectory.csv": "43528a92c6ce630a359b1b16a56f269224469bf32f3e70019d05a80cbf2ffe96",
                "trajectory_mean.csv": "0e94bf2c76afccf00dc6d32b491b2cf6aa4ece94e5aec80d1045a1f7c84a425d",
            },
            "approx": {**pools, "approx_law.csv": approx},
            "compare": {
                **pools,
                "distances.csv": distances,
                "approx_law.csv": approx,
                "compare.csv": "d8815da0278a46f8e30ac6f42ea001685e3d022dbf0d4352fe74b1e782a63c72",
            },
            "ghosts": {"ghosts.csv": "1583dab4fbb6b53329ed3bac452e4af6675b3165340c3c50512c30ec74bc74e0"},
            "coincidence": {
                "coincidence.csv": "eb8df68a50560ca4bacd608c9766face3a8ca6e33d3965a94390fe974a317025",
            },
        }
        cfg = config_from_dict(doc)
        for subcommand, digests in want.items():
            out = run(subcommand, cfg, out_dir=tmp_path / subcommand, workers=workers)
            got = {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in out.iterdir() if f.name != "manifest.json"
            }
            assert got == digests, subcommand
            manifest = json.loads((out / "manifest.json").read_text())
            assert {o["path"]: o["sha256"] for o in manifest["outputs"]} == digests

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

    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_trajectory_is_replicate_zero_of_the_batch(self, tmp_path, seed):
        # with one replicate the mean is that replicate's counts
        doc = json.loads((CONFIGS / "scalar4.json").read_text())
        doc.update(seed=seed, horizon=6, reps={"graph": 1, "pool": 5, "bp": 1})
        out = run("bp", config_from_dict(doc), out_dir=tmp_path / "out")
        lone, mean = (
            [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
            for name in ("trajectory.csv", "trajectory_mean.csv")
        )
        assert [r[:3] for r in lone] == [r[:3] for r in mean]
        assert [int(r[3]) for r in lone] == [float(r[3]) for r in mean]

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

    def test_scheme_without_classes_exit_two(self, tmp_path, capsys):
        doc = dict(MINIMAL, scheme={"w": [], "zA": [], "zB": []})
        code = cli_main(
            ["coincidence", "--config", str(write_config(tmp_path, doc)),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "need at least one class" in capsys.readouterr().err
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

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_two(self, tmp_path, capsys, workers):
        path = write_config(tmp_path, MINIMAL)
        code = cli_main(
            ["graph-dist", "--config", str(path), "--out", str(tmp_path / "o"),
             "--workers", workers]
        )
        assert code == 2
        assert "workers must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_compare_on_reducible_model_exit_two(self, tmp_path, capsys):
        # two separate supercritical blocks (tau = 4 each): types survive,
        # but the spectral layer rejects the model
        doc = dict(MINIMAL, seed=3, k1=1, k2=2, model={
            "n": [2000, 2000], "m": [2000, 2000], "P": [[0.001, 0.0], [0.0, 0.001]],
        })
        path = write_config(tmp_path, doc)
        code = cli_main(
            ["compare", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "reducible matrix" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


class TestCompareResults:
    @pytest.fixture(scope="class")
    def tool(self):
        path = Path(__file__).parent.parent / "tools" / "compare_results.py"
        spec = importlib.util.spec_from_file_location("compare_results", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_takes_exactly_two_trees(self, tool):
        assert tool.main([]) == 2
        assert tool.main(["a", "b", "c"]) == 2

    def test_reruns_agree_and_a_new_seed_differs(self, tool, tmp_path):
        tree = Path(__file__).parent.parent
        doc = dict(MINIMAL, reps={"graph": 20, "pool": 20, "bp": 20})
        a = write_config(tmp_path, doc, "a.json")
        b = write_config(tmp_path, dict(doc, seed=4243), "b.json")
        runs = [
            tool._run(tree, cfg, "graph-dist", 1, tmp_path / name)
            for cfg, name in ((a, "x"), (a, "y"), (b, "z"))
        ]
        assert runs[0]["exit code"] == 0 and "distances.csv" in runs[0]["files"]
        assert runs[0]["stdout"] == f"igdist: wrote graph-dist results to {tool.OUT}\n"
        assert tool._differences(runs[0], runs[1]) == []
        assert tool._differences(runs[0], runs[2]) == ["manifest", "distances.csv"]

    def test_sizes_a_difference(self, tool):
        csv = b"u,x\n1,0.1\n2,inf\n"
        assert tool._size(csv, csv) == "max abs 0, max rel 0"
        assert tool._size(csv, csv.replace(b"0.1", b"0.10000000000000002")) == (
            "max abs 1.39e-17, max rel 1.39e-16"
        )
        assert tool._size(csv, csv.replace(b"inf", b"7")) == (
            "max abs 0, max rel 0, 1 non-numeric cells"
        )
        assert tool._size(csv, csv + b"3,0.5\n") == "cell counts differ"
        doc = b'{\n  "tau": 2.0,\n  "mu": [\n    0.25,\n    0.75\n  ]\n}\n'
        assert tool._size(doc, doc.replace(b"0.75", b"0.5")) == (
            "max abs 0.25, max rel 0.333"
        )


class TestBenchmarkGuard:
    @pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
    def test_traced_run_is_correct(self, workload):
        # the traced run alone checks the benchmark's pinned call counts
        # (graphs sampled, pool attempts, exceed_prob calls) and that
        # exact counts repeat across traced repeats; a run that fails
        # them still exits 0, with `correct: false`
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--trace", "1", "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0, proc.stdout


# acceptance-test oracles, read only by tests/test_acceptance.py:
# criterion 3 bounds tau by degree_bound, criterion 6 checks the
# extinction fixed point against extinction_frequency
_ORACLES = {"degree_bound", "extinction_frequency"}


class TestExportedNames:
    def test_every_exported_name_has_a_reader(self):
        # a reader is a Name or Attribute node in the package (its
        # re-export in __init__.py does not count), perfbench or tools
        src = ROOT / "src" / "igdist"
        files = [f for f in src.glob("*.py") if f.name != "__init__.py"]
        files += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
        read = set()
        for f in files:
            for node in ast.walk(ast.parse(f.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
        assert sorted(set(igdist.__all__) - read - _ORACLES) == []
        # an oracle that gains a reader leaves the exemption list
        assert _ORACLES <= set(igdist.__all__) - read


class TestOneSeedRule:
    def test_only_seeding_builds_a_generator(self):
        # seeding._generator is the one rule that turns a seed into a
        # stream: no other module of the package names default_rng
        where = set()
        for f in (ROOT / "src" / "igdist").glob("*.py"):
            for node in ast.walk(ast.parse(f.read_text())):
                # a Name, an Attribute, or an imported alias
                if "default_rng" in {getattr(node, a, None) for a in ("id", "attr", "name")}:
                    where.add(f.name)
        assert where == {"seeding.py"}
