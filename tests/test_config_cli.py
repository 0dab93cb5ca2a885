import dataclasses
import json
from pathlib import Path

import pytest

from seedbank import blockcount
from seedbank.cli import main, run_experiment
from seedbank.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
)
from seedbank.measures import ModelParams, SwitchingMeasure

FULL_TEXT = """
# comment line
[run]
seed = 11
out = results

[model]
c = 0.8
K = 2.0
u_active = 1.0
u_dormant = 0.25

[to-dormant]
atom 0.5 0.4
beta 2.0 3.0 0.25

[to-active]
atom 0.9 0.1

[experiment]
kind = duality
times = 0.1 0.5
xs = 0.2
ys = 0.8

[numeric]
reps = 500
dt = 0.002
T = 1.5
"""


def test_empty_config_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.model.c == 1.0 and cfg.model.K == 1.0
    assert cfg.model.is_spontaneous()
    assert cfg.model.u_active == 0.0 and cfg.model.u1 == 0.0


def test_full_config_parses():
    cfg = parse_config(FULL_TEXT)
    assert cfg.seed == 11 and cfg.out == "results"
    assert cfg.model.c == 0.8 and cfg.model.K == 2.0
    assert cfg.model.lambda_ad == SwitchingMeasure(
        atoms=((0.5, 0.4),), beta_components=((2.0, 3.0, 0.25),)
    )
    assert cfg.model.lambda_da == SwitchingMeasure.atom(0.9, 0.1)
    assert cfg.experiment == "duality"
    assert cfg.times == (0.1, 0.5) and cfg.xs == (0.2,)
    assert cfg.reps == 500 and cfg.dt == 0.002 and cfg.horizon == 1.5


def test_round_trip():
    cfg = parse_config(FULL_TEXT)
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(serialize_config(ExperimentConfig())) == ExperimentConfig()


EVERY_KEY_TEXT = """\
[run]
seed = 17
out = every-key

[model]
c = 0.8
K = 2.5
u1 = 0.1
u2 = 0.2
u1p = 0.05
u2p = 0.07
u_active = 1.25
u_dormant = 0.5

[to-dormant]
atom 0.5 0.4
atom 1.0 0.1
beta 2.0 3.0 0.25

[to-active]
atom 0.9 0.1
beta 0.5 2.0 0.3

[experiment]
kind = coming-down-scan
n = 7
m = 3
x0 = 0.125
y0 = 0.875
pop_size = 64
generations = 1234
exchange_mode = fixed
stop = horizon
n_list = 10 20 40
t_probe = 0.025
times = 0.0 0.1 0.3333333333333333
xs = 0.1 0.5
ys = 0.9

[numeric]
reps = 321
dt = 0.0025
T = 3.5
eps = 0.01
boundary_tol = 0.001
noise_model = gaussian
record_every = 7
"""


def test_header_bytes_are_pinned():
    # every output file carries this text; a config with every key set and
    # both measure sections holding an atom and a Beta component
    cfg = ExperimentConfig(
        seed=17, out="every-key",
        model=ModelParams(
            c=0.8, K=2.5, u1=0.1, u2=0.2, u1p=0.05, u2p=0.07, u_active=1.25, u_dormant=0.5,
            lambda_ad=SwitchingMeasure(atoms=((0.5, 0.4), (1.0, 0.1)), beta_components=((2.0, 3.0, 0.25),)),
            lambda_da=SwitchingMeasure(atoms=((0.9, 0.1),), beta_components=((0.5, 2.0, 0.3),)),
        ),
        experiment="coming-down-scan", n=7, m=3, x0=0.125, y0=0.875, pop_size=64,
        generations=1234, exchange_mode="fixed", stop="horizon", n_list=(10, 20, 40),
        t_probe=0.025, times=(0.0, 0.1, 1 / 3), xs=(0.1, 0.5), ys=(0.9,),
        reps=321, dt=0.0025, horizon=3.5, jump_cutoff=0.01, boundary_tol=0.001,
        noise_model="gaussian", record_every=7,
    )
    assert serialize_config(cfg) == EVERY_KEY_TEXT
    assert parse_config(EVERY_KEY_TEXT) == cfg


def test_range_error_names_key_and_line():
    text = "[model]\nc = 1.0\nK = -1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "K" in str(err.value)
    assert [ln for ln, _ in err.value.errors] == [3]  # the K line
    text = "[run]\nseed = 1\n\n[numeric]\nreps = 0\ndt = 0.01\n\n[to-active]\natom 0.5 -1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msgs = dict(err.value.errors)
    assert list(msgs) == [9]  # per-line problems are reported before ranges
    assert "weight" in msgs[9]
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("atom 0.5 -1", "atom 0.5 1"))
    assert err.value.errors == [(5, "reps must be positive, got 0")]
    for text, want in (
        ("[numeric]\nrecord_every = 0\n", [(2, "record_every must be >= 1, got 0")]),
        ("[numeric]\ndt = 0.01\nT = inf\n", [(3, "T must be finite and positive, got inf")]),
        ("[numeric]\ndt = inf\n", [(2, "dt must be finite and positive, got inf")]),
        ("[numeric]\ndt = 1e-13\nT = 1e-7\n", [(2, "dt must be at least 2e-12, got 1e-13")]),
        ("[model]\nK = inf\n", [(2, "relative seed bank size K must be finite and positive, got inf")]),
        ("[model]\nK = nan\n", [(2, "relative seed bank size K must be finite and positive, got nan")]),
        ("[model]\nc = 1.0\nc = inf\n", [(3, "rate c must be finite and nonnegative, got inf")]),
        ("[model]\nu2p = nan\n", [(2, "rate u2p must be finite and nonnegative, got nan")]),
        *(
            (text, [(3, "dormant-to-active rate c*K must be finite, got c = 10.0 and K = 1e+308")])
            for text in ("[model]\nc = 10\nK = 1e308\n", "[model]\nK = 1e308\nc = 10\n")
        ),
        (
            "[to-dormant]\natom 0.5 inf\n",
            [(2, "invalid atom line 'atom 0.5 inf': atom weight must be finite and positive, got inf")],
        ),
        ("[numeric]\ndt = 0.5\nT = 0.25\n", [(2, "dt must not exceed T, got dt = 0.5 and T = 0.25")]),
        (
            "[experiment]\nkind = duality\n\n[numeric]\ndt = 3.0\n",
            [(5, "dt must not exceed T, got dt = 3.0 and T = 2.0")],
        ),
        *(
            (f"[numeric]\nboundary_tol = {raw}\n", [(2, f"boundary_tol must lie in [0, 0.5), got {raw}")])
            for raw in ("nan", "-0.1", "0.5", "inf")
        ),
        (
            "[experiment]\nkind = coming-down-scan\nt_probe = 0\n",
            [(3, "t_probe must be positive, got 0.0")],
        ),
        *(
            (
                f"[experiment]\nkind = duality\ntimes = {raw}\n",
                [(3, f"times must be finite and >= 0 with a positive largest entry, got {got}")],
            )
            for raw, got in (("-1.0 0.5", "[-1.0, 0.5]"), ("0.0", "[0.0]"), ("", "[]"))
        ),
        *(
            (
                f"[experiment]\nkind = duality\ntimes = {raw}\n",
                [(3, f"positive times must be at least 2e-12, got {got}")],
            )
            for raw, got in (("1e-20 0.1", "[1e-20, 0.1]"), ("0.0 1e-12 0.5", "[0.0, 1e-12, 0.5]"))
        ),
        *(
            (
                f"[experiment]\nkind = duality\n\n{key} = {raw}\n",
                [(4, f"{key} must be a nonempty list of entries in [0, 1], got {got}")],
            )
            for key, raw, got in (("xs", "1.5", "[1.5]"), ("ys", "0.2 -0.1", "[0.2, -0.1]"), ("xs", "", "[]"))
        ),
        *(
            (
                f"[experiment]\nkind = tmrca-scan\nn_list = {raw}\n",
                [(3, f"n_list must be a nonempty list of entries >= 1, got {got}")],
            )
            for raw, got in (("0 10", "[0, 10]"), ("", "[]"))
        ),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == want
    assert parse_config("[experiment]\ntimes = 0.0 0.5\n").times == (0.0, 0.5)


def test_out_must_survive_the_text_format():
    for out in ("a#b", " x", "x ", "a\nb"):
        with pytest.raises(ValueError, match="out must be"):
            ExperimentConfig(out=out)
    assert parse_config("[run]\nout = a#b\n").out == "a"  # '#' starts a comment


def test_unknown_keys_and_sections_with_lines():
    text = "[model]\nspeed = 3\n\n[warp]\nx = 1\n\n[numeric]\nreps = zero\ncorner_tol = 1e-6\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msgs = {ln: msg for ln, msg in err.value.errors}
    assert 2 in msgs and "speed" in msgs[2]
    assert 4 in msgs and "warp" in msgs[4]
    assert 8 in msgs and "reps" in msgs[8]
    assert 9 in msgs and "unknown key 'corner_tol'" in msgs[9]


def test_measure_line_errors():
    with pytest.raises(ConfigError) as err:
        parse_config("[to-dormant]\natom 0.5\n")
    assert err.value.errors[0][0] == 2
    with pytest.raises(ConfigError):
        parse_config("stray = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config("[to-dormant]\natom 1.5 0.4\n")  # atom outside (0, 1]
    assert "(0, 1]" in str(err.value)


def test_cli_duality_end_to_end(tmp_path):
    for i, (times, numeric) in enumerate([
        ("0.2", "reps = 300\ndt = 0.002\nT = 0.2\n"),
        # two times 1e-10 apart: each keeps its own rows
        ("0.5 0.5000000001", "reps = 50\ndt = 0.01\n"),
    ]):
        cfg_file = tmp_path / f"exp{i}.ini"
        cfg_file.write_text(
            f"[experiment]\nkind = duality\ntimes = {times}\nxs = 0.2\nys = 0.8\n[numeric]\n{numeric}"
        )
        out = tmp_path / f"o{i}"
        rc = main(["duality", "--config", str(cfg_file), "--seed", "5", "--out", str(out)])
        assert rc == 0
        lines = (out / "duality.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "n,m,x,y,t,lhs,rhs,diff,stderr"
        data = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 8 * len(times.split())  # the (n, m) grid at each (x, y, t)
        assert sorted({row[4] for row in data}) == times.split()
        assert any("master-seed = 5" in ln for ln in lines)


def test_cli_byte_identical_reruns_and_workers(tmp_path):
    cfg = ExperimentConfig(
        experiment="duality", seed=3, out=str(tmp_path / "w"), reps=200,
        times=(0.1,), xs=(0.2, 0.8), ys=(0.8,), horizon=0.1, dt=1e-3,
    )
    run_experiment(cfg, workers=1)
    first = (tmp_path / "w" / "duality.csv").read_bytes()
    run_experiment(cfg, workers=1)
    again = (tmp_path / "w" / "duality.csv").read_bytes()
    run_experiment(cfg, workers=2)
    pooled = (tmp_path / "w" / "duality.csv").read_bytes()
    assert first == again == pooled


@pytest.mark.parametrize("reps", [1, 300])
def test_cli_stats_byte_identical_reruns_and_workers(tmp_path, reps):
    cfg_file = tmp_path / "run.ini"
    model = ModelParams(c=1.0, K=2.0, u_active=1.0, u_dormant=0.5,
                        lambda_ad=SwitchingMeasure.atom(0.5, 0.4), lambda_da=SwitchingMeasure.atom(0.3, 0.5))
    cfg = ExperimentConfig(experiment="stats", seed=6, n=5, m=2, reps=reps, model=model)
    cfg_file.write_text(serialize_config(cfg))
    runs = []
    for workers in ("1", "1", "2"):
        assert main(["stats", "--config", str(cfg_file), "--out", str(tmp_path / "s"), "--workers", workers]) == 0
        runs.append({name: (tmp_path / "s" / name).read_bytes() for name in ("sfs.csv", "summary.json")})
    assert runs[0] == runs[1] == runs[2]
    rows = [ln for ln in runs[0]["sfs.csv"].decode().splitlines() if not ln.startswith("#")]
    assert len(rows) == reps + 1
    summary = json.loads(runs[0]["summary.json"])
    assert summary["reps"] == reps and (summary["segregating_sites"]["stderr"] == 0.0) == (reps == 1)


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nK = -2\n")
    rc = main(["duality", "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line" in err and "K" in err
    # a snapshot time too close to 0 is a config error, before any step
    bad.write_text("[experiment]\nkind = duality\ntimes = 1e-20 0.1\n\n[numeric]\ndt = 0.01\n")
    assert main(["duality", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "positive times must be at least 2e-12" in err


def test_cli_out_override_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["forward-wf", "--out", "a#b"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "out must be" in err and "a#b" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_unreachable_mrca_is_reported(tmp_path, capsys):
    cfg = ExperimentConfig(
        experiment="blockcount", out=str(tmp_path / "b"), n=2, m=1, reps=50,
        model=ModelParams(c=0.0, K=1.0),
    )
    rc = run_experiment(cfg, workers=1)
    assert rc == 2
    assert "unreachable" in capsys.readouterr().err


def test_cli_blockcount_reports_the_lattice_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(blockcount, "MAX_LATTICE_MOVES", 155)
    cfg = ExperimentConfig(
        experiment="blockcount", out=str(tmp_path / "b"), n=11, m=0, reps=50,
        model=ModelParams(c=1.0, K=1.0),
    )
    rc = run_experiment(cfg, workers=1)
    assert rc == 2
    assert "has at least 157 moves, past the lattice budget of 155 moves" in capsys.readouterr().err


def test_cli_stats_and_scan_outputs(tmp_path):
    cfg = ExperimentConfig(
        experiment="stats", out=str(tmp_path / "s"), n=4, m=0, reps=120,
        model=ModelParams(c=1.0, K=1.0, u_active=1.0, u_dormant=0.5),
    )
    assert run_experiment(cfg, workers=1) == 0
    sfs_lines = [
        ln for ln in (tmp_path / "s" / "sfs.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert sfs_lines[0] == "n,xi1,xi2,xi3"
    assert len(sfs_lines) == 121
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert "segregating_sites" in summary and "expected_segregating_sites_oracle" in summary

    cfg2 = ExperimentConfig(
        experiment="tmrca-scan", out=str(tmp_path / "t"), n_list=(16, 32), reps=100
    )
    assert run_experiment(cfg2, workers=1) == 0
    scan_lines = [
        ln for ln in (tmp_path / "t" / "scan.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert scan_lines[0] == "n,mean,stderr,ratio"
    assert len(scan_lines) == 3


def test_cli_genealogy_and_trajectory_outputs(tmp_path):
    cfg = ExperimentConfig(experiment="coalescent", out=str(tmp_path / "g"), n=4, m=1, reps=60)
    assert run_experiment(cfg, workers=1) == 0
    assert (tmp_path / "g" / "genealogy.jsonl").exists()
    assert (tmp_path / "g" / "genealogy.newick").read_text().startswith("# marks")
    summary = json.loads((tmp_path / "g" / "summary.json").read_text())
    assert summary["reached_mrca"] == 60

    cfg2 = ExperimentConfig(
        experiment="diffusion", out=str(tmp_path / "d"), x0=0.4, y0=0.8,
        horizon=0.5, dt=1e-3, record_every=100,
        model=ModelParams(c=1.0, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 1.0)),
    )
    assert run_experiment(cfg2, workers=1) == 0
    assert (tmp_path / "d" / "trajectory.csv").exists()
    jumps = [
        ln for ln in (tmp_path / "d" / "jumps.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert jumps[0] == "t,type,z"

    cfg3 = ExperimentConfig(
        experiment="forward-wf", out=str(tmp_path / "f"), pop_size=60,
        generations=400, reps=150, x0=0.3, y0=0.7,
    )
    assert run_experiment(cfg3, workers=1) == 0
    fix = json.loads((tmp_path / "f" / "fixation.json").read_text())
    assert fix["fixed_all_type0"] + fix["fixed_all_type1"] + fix["unfixed"] == 150


# a small config of every experiment subcommand and the CSV files it writes
SMALL_RUNS = {
    "coalescent": (dict(n=4, m=1, reps=20), []),
    "blockcount": (dict(n=3, m=1, reps=20), ["path.csv"]),
    "forward-wf": (dict(pop_size=40, generations=60, reps=20, x0=0.3, y0=0.7), ["trajectory.csv"]),
    "diffusion": (
        dict(x0=0.4, y0=0.8, horizon=0.5, dt=1e-2,
             model=ModelParams(c=1.0, K=1.0, lambda_ad=SwitchingMeasure.atom(0.5, 4.0))),
        ["jumps.csv", "trajectory.csv"],
    ),
    "duality": (dict(reps=20, times=(0.1,), xs=(0.2,), ys=(0.8,), horizon=0.1, dt=1e-2), ["duality.csv"]),
    "tmrca-scan": (dict(n_list=(16, 32), reps=10), ["scan.csv"]),
    "coming-down-scan": (dict(n_list=(4, 8), reps=10), ["scan.csv"]),
    "stats": (dict(n=4, m=0, reps=10, model=ModelParams(c=1.0, K=1.0, u_active=1.0, u_dormant=0.5)),
              ["sfs.csv"]),
}


@pytest.mark.parametrize("kind", list(SMALL_RUNS))
def test_cli_csv_cells_are_plain_numbers(tmp_path, kind):
    # every CSV cell below the header parses as a number, numpy floats
    # included ("np.float64(0.3)" does not); the one text column is a jump's type
    fields, csv_names = SMALL_RUNS[kind]
    cfg_file = tmp_path / "run.ini"
    cfg_file.write_text(serialize_config(dataclasses.replace(ExperimentConfig(experiment=kind, seed=4), **fields)))
    assert main([kind, "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    assert sorted(p.name for p in (tmp_path / "o").glob("*.csv")) == csv_names
    for name in csv_names:
        text = (tmp_path / "o" / name).read_text()
        header, *rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
        assert rows
        for row in rows:
            assert len(row) == len(header)
            for column, cell in zip(header, row):
                if column == "type":
                    assert cell in ("F", "D")
                else:
                    float(cell)


def test_cli_diffusion_beta_model_writes_json_booleans(tmp_path):
    # a Beta component makes the sub-cutoff jump mass a numpy scalar; the
    # summary must still serialize its flags as JSON booleans
    text = (
        "[run]\nseed = 7\n\n"
        "[model]\nc = 1.0\nK = 2.0\nu_active = 1.0\nu_dormant = 0.5\n\n"
        "[to-dormant]\natom 0.5 0.4\nbeta 2.0 2.0 0.6\n\n"
        "[to-active]\nbeta 0.5 2.0 0.3\n\n"
        "[experiment]\nkind = diffusion\n\n"
        "[numeric]\ndt = 0.01\nT = 5.0\n"
    )
    cfg = dataclasses.replace(parse_config(text), out=str(tmp_path / "d"))
    assert run_experiment(cfg, workers=1) == 0
    summary = json.loads((tmp_path / "d" / "summary.json").read_text())
    assert isinstance(summary["hit_00"], bool) and isinstance(summary["hit_11"], bool)


def test_cli_acceptance_wrapper(tmp_path, monkeypatch, capsys):
    # exercise the subcommand plumbing with canned criterion results
    import seedbank.acceptance as acc
    from seedbank.acceptance import CriterionResult

    def fake_run(seed=0, echo=None, only=None):
        results = [
            CriterionResult("01", "alpha", True, {"x": 1.0}),
            CriterionResult("02", "beta", False, {"y": 2.0}),
        ]
        if echo:
            for r in results:
                echo(f"{'PASS' if r.passed else 'FAIL'} {r.ident} {r.name}")
        return results

    monkeypatch.setattr(acc, "run_acceptance", fake_run)
    rc = main(["acceptance", "--seed", "9", "--out", str(tmp_path / "acc")])
    assert rc == 1  # one canned criterion failed
    report = json.loads((tmp_path / "acc" / "acceptance.json").read_text())
    assert report["all_passed"] is False
    assert report["criteria"]["01"]["passed"] is True
    out = capsys.readouterr().out
    assert "PASS 01 alpha" in out and "FAIL 02 beta" in out


def test_cli_duality_horizon_follows_time_grid(tmp_path):
    # default times reach t = 2 even when the numeric block sets a smaller T
    cfg = ExperimentConfig(
        experiment="duality", out=str(tmp_path / "h"), reps=150,
        horizon=1.0, dt=2e-3, xs=(0.2,), ys=(0.8,),
        model=ModelParams(c=1.0, K=2.0, lambda_ad=SwitchingMeasure.atom(0.5, 0.4)),
    )
    assert run_experiment(cfg, workers=1) == 0
    rows = [
        ln for ln in (tmp_path / "h" / "duality.csv").read_text().splitlines()
        if not ln.startswith("#")
    ][1:]
    assert len(rows) == 24  # 8 exponent pairs x 3 default times
