"""Command-line front end: dispatch, artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rhsolve import cli
from rhsolve.annulus import AnnulusSolveOptions
from rhsolve.cli import main, validate_config
from rhsolve.curves import builtin_circle_family
from rhsolve.disc import DiscSolveOptions, solve_disc
from rhsolve.errors import ConfigError, NoConvergence
from rhsolve.serialize import certificate_dict

SRC = Path(__file__).resolve().parent.parent / "src"

CIRCLE_UNIT = {"type": "circle", "fourier": {"R": [1.0]}}
CIRCLE_HALF_ROOT = {"type": "circle", "fourier": {"R": [0.70710678118654752]}}


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def annulus_config(out, families=None, **extra):
    config = {
        "domain": {"type": "annulus", "q": 0.5},
        "families": families
        or {"gamma0": CIRCLE_UNIT, "gamma1": CIRCLE_HALF_ROOT},
        "outputs": {"directory": str(out)},
    }
    config.update(extra)
    return config


def test_disc_solve_writes_summary_and_traces(tmp_path):
    out = tmp_path / "out"
    config = {
        "domain": {"type": "disc"},
        "families": {"gamma0": CIRCLE_UNIT},
        "windings": 1,
        "outputs": {"directory": str(out)},
    }
    code = main(["solve", "--config", write_config(tmp_path, "cfg.json", config)])
    assert code == 0
    text = (out / "result.json").read_bytes()
    result = json.loads(text)
    assert result["winding"] == 1
    assert result["residual_sup"] < 1e-12
    # the certificate the solve computed, in the annulus summary's layout: the
    # exact initializer of a circle family leaves only rounding to contract
    certificate = result["certificate"]
    computed = solve_disc(builtin_circle_family(1.0), 1).run.certificate
    assert certificate == certificate_dict(computed)
    assert certificate["fallback"] is False and certificate["certified"] is True
    assert certificate["product"] < 1e-10
    assert (out / "trace.csv").read_text().splitlines()[0] == "theta,re,im"
    assert (out / "history.csv").read_text().splitlines()[0] == "iteration,residual"
    assert (out / "metadata.json").exists()
    assert main(["solve", "--config", write_config(tmp_path, "cfg.json", config)]) == 0
    assert (out / "result.json").read_bytes() == text


def test_radial_solve_lists_single_zero(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", annulus_config(out))
    assert main(["solve", "--config", cfg]) == 0
    result = json.loads((out / "result.json").read_text())
    assert len(result["zeros"]) == 1
    assert result["zeros"][0]["re"] == pytest.approx(2 ** -0.5, abs=1e-8)
    assert result["windings"] == {"gamma0": 1, "gamma1_coherent": 0, "gamma1_disc": 0}
    assert result["glue"] is None and result["certificate"] is None
    assert max(result["residuals"].values()) < 1e-12


def test_glued_solve_summary_layout(tmp_path):
    out = tmp_path / "out"
    families = {"gamma0": CIRCLE_UNIT, "gamma1": CIRCLE_UNIT}
    cfg = write_config(
        tmp_path, "cfg.json", annulus_config(out, families=families, windings=[6, 6])
    )
    assert main(["solve", "--config", cfg]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["windings"] == {"gamma0": 6, "gamma1_coherent": 6, "gamma1_disc": -6}
    assert sum(z["mult"] for z in result["zeros"]) == 12
    assert result["certificate"]["fallback"] is False
    assert np.isfinite(result["certificate"]["product"])
    assert result["glue"]["pre_newton_residual"] == pytest.approx(
        2 * 0.5 ** 6 + 0.5 ** 12, rel=1e-9
    )
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) >= 3
    assert (out / "trace_gamma0.csv").exists()
    assert (out / "trace_gamma1.csv").exists()


def test_result_json_is_deterministic(tmp_path):
    families = {"gamma0": CIRCLE_UNIT, "gamma1": CIRCLE_UNIT}
    texts = []
    for label in ("a", "b"):
        out = tmp_path / label
        cfg = write_config(
            tmp_path,
            f"cfg-{label}.json",
            annulus_config(out, families=families, windings=[6, 6]),
        )
        assert main(["solve", "--config", cfg]) == 0
        texts.append((out / "result.json").read_bytes())
    assert texts[0] == texts[1]


def test_seed_is_no_longer_a_setting(tmp_path, capsys):
    # both certificates are computed, so nothing draws probes: a config
    # with a seed fails as any unknown key does, and there is no --seed flag
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", annulus_config(out, seed=7))
    assert main(["solve", "--config", cfg]) == 1
    assert "unknown keys ['seed'] in config" in capsys.readouterr().err
    assert not (out / "result.json").exists()
    with pytest.raises(ConfigError, match=r"unknown keys \['seed'\] in config"):
        validate_config({"seed": 0})
    with pytest.raises(SystemExit):
        main(["solve", "--config", write_config(tmp_path, "plain.json", annulus_config(out)), "--seed", "7"])
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_check_identity_passes_on_radial_pair(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", annulus_config(out))
    assert main(["check-identity", "--config", cfg]) == 0
    report = json.loads((out / "identity.json").read_text())
    assert report["diff"] < 1e-6
    assert report["k1"] == 0
    assert len(report["zeros"]) == 1
    assert report["zeros"][0]["h1"] == pytest.approx(0.5, abs=1e-10)


def test_check_identity_rejects_mislabeled_winding(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "cfg.json", annulus_config(out, claim={"k1": 2})
    )
    assert main(["check-identity", "--config", cfg]) == 3
    report = json.loads((out / "identity.json").read_text())
    assert report["diff"] == pytest.approx(2.0, abs=1e-9)
    assert "exceeds bound" in capsys.readouterr().err


def test_sweep_table_and_fit(tmp_path):
    out = tmp_path / "out"
    families = {"gamma0": CIRCLE_UNIT, "gamma1": CIRCLE_UNIT}
    cfg = write_config(
        tmp_path, "cfg.json", annulus_config(out, families=families, n_range=[4, 12])
    )
    assert main(["sweep", "--config", cfg]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n,pre_newton_residual,fitted_slope"
    assert len(lines) == 11
    slope = float(lines[-1].split(",")[2])
    assert slope <= np.log(0.5 ** (1 / 3)) + 0.1
    pre = [float(line.split(",")[1]) for line in lines[1:-1]]
    for n, value in zip(range(4, 13), pre):
        assert value == pytest.approx(2 * 0.5 ** n + 0.5 ** (2 * n), rel=1e-9)


def test_sweep_single_n_has_no_fit_row(tmp_path):
    out = tmp_path / "out"
    families = {"gamma0": CIRCLE_UNIT, "gamma1": CIRCLE_UNIT}
    cfg = write_config(
        tmp_path, "cfg.json", annulus_config(out, families=families, n_range=[6, 6])
    )
    assert main(["sweep", "--config", cfg]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert not lines[-1].startswith("fit")


def test_sweep_empty_range_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    families = {"gamma0": CIRCLE_UNIT, "gamma1": CIRCLE_UNIT}
    cfg = write_config(
        tmp_path, "cfg.json", annulus_config(out, families=families, n_range=[])
    )
    assert main(["sweep", "--config", cfg]) == 1
    assert "n_range" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_demo_surjectivity_artifact(tmp_path):
    out = tmp_path / "out"
    assert main(["demo-surjectivity", "--out", str(out)]) == 0
    cases = json.loads((out / "surjectivity.json").read_text())["cases"]
    assert len(cases) == 10
    assert all(c["deviation"] < 1e-6 for c in cases)
    assert all(c["zero_count"] <= 1 for c in cases)


def test_malformed_family_spec_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    config = annulus_config(out)
    config["families"]["gamma0"] = {"type": "circle", "fourier": {"bogus": [1.0]}}
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main(["solve", "--config", cfg]) == 1
    assert not (out / "result.json").exists()
    assert capsys.readouterr().err.startswith("error:")


def test_non_finite_family_coefficient_exits_one_before_solving(tmp_path, capsys):
    out = tmp_path / "out"
    config = annulus_config(out)
    config["families"]["gamma0"] = {"type": "circle", "fourier": {"R": [float("nan")]}}
    cfg = write_config(tmp_path, "cfg.json", config)
    assert "NaN" in (tmp_path / "cfg.json").read_text()
    assert main(["solve", "--config", cfg]) == 1
    assert not (out / "result.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_unknown_config_key_rejected(tmp_path):
    out = tmp_path / "out"
    config = annulus_config(out)
    config["surprise"] = 1
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main(["solve", "--config", cfg]) == 1
    # Newton always damps: there is no damping switch to set
    cfg = write_config(tmp_path, "damping.json", annulus_config(out, newton={"damping": False}))
    assert main(["solve", "--config", cfg]) == 1
    with pytest.raises(ConfigError, match=r"unknown keys \['damping'\] in newton"):
        validate_config({"newton": {"tol": 1e-9, "damping": True}})


def test_missing_config_and_bad_json(tmp_path):
    assert main(["solve"]) == 1
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 1


def test_solver_failure_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    families = {"gamma0": CIRCLE_UNIT, "gamma1": CIRCLE_UNIT}
    # windings far too small for this modulus: the glue residual blows up
    cfg = write_config(
        tmp_path, "cfg.json", annulus_config(out, families=families, windings=[1, 1])
    )
    assert main(["solve", "--config", cfg]) == 2
    assert "solve failed" in capsys.readouterr().err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("newton", [None, {"max_iter": 7}])
def test_newton_max_iter_reaches_both_solvers_or_leaves_their_defaults(tmp_path, monkeypatch, newton):
    seen = {}

    def recorder(name):
        def solve(*args):
            seen[name] = args[-1].max_iter
            raise NoConvergence("recorded")

        return solve

    monkeypatch.setattr(cli, "solve_disc", recorder("disc"))
    monkeypatch.setattr(cli, "solve_annulus", recorder("annulus"))
    extra = {} if newton is None else {"newton": newton}
    out = str(tmp_path / "out")
    disc = {
        "domain": {"type": "disc"},
        "families": {"gamma0": CIRCLE_UNIT},
        "windings": 1,
        "outputs": {"directory": out},
        **extra,
    }
    families = {"gamma0": CIRCLE_UNIT, "gamma1": CIRCLE_UNIT}
    glued = annulus_config(out, families=families, windings=[6, 6], **extra)
    for name, config in (("disc", disc), ("glued", glued)):
        assert main(["solve", "--config", write_config(tmp_path, f"{name}.json", config)]) == 2
    if newton is None:
        assert seen == {"disc": DiscSolveOptions().max_iter, "annulus": AnnulusSolveOptions().max_iter}
    else:
        assert seen == {"disc": 7, "annulus": 7}


def test_nonradial_without_windings_exits_one(tmp_path):
    out = tmp_path / "out"
    families = {
        "gamma0": {"type": "ellipse", "fourier": {"p": [1.0], "q": [0.8]}},
        "gamma1": CIRCLE_HALF_ROOT,
    }
    cfg = write_config(tmp_path, "cfg.json", annulus_config(out, families=families))
    assert main(["solve", "--config", cfg]) == 1


def test_grid_and_tol_flags_validated(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", annulus_config(out))
    assert main(["solve", "--config", cfg, "--grid", "100"]) == 1
    assert main(["solve", "--config", cfg, "--grid", "8192"]) == 1
    with pytest.raises(ConfigError):
        validate_config({"grid": 2 ** 26})
    huge = write_config(tmp_path, "huge.json", annulus_config(out, grid=8192))
    assert main(["solve", "--config", huge]) == 1
    assert main(["solve", "--config", cfg, "--tol", "-1"]) == 1
    assert main(["solve", "--config", cfg, "--tol", "inf"]) == 1
    assert main(["solve", "--config", cfg, "--tol", "nan"]) == 1
    infinite = write_config(tmp_path, "inf.json", annulus_config(out, newton={"tol": float("inf")}))
    assert main(["solve", "--config", infinite]) == 1
    # the config's annulus modulus is checked like the solver's
    for q in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError, match=r"annulus modulus must lie in \(0, 1\)"):
            validate_config({"domain": {"type": "annulus", "q": q}})


def test_module_entry_point_runs_without_warnings():
    # `python -m rhsolve.cli` must not find rhsolve.cli already imported by
    # the package, which makes runpy warn
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rhsolve.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: rhsolve" in proc.stdout
