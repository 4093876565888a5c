"""Command-line interface: subcommands, settings precedence, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cstarlab
from cstarlab.cli import main
from cstarlab.instances import Instance, base_algebra
from cstarlab.pipelines import PIPELINES
from cstarlab.serialize import load, matrix_to_json


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ("CSTARLAB_SEED", "CSTARLAB_EPS", "CSTARLAB_ALGEBRA", "CSTARLAB_CONFIG",
                "CSTARLAB_FORMAT", "CSTARLAB_TRACK", "CSTARLAB_RECIPE", "CSTARLAB_DIM",
                "CSTARLAB_BLOCK", "CSTARLAB_SAMPLES", "CSTARLAB_OUT"):
        monkeypatch.delenv(var, raising=False)


# the options each subcommand takes: the settings it reads, and --config
# wherever it reads one
GEN = {"--seed", "--dim", "--recipe", "--eps", "--algebra", "--block", "--out", "--config"}
OPTIONS = {"gen": GEN, **dict.fromkeys(PIPELINES, GEN | {"--track", "--format"}),
           "report": {"--format", "--out", "--config"}, "selftest": {"--criteria"}}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_each_subcommand_takes_only_the_settings_it_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
    assert options - {"--help"} == OPTIONS[command]


@pytest.mark.parametrize("argv", [
    ["report", "r.json", "--seed", "1"], ["report", "r.json", "--track", "paper"],
    ["report", "r.json", "--eps", "1e-6"], ["report", "r.json", "--algebra", "nonsense"],
    ["selftest", "--eps", "1"], ["selftest", "--criteria", "3", "--eps", "nan"],
    ["selftest", "--config", "lab.ini"], ["gen", "--track", "paper"], ["gen", "--format", "json"],
], ids=["report-seed", "report-track", "report-eps", "report-algebra", "selftest-eps",
        "selftest-criteria-eps", "selftest-config", "gen-track", "gen-format"])
def test_a_setting_the_subcommand_does_not_read_exits_2(argv, capsys):
    # a flag that would parse and change nothing is refused by the parser
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_algebra_comma_sizes():
    A = base_algebra("2,1", 4)
    assert A.dim == 5
    assert A.ambient_dim == 4


def test_gen_writes_instance(tmp_path):
    out = tmp_path / "inst.json"
    rc = main(["gen", "--seed", "3", "--eps", "1e-5", "--out", str(out)])
    assert rc == 0
    inst = load(out)
    assert isinstance(inst, Instance)
    assert inst.seed == 3
    assert inst.params["eps"] == 1e-5


def test_dist_pipeline_json_output(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["dist", "--seed", "2", "--eps", "1e-5",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "report"
    assert data["pipeline"] == "dist"
    assert data["ok"] is True


@pytest.mark.parametrize("algebra,dim", [("2", "4"), ("3,3", "8"), ("2,2,2,2", "8")])
def test_iso_at_eps_zero_passes_every_certificate(tmp_path, algebra, dim):
    # B = A: gamma = 0, so the closeness and injectivity ceilings, powers of
    # gamma, are 0.0, and the rounding of a map that moves nothing meets them
    out = tmp_path / "report.json"
    assert main(["iso", "--eps", "0", "--algebra", algebra, "--dim", dim,
                 "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    certs = report["certificates"]
    assert {k: c["verdict"] for k, c in certs.items()} == dict.fromkeys(certs, "pass")
    assert certs["closeness"]["ceiling"] == 0.0 and report["ok"] is True


def test_pipeline_accepts_saved_instance(tmp_path):
    inst_path = tmp_path / "inst.json"
    rep_path = tmp_path / "report.json"
    assert main(["gen", "--seed", "5", "--eps", "1e-5",
                 "--out", str(inst_path)]) == 0
    rc = main(["dist", str(inst_path), "--seed", "5",
               "--format", "json", "--out", str(rep_path)])
    assert rc == 0
    assert json.loads(rep_path.read_text())["ok"] is True


def test_saved_instance_refuses_the_generation_flags(tmp_path, capsys):
    # the file fixes the algebra, the ambient dimension, the recipe, eps and
    # the block; a flag for any of them would be silently ignored, so each
    # given one is named and the run does not start
    inst_path = tmp_path / "pair.json"
    assert main(["gen", "--seed", "5", "--eps", "1e-3", "--out", str(inst_path)]) == 0
    assert main(["iso", str(inst_path), "--eps", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert "ValueError" in err and "--eps" in err and "saved instance" in err
    flags = ["--dim", "8", "--recipe", "block-rotation", "--eps", "1e-6",
             "--algebra", "M3", "--block", "1"]
    assert main(["dist", str(inst_path), "--seed", "2", *flags]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags[::2]), err
    assert list(tmp_path.iterdir()) == [inst_path]


def test_saved_instance_reads_no_generation_setting_from_env_or_config(
        tmp_path, monkeypatch, capsys):
    # a generation value from the environment or the config file does not
    # apply to a saved instance, so it is not read (an out-of-choice recipe
    # there would otherwise exit 2); --seed still seeds the run
    inst_path, rep_path = tmp_path / "pair.json", tmp_path / "report.json"
    assert main(["gen", "--seed", "5", "--eps", "1e-5", "--out", str(inst_path)]) == 0
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[lab]\neps = 1e-3\ndim = 8\nalgebra = M17\nseed = 4\n")
    monkeypatch.setenv("CSTARLAB_RECIPE", "rotation")
    monkeypatch.setenv("CSTARLAB_DIM", "x")
    assert main(["dist", str(inst_path), "--config", str(cfg),
                 "--format", "json", "--out", str(rep_path)]) == 0
    report = json.loads(rep_path.read_text())
    assert report["seed"] == 4


@pytest.mark.parametrize("edit,path", [
    (lambda d: d["A"].update(basis=[]), "$.A.basis is empty"),
    (lambda d: d["A"].update(support=matrix_to_json(np.eye(3))), "$.A.support has shape"),
    (lambda d: d["A"]["basis"].__setitem__(0, matrix_to_json(np.eye(3))),
     "$.A.basis[0] has shape (3, 3)"),
], ids=["empty-basis", "support-3x3", "basis-element-3x3"])
@pytest.mark.parametrize("pipeline", ["iso", "dist"])
def test_pipeline_on_a_malformed_saved_algebra_exits_2_naming_its_path(
        pipeline, edit, path, tmp_path, capsys):
    # at the loader, as a SchemaError with the JSON path, not as numpy's
    # reshape error, a broadcast error or a misleading SpectralGapError
    inst_path = tmp_path / "pair.json"
    assert main(["gen", "--seed", "1", "--eps", "1e-5", "--algebra", "M2+M1",
                 "--out", str(inst_path)]) == 0
    d = json.loads(inst_path.read_text())
    edit(d)
    inst_path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main([pipeline, str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert f"SchemaError: {path}" in err, err


@pytest.mark.parametrize("edit,path", [
    (lambda d: d["A"]["basis"][0].update(re=5), "$.A.basis[0].re is 5, not a list"),
    (lambda d: d["A"].update(basis=5), "$.A.basis is 5, not a list"),
    (lambda d: d["A"]["basis"].__setitem__(0, 5), "$.A.basis[0] is 5, not a matrix"),
    (lambda d: d["A"]["basis"][0]["re"].__setitem__(1, "x"),
     "$.A.basis[0].re[1] is 'x', not a number"),
    (lambda d: d["A"].update(ambient_dim="4"), "$.A.ambient_dim is '4', not an integer"),
    (lambda d: d.update(seed="1"), "$.seed is '1', not an integer"),
    (lambda d: d.update(params=[1, 2]), "$.params is [1, 2], not an object"),
    # an integer is a JSON integer, not a bool or a fraction
    (lambda d: d["A"]["basis"][0].update(rows=True), "$.A.basis[0].rows is True, not an integer"),
    (lambda d: d["A"].update(ambient_dim=4.0), "$.A.ambient_dim is 4.0, not an integer"),
], ids=["re-number", "basis-number", "basis-entry-number", "re-string-entry",
        "ambient-dim-string", "seed-string", "params-list", "rows-bool", "ambient-dim-float"])
def test_a_saved_field_of_the_wrong_json_type_exits_2_naming_its_path(
        edit, path, tmp_path, capsys):
    # a malformed input file is a SchemaError that names the field, not a
    # TypeError traceback, a bare ValueError or a silent run
    inst_path = tmp_path / "pair.json"
    assert main(["gen", "--seed", "1", "--eps", "1e-5", "--out", str(inst_path)]) == 0
    d = json.loads(inst_path.read_text())
    edit(d)
    inst_path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["iso", str(inst_path)]) == 2
    assert f"cstarlab: SchemaError: {path}\n" in capsys.readouterr().err


def test_pipeline_rejects_report_as_instance(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    assert main(["dist", "--seed", "1", "--eps", "1e-5",
                 "--format", "json", "--out", str(rep_path)]) == 0
    rc = main(["iso", str(rep_path)])
    assert rc == 2
    assert "does not contain an instance" in capsys.readouterr().err


def test_report_rerenders_saved_report(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    assert main(["unitary", "--seed", "4", "--eps", "1e-5",
                 "--format", "json", "--out", str(rep_path)]) == 0
    rc = main(["report", str(rep_path), "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "certificate,verdict,achieved,ceiling,slack"


@pytest.mark.parametrize("edit,field", [
    (lambda c: c.pop("achieved"), "achieved"), (lambda c: c.update(extra=1), "extra"),
    (lambda c: c.update(ceiling="x"), "ceiling"),
    (lambda c: c.update(verdict="bogus"), "verdict"),
    (lambda c: c.update(achieved=10 * c["ceiling"]), "verdict"),
    (lambda c: c.pop("kind"), "kind"), (lambda c: c.update(inputs=5), "inputs"),
    (lambda c: c.update(ceiling=c["ceiling"] * 1e6), "ceiling"),
    (lambda c: c.update(formula=c["formula"] + " on all of A"), "formula"),
    (lambda c: c.update(name="unitary-conjugation"), "name"),
], ids=["missing-achieved", "extra-key", "text-ceiling", "bogus-verdict", "pass-above-ceiling",
        "kind-removed", "inputs-not-object", "ceiling-times-1e6", "formula-edited",
        "unknown-name"])
def test_report_with_a_malformed_certificate_exits_2(edit, field, tmp_path, capsys):
    # a certificate the loader cannot read, one that Certificate.build would
    # not give (its name, formula or ceiling differs from certs.BOUNDS), or
    # one whose verdict its numbers contradict, is a malformed input file
    # (2), not a failed paper-track certificate (1)
    rep_path = tmp_path / "report.json"
    assert main(["unitary", "--seed", "4", "--eps", "1e-5",
                 "--format", "json", "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    edit(data["certificates"]["unitary-implementation"])
    rep_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", str(rep_path)]) == 2
    err = capsys.readouterr().err
    path = re.escape(f"$.certificates.unitary-implementation.{field}")
    assert "SchemaError" in err and re.search(path + r"(\s|$)", err), err


def test_report_with_a_list_of_certificates_exits_2(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    assert main(["unitary", "--seed", "4", "--eps", "1e-5",
                 "--format", "json", "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    data["certificates"] = list(data["certificates"].values())
    rep_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", str(rep_path)]) == 2
    assert "SchemaError: $.certificates is not an object" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["dist", "iso", "unitary", "oz-perturb", "oz-embed"])
def test_every_pipeline_report_passes_the_report_check(pipeline, tmp_path, capsys):
    # every ceiling a pipeline writes is the one its inputs give
    rep_path = tmp_path / "report.json"
    assert main([pipeline, "--seed", "1", "--eps", "1e-6", "--algebra", "M2+M1",
                 "--format", "json", "--out", str(rep_path)]) == 0
    assert main(["report", str(rep_path)]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("field,value,kind", [
    ("seed", "x", "an integer"), ("seed", 2.7, "an integer"), ("seed", None, "an integer"),
    ("pipeline", 3, "a string"), ("recipe", ["conjugation"], "a string"),
], ids=["seed-text", "seed-fraction", "seed-null", "pipeline-number", "recipe-list"])
def test_report_with_a_malformed_header_field_exits_2(field, value, kind, tmp_path, capsys):
    # the report's own fields are read as the loader reads an instance's:
    # a seed of 2.7 is refused, not re-rendered at seed 2
    rep_path = tmp_path / "report.json"
    assert main(["dist", "--seed", "1", "--eps", "1e-5",
                 "--format", "json", "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    data[field] = value
    rep_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", str(rep_path)]) == 2
    err = capsys.readouterr().err
    assert f"SchemaError: $.{field} is {value!r}, not {kind}" in err, err


def test_report_of_a_future_schema_version_exits_2(tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    assert main(["dist", "--seed", "1", "--eps", "1e-5",
                 "--format", "json", "--out", str(rep_path)]) == 0
    data = json.loads(rep_path.read_text())
    data["schema_version"] = 99
    rep_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", str(rep_path)]) == 2
    assert "SchemaError: $.schema_version is 99, not 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["selftest", "--criteria", "x"], "--criteria"),
    (["selftest", "--criteria", "3,2.5"], "--criteria"),
    (["iso", "--algebra", "fullx"], "--algebra"),
    (["gen", "--algebra", "full"], "--algebra"),
], ids=["criteria-text", "criteria-fraction", "algebra-fullx", "algebra-full"])
def test_a_flag_that_is_not_a_number_is_named(argv, flag, capsys):
    # not Python's "invalid literal for int() with base 10", which names no flag
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and flag in err and "invalid literal" not in err, err


def test_report_rejects_instance_file(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", "--out", str(inst_path)]) == 0
    rc = main(["report", str(inst_path)])
    assert rc == 2
    assert "pipeline report" in capsys.readouterr().err


def test_env_overrides_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CSTARLAB_EPS", "1e-6")
    out = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", "--out", str(out)]) == 0
    inst = load(out)
    assert inst.params["eps"] == 1e-6


def test_flag_beats_env_beats_config(tmp_path, monkeypatch):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[lab]\nseed = 5\neps = 1e-3\n")
    # config only
    out1 = tmp_path / "i1.json"
    assert main(["gen", "--config", str(cfg), "--out", str(out1)]) == 0
    assert load(out1).seed == 5
    # env beats config
    monkeypatch.setenv("CSTARLAB_SEED", "6")
    out2 = tmp_path / "i2.json"
    assert main(["gen", "--config", str(cfg), "--out", str(out2)]) == 0
    assert load(out2).seed == 6
    # flag beats both
    out3 = tmp_path / "i3.json"
    assert main(["gen", "--config", str(cfg), "--seed", "7",
                 "--out", str(out3)]) == 0
    assert load(out3).seed == 7


def test_config_via_env_var(tmp_path, monkeypatch):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[lab]\nalgebra = diag3\n")
    monkeypatch.setenv("CSTARLAB_CONFIG", str(cfg))
    out = tmp_path / "inst.json"
    assert main(["gen", "--out", str(out)]) == 0
    assert load(out).A.dim == 3


def test_missing_config_exits_2(capsys):
    rc = main(["gen", "--config", "/nonexistent/lab.ini"])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


def test_paper_track_window_violation_exits_2(capsys):
    rc = main(["iso", "--seed", "1", "--eps", "1e-3", "--track", "paper"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "WindowError" in err


@pytest.mark.parametrize("name, value", [("track", "Paper"), ("format", "xml"),
                                         ("recipe", "rotation"), ("block", "x"),
                                         ("seed", "1.5"), ("dim", "4.0")])
def test_bad_choice_from_env_or_config_exits_2(name, value, tmp_path, monkeypatch, capsys):
    # the choices of --track, --format and --recipe, and the type of every
    # flag, hold for the environment variable and the config key too: the
    # error names the variable or key and the flag, and comes before any
    # pipeline runs
    calls = []
    monkeypatch.setattr("cstarlab.cli.run_pipeline", lambda *a, **k: calls.append(a))
    var, cfg = f"CSTARLAB_{name.upper()}", tmp_path / "lab.ini"
    cfg.write_text(f"[lab]\n{name} = {value}\n")
    monkeypatch.setenv(var, value)
    assert main(["iso", "--eps", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and var in err and f"--{name}" in err and repr(value) in err
    monkeypatch.delenv(var)
    assert main(["iso", "--eps", "1e-3", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and f"[lab] {name}" in err and f"--{name}" in err
    assert repr(value) in err
    assert calls == []


def test_config_key_that_names_no_setting_exits_2(tmp_path, capsys):
    # a misspelt key is refused by name, not read as nothing
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[lab]\nsead = 5\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "i.json")]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "[lab] sead" in err
    assert not (tmp_path / "i.json").exists()


def test_dist_takes_no_sample_count(tmp_path, capsys):
    # both ends of the distance bracket are proven, so no setting sizes a
    # sample: --samples is an unknown flag, and a [lab] samples key names no
    # setting
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--samples", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples" in capsys.readouterr().err
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[lab]\nsamples = 4\n")
    assert main(["dist", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "[lab] samples" in err


@pytest.mark.parametrize("argv", [["iso", "--seed", "-1"], ["gen", "--seed", "-2"]],
                         ids=["iso", "gen"])
def test_negative_seed_exits_2_naming_the_seed(argv, tmp_path, monkeypatch, capsys):
    # refused by name where the seed's stream is made, not by numpy's
    # "expected non-negative integer"
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "ValueError" in err and "seed must be at least 0" in err and argv[-1] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_non_finite_eps_exits_2(eps, capsys):
    rc = main(["dist", f"--eps={eps}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "eps" in err


def test_unknown_algebra_exits_2(capsys):
    rc = main(["gen", "--algebra", "M17"])
    assert rc == 2
    assert "unknown algebra profile" in capsys.readouterr().err


def test_selftest_single_criterion(capsys):
    rc = main(["selftest", "--criteria", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS criterion 3" in out


def test_selftest_unknown_criterion(capsys):
    rc = main(["selftest", "--criteria", "99"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown criterion 99" in err


def test_a_closed_pipe_ends_quietly():
    # as in `cstarlab iso --format json | head -1`: the reader takes one line
    # and closes the pipe; the writer exits with 141, or with 0 when all of
    # its output was in the pipe before the reader closed it, and never
    # prints a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(cstarlab.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cstarlab.cli", "iso", "--eps", "1e-5", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1]
    assert proc.returncode in (0, 141)
    assert err == b""
