"""Exit codes, report determinism, and the subcommand surfaces."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capfold
from capfold.cli import _subparsers, build_parser, run
from capfold.measures import (
    DiscreteMeasure,
    disk_quadrature,
    measure_to_json,
    sphere_quadrature,
)


@pytest.fixture()
def domain_file(tmp_path):
    path = tmp_path / "bent.json"
    path.write_text(json.dumps({"schema": 1, "coeffs": [[1.0, 0.0], [0.3, 0.0]]}))
    return str(path)


@pytest.fixture()
def measure_file(tmp_path):
    m = disk_quadrature(32, 64)
    path = tmp_path / "uniform.json"
    path.write_text(measure_to_json(m))
    return str(path)


def test_constants_odd_dimension(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["constants", "--n", "3", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["zeta"] == pytest.approx(1.8411837813, abs=1e-9)
    assert 1.0 < doc["sphere"]["ratio"] < 1.04
    assert doc["sphere"]["ratio"] == pytest.approx(1.0301, abs=2e-3)
    assert doc["planar_bound_two_disk"] == pytest.approx(21.2997, abs=1e-3)


@pytest.mark.parametrize(
    "argv", [["constants", "--n", "131"], ["constants", "--n", "200"], ["sphere", "--n", "201"]]
)
def test_sphere_constants_refuse_n_beyond_double_precision(argv, capsys):
    # unchecked, 131 reads ratio 0.0 (a failed bound) and 200 overflows Gamma
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sphere", "--n", "7"],
        ["sphere", "--n", "9"],
        ["sphere", "--n", "3", "--seed", "-1"],
        ["renormalize", "MEASURE", "--seed", "-1"],
        ["fem", '{"kind": "disk", "radius": true}'],
        ["fem", '{"kind": "two_disks_neck", "eps": true, "neck_length": false}'],
        ["fem", "disk", "--h", "1e-4"],
        ["certify", "DOMAIN", "--n-r", "20000", "--n-theta", "40000"],
        ["scan", "DOMAIN", "--n-r", "20000", "--n-theta", "40000"],
        ["sphere", "--n", "3", "--resolution", str(10**200)],
    ],
    ids=["sphere-n7", "sphere-n9", "sphere-seed", "renormalize-seed", "fem-radius-true",
         "fem-eps-true", "fem-h-1e-4", "certify-20000", "scan-20000", "sphere-res-1e200"],
)
def test_out_of_range_input_is_one_error_line(argv, measure_file, domain_file, capsys):
    # n = 7 allocated 34 GB before any check, a negative seed ended in
    # numpy's ValueError traceback, booleans meshed as the numbers 1 and 0,
    # h = 1e-4 asked for 20 GB of mesh, a 20000-node radial rule for a
    # 3.2 GB companion matrix and 13 GB of atoms, and a size past 1e308
    # broke the error message's float format
    files = {"MEASURE": measure_file, "DOMAIN": domain_file}
    assert run([files.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_constants_n1_flags_violation(tmp_path):
    # arithmetic puts the dimension-1 ratio outside the theorem window
    out = tmp_path / "report.json"
    code = run(["constants", "--n", "1", "--output", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["sphere"]["ratio"] < 1.0


def test_constants_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["constants", "--n", "5", "--output", str(a)]) == 0
    assert run(["constants", "--n", "5", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code():
    assert run(["constants", "--bogus"]) == 1
    assert run(["fem", "heptagon"]) == 1
    assert run(["renormalize", "/nonexistent/measure.json"]) == 1


def test_numerical_failure_exit_code(tmp_path):
    # mass pinned on the boundary has no balancing point: the solver fails,
    # which is neither bad input nor a violated bound
    m = DiscreteMeasure("disk", np.array([1.0 + 0j, 0j]), np.array([1.0, 1e-6]))
    path = tmp_path / "pinned.json"
    path.write_text(measure_to_json(m))
    assert run(["renormalize", str(path)]) == 3


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_renormalize_bad_tolerance_exit_code(measure_file, tol):
    assert run(["renormalize", measure_file, "--tol", tol]) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": 2, "space": "disk", "n": 1, "atoms": [[0.0, 0.0, 1.0]]},
        {"schema": 1, "space": "disk", "n": 1},
        {"schema": 1, "space": "disk", "n": 1, "atoms": [[2.0, 0.0, 1.0]]},
        # numeric text and a boolean: read as numbers, these are two atoms
        {"schema": 1, "space": "disk", "n": 1, "atoms": [["0.5", 0, True], [-0.5, 0, True]]},
        {"schema": 1, "space": "disk", "n": 1, "atoms": [[0.5, 0, 1], [-0.5, 0]]},
        # n must be the atoms' dimension: these were read as S^3, the disk, the disk
        {"schema": 1, "space": "sphere", "n": 5, "atoms": [[1, 0, 0, 0, 1]]},
        {"schema": 1, "space": "disk", "n": 7, "atoms": [[0.0, 0.0, 1.0]]},
        {"schema": 1, "space": "disk", "atoms": [[0.0, 0.0, 1.0]]},
    ],
    ids=[
        "schema-2", "no-atoms", "atom-outside-disk", "text-and-bool", "ragged",
        "sphere-n-5-of-s3-atoms", "disk-n-7", "no-n",
    ],
)
def test_bad_measure_file_exit_code(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["renormalize", str(path)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["fem", "disk", "--k", "0"],
        ["fem", "disk", "--h", "0.5", "--k", "19"],  # 20 vertices
        ["fem", "disk", "--h", "nan"],
        ["rearrange", "MEASURE", "--r", "2", "--angle", "0"],
        ["rearrange", "MEASURE", "--r", "0.5", "--angle", "nan"],
        ["certify", "DOMAIN", "--n-r", "2", "--n-theta", "4"],
        ["constants", "--n", "0"],
        ["sphere", "--n", "3", "--resolution", "0"],
    ],
    ids=["k-0", "k-19-of-20", "h-nan", "r-2", "angle-nan", "n-r-2", "n-0", "resolution-0"],
)
def test_bad_numeric_argument_exit_code(measure_file, domain_file, argv):
    files = {"MEASURE": measure_file, "DOMAIN": domain_file}
    assert run([files.get(a, a) for a in argv]) == 1


@pytest.mark.parametrize(
    "spec",
    [
        "rectangle:2",
        "rectangle:axb",
        "rectangle:infx1",
        "rectangle:-1x1",
        "two_disks:0.1",
        "two_disks:2.5,0.2",
        "two_disks:nan,0.2",
        "two_disks:0.4,-0.1",
        '{"kind": "disk", "radius": "inf"}',
        '{"kind": "disk", "radius": -1}',
        '{"kind": "disk", "radius": null}',
        '{"kind": "conformal", "coeffs": [[1, 0], [NaN, 0]]}',
        '{"kind": "conformal", "coeffs": [[1]]}',
        '{"kind": "conformal", "coeffs": [[1, 0], ["x", 0]]}',
        '{"kind": "conformal", "coeffs": [[1, 0], [false, 0]]}',
    ],
)
def test_bad_domain_spec_exit_code(spec, capsys):
    assert run(["fem", spec, "--h", "0.1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["certify", "scan"])
@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"schema": 1, "coeffs": [[1]]}',
        '{"schema": 1, "coeffs": [["x", 0]]}',
        '{"schema": 1, "coeffs": [[1, 0], [NaN, 0]]}',
        '{"schema": 1, "coeffs": 3}',
        '{"schema": 2, "coeffs": [[1, 0]]}',
        # numeric text and a boolean: read as numbers, this is z + z^2
        '{"schema": 1, "coeffs": [["1", 0], [true, 0]]}',
    ],
    ids=["list", "short-pair", "text", "nan", "number", "schema-2", "text-and-bool"],
)
def test_bad_domain_file_exit_code(tmp_path, capsys, command, text):
    path = tmp_path / "domain.json"
    path.write_text(text)
    assert run([command, str(path), "--n-r", "16", "--n-theta", "32"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("c", [1e-170, 1e-156, 1e154])
def test_certify_rejects_a_map_whose_area_leaves_the_normal_floats(tmp_path, capsys, c):
    # an area that under- or overflows would make the certificate's weights
    # and pi / area meaningless: an input error, with no report written
    path, out = tmp_path / "domain.json", tmp_path / "report.json"
    path.write_text(json.dumps({"schema": 1, "coeffs": [[c, 0.0]]}))
    assert run(["certify", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_renormalize_roundtrip(measure_file, tmp_path):
    out = tmp_path / "renorm.json"
    code = run(["renormalize", measure_file, "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(complex(*doc["xi"])) < 1e-9
    assert doc["residual"] < 1e-10
    # already balanced: one moment evaluation, no Newton step
    assert (doc["iterations"], doc["evaluations"], doc["halvings"]) == (0, 1, 0)
    assert doc["jacobians"] == 0


def test_renormalize_sphere_seeded_start(tmp_path):
    # seed 79 draws a start of norm >= 1 in R^6; it is pulled back inside
    g = sphere_quadrature(5, resolution=6)
    m = DiscreteMeasure("sphere", g.points, g.weights * (1.0 + 0.1 * g.points[:, 1]))
    path, out = tmp_path / "s5.json", tmp_path / "renorm.json"
    path.write_text(measure_to_json(m))
    assert run(["renormalize", str(path), "--seed", "79", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["residual"] < 1e-10
    assert doc["evaluations"] >= doc["iterations"] + 1
    assert doc["halvings"] >= 0
    # one closed-form Jacobian, updated by the secant steps after it
    assert doc["jacobians"] == 1


def test_rearrange_subcommand(measure_file, tmp_path):
    out = tmp_path / "re.json"
    code = run([
        "rearrange", measure_file, "--r", "0.5", "--angle", "0.0",
        "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["trace"]["zeta_predicted"][0] == pytest.approx(-0.8)
    atoms = np.asarray(doc["measure"]["atoms"])
    assert atoms.shape[1] == 3
    total = atoms[:, 2].sum()
    assert total == pytest.approx(np.pi, abs=1e-8)


def test_fem_disk(tmp_path):
    out = tmp_path / "fem.json"
    code = run(["fem", "disk", "--h", "0.05", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["eigenvalues"][1] == pytest.approx(3.38996, rel=0.01)
    tags = {q["tag"] for q in doc["inequalities"]}
    assert tags == {"szego", "two-disk", "polya-k2"}
    assert all(q["holds"] for q in doc["inequalities"])
    assert len(doc["residuals"]) == 3
    assert max(doc["residuals"]) < 1e-9
    assert doc["solves"] > 0
    assert doc["factor_nnz"] > len(doc["eigenvalues"])


def test_certify_report_is_the_same_with_a_cold_or_warm_grid_cache(tmp_path):
    # the first certify at a grid shape builds its rule and fills the rule's
    # cached columns, the second reads them; both write the same bytes
    from capfold.measures import disk_grid

    domain = tmp_path / "quartic.json"
    domain.write_text(json.dumps({"schema": 1, "coeffs": [[1, 0], [0, 0], [0, 0], [0.03, 0.01]]}))
    disk_grid.cache_clear()
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    for out in (cold, warm):
        argv = ["certify", str(domain), "--n-r", "48", "--n-theta", "96", "--output", str(out)]
        assert run(argv) == 0
    assert json.loads(cold.read_text())["branch"] == "multiple-direct"
    assert cold.read_bytes() == warm.read_bytes()


def test_certify_subcommand(domain_file, tmp_path):
    out = tmp_path / "cert.json"
    code = run([
        "certify", domain_file, "--n-r", "64", "--n-theta", "128",
        "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["branch"] == "simple-folded"
    assert doc["holds"]
    assert doc["quotient_sup"] <= doc["bound"] * 1.01


@pytest.mark.parametrize(
    "specs",
    [
        {"kind": "rectangle", "a": 1.0, "b": 1.0},
        [{"kind": "rectangle", "a": 1.0, "b": 1.0, "h": None, "name": "bad"}],
        [{"kind": "disk", "h": True, "name": "bad"}],
    ],
    ids=["not-a-list", "h-null", "h-true"],
)
def test_corpus_bad_specs_exit_code(tmp_path, capsys, specs):
    # a file that is no list is an input error; a bad spec in a list lands
    # in the report's failures, and with no inequality failed the sweep
    # exits as that spec's input error would
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps(specs))
    code = run(["corpus", str(spec_file), "--h", "0.1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")
    if isinstance(specs, list):
        assert list(json.loads(out)["failures"]) == ["bad"]


def test_corpus_reports_both_failures_of_two_disk_specs(tmp_path, capsys):
    # both failed disk specs are reported; the first one's input error
    # sets the exit code
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps([
        {"kind": "disk", "radius": -1.0}, {"kind": "disk", "radius": None},
    ]))
    code = run(["corpus", str(spec_file), "--h", "0.1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")
    failures = json.loads(out)["failures"]
    assert list(failures) == ["disk", "disk#2"]
    assert failures["disk"] != failures["disk#2"]


def _square_and(spec, tmp_path):
    path = tmp_path / "specs.json"
    square = {"kind": "rectangle", "a": 1.0, "b": 1.0, "name": "square"}
    path.write_text(json.dumps([square, spec]))
    return str(path)


def test_corpus_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a spec whose eigensolve fails decided nothing: numerical failure
    from capfold import fem
    from capfold.exceptions import EigSolveError

    solve = fem.neumann_eigs

    def failing_on_disks(mesh, k=2, h=float("nan")):
        if mesh.area > 2.0:
            raise EigSolveError("no convergence")
        return solve(mesh, k=k, h=h)

    monkeypatch.setattr(fem, "neumann_eigs", failing_on_disks)
    specs = _square_and({"kind": "disk", "name": "disk"}, tmp_path)
    out = tmp_path / "corpus.json"
    assert run(["corpus", specs, "--h", "0.1", "--output", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert [r["name"] for r in doc["rows"]] == ["square"]
    assert "EigSolveError" in doc["failures"]["disk"]
    assert not doc["all_ok"]
    assert capsys.readouterr().err.startswith("error:")


def test_corpus_failed_row_exits_2_despite_a_failed_spec(tmp_path, monkeypatch):
    # a violated bound is the sweep's verdict, whatever else failed
    from capfold import fem
    from capfold.specfun import product_bounds

    tiny_szego = tuple((t, k, 1e-3 if t == "szego" else b) for t, k, b in product_bounds())
    monkeypatch.setattr(fem, "product_bounds", lambda: tiny_szego)
    specs = _square_and({"kind": "heptagon", "name": "bad"}, tmp_path)
    out = tmp_path / "corpus.json"
    assert run(["corpus", specs, "--h", "0.1", "--output", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert [q["holds"] for q in doc["rows"][0]["inequalities"]] == [False, True, True]
    assert doc["rows"][0]["szego_ok"] is False
    assert list(doc["failures"]) == ["bad"]


def test_corpus_subcommand(tmp_path):
    specs = [
        {"kind": "rectangle", "a": 1.0, "b": 1.0, "name": "square"},
        {"kind": "rectangle", "a": 2.0, "b": 1.0, "name": "rect"},
    ]
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps(specs))
    out = tmp_path / "corpus.json"
    code = run(["corpus", str(spec_file), "--h", "0.05", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_ok"]
    assert [r["name"] for r in doc["rows"]] == ["rect", "square"]


def test_config_file_merge(tmp_path, measure_file):
    conf = tmp_path / "run.conf"
    conf.write_text("tol = 1e-8\n# comment line\n")
    out = tmp_path / "out.json"
    code = run([
        "--config", str(conf), "renormalize", measure_file, "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["tol"] == 1e-8


def test_config_file_flag_wins(tmp_path, measure_file):
    conf = tmp_path / "run.conf"
    conf.write_text("tol = 1e-6\n")
    out = tmp_path / "out.json"
    code = run([
        "--config", str(conf), "renormalize", measure_file,
        "--tol", "1e-9", "--output", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["config"]["tol"] == 1e-9


@pytest.mark.parametrize(
    "flag", [["--to", "1e-9"], ["--to=1e-9"], ["--tol=1e-9"]],
    ids=["prefix", "prefix-equals", "equals"],
)
def test_config_file_abbreviated_flag_wins(tmp_path, measure_file, flag):
    # argparse accepts unique prefixes, so "--to" is the command line's --tol
    conf = tmp_path / "run.conf"
    conf.write_text("tol = 1e-6\nseed = 3\n")
    out = tmp_path / "out.json"
    code = run([
        "--config", str(conf), "renormalize", measure_file, *flag,
        "--output", str(out),
    ])
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert config["tol"] == 1e-9
    assert config["seed"] == 3


def test_config_file_unknown_key_rejected(tmp_path, measure_file):
    conf = tmp_path / "run.conf"
    conf.write_text("bogus_knob = 3\n")
    assert run(["--config", str(conf), "renormalize", measure_file]) == 1


def test_config_file_string_option_stays_string(tmp_path, monkeypatch):
    # an option without a type keeps its text: "7" names a file, not a descriptor
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text("output = 7\n")
    assert run(["--config", "run.conf", "constants"]) == 0
    assert json.loads((tmp_path / "7").read_text())["schema"] == 1


@pytest.mark.parametrize(
    "line, argv",
    [
        ("domain = /nonexistent.json", ["certify", "DOMAIN", "--n-r", "16", "--n-theta", "32"]),
        ("measure = /nonexistent.json", ["renormalize", "MEASURE"]),
        ("format = xml", ["fem", "disk"]),
        ("n = three", ["constants"]),
    ],
    ids=["positional-domain", "positional-measure", "bad-choice", "bad-type"],
)
def test_config_file_value_follows_the_flag(
    tmp_path, domain_file, measure_file, capsys, line, argv
):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    files = {"DOMAIN": domain_file, "MEASURE": measure_file}
    argv = ["--config", str(conf)] + [files.get(a, a) for a in argv]
    assert run(argv) == 1
    assert f"config key {line.split(' =')[0]!r}" in capsys.readouterr().err


# the flags of each subcommand: each one is read by its command
SUBCOMMAND_FLAGS = {
    "constants": {"--n", "--output"},
    "renormalize": {"--tol", "--seed", "--output"},
    "rearrange": {"--r", "--angle", "--output"},
    "scan": {"--n-r", "--n-theta", "--output"},
    "certify": {"--n-r", "--n-theta", "--output"},
    "fem": {"--h", "--k", "--format", "--output"},
    "corpus": {"--h", "--format", "--output"},
    "sphere": {"--n", "--resolution", "--seed", "--output"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    flags = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in _subparsers(build_parser()).choices.items()
    }
    assert flags == SUBCOMMAND_FLAGS


@pytest.mark.parametrize(
    "line, argv",
    [
        ("seed = 3", ["constants"]),
        ("format = csv", ["constants"]),
        ("seed = 3", ["fem", "disk"]),
    ],
    ids=["constants-seed", "constants-format", "fem-seed"],
)
def test_config_key_of_an_unread_flag_is_unknown(tmp_path, capsys, line, argv):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    assert run(["--config", str(conf)] + argv) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_one_process_many_runs_match_a_fresh_process(tmp_path):
    domain = tmp_path / "disk.json"
    domain.write_text(json.dumps({"schema": 1, "coeffs": [[1.0, 0.0]]}))
    argv = ["certify", str(domain), "--n-r", "32", "--n-theta", "64", "--output"]
    first, second, fresh = (tmp_path / f"{k}.json" for k in ("a", "b", "c"))
    assert run(argv + [str(first)]) == 0
    assert run(["certify"]) == 1
    assert run(argv + [str(second)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(capfold.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-m", "capfold.cli"] + argv + [str(fresh)],
        env=env, check=True, timeout=300,
    )
    assert first.read_bytes() == second.read_bytes() == fresh.read_bytes()


LAZY_SCIPY = (
    "scipy.interpolate", "scipy.spatial", "scipy.special", "scipy.sparse",
    "scipy.sparse.linalg",
)


def _scipy_loaded_after(code: str) -> list:
    """The modules of ``LAZY_SCIPY`` a fresh interpreter holds after ``code``."""
    code += (
        f"; import json, sys"
        f"; print(json.dumps([m for m in {LAZY_SCIPY!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(capfold.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=300,
        capture_output=True, text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_lazy_scipy_subpackages_unloaded():
    assert _scipy_loaded_after("import capfold.cli") == []


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Paths of a bent domain, a multiple-direct domain and a disk measure."""
    root = tmp_path_factory.mktemp("cli_inputs")
    docs = {
        "bent": {"schema": 1, "coeffs": [[1.0, 0.0], [0.3, 0.0]]},
        "quartic": {"schema": 1, "coeffs": [[1.0, 0.0], [0, 0], [0, 0], [0.03, 0.02]]},
    }
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    (root / "measure.json").write_text(measure_to_json(disk_quadrature(8, 16)))
    return {name: str(root / f"{name}.json") for name in ("bent", "quartic", "measure")}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["sphere", "--n", "3"], []),
        (["constants"], []),
        (["certify", "{quartic}", "--n-r", "16", "--n-theta", "32"], []),
        (["certify", "{bent}", "--n-r", "16", "--n-theta", "32"], []),
        (["scan", "{bent}", "--n-r", "16", "--n-theta", "32"], []),
        (["renormalize", "{measure}"], []),
        (["rearrange", "{measure}", "--r", "0.3", "--angle", "0.5"], []),
        (["fem", "square", "--h", "0.1"], ["scipy.sparse", "scipy.sparse.linalg"]),
    ],
    ids=["sphere", "constants", "certify-multiple-direct", "certify-simple-folded",
         "scan", "renormalize", "rearrange", "fem"],
)
def test_cli_command_loads_only_the_scipy_it_uses(argv, loaded, cli_inputs):
    argv = [a.format(**cli_inputs) for a in argv] + ["--output", os.devnull]
    code = f"from capfold.cli import run; assert run({argv!r}) == 0"
    assert _scipy_loaded_after(code) == loaded


def test_fem_csv_format(tmp_path):
    out = tmp_path / "fem.csv"
    code = run(["fem", "square", "--h", "0.1", "--format", "csv",
                "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "index,mu,mu_area"
    assert len(lines) == 5  # config + header + mu_0..mu_2


def test_corpus_csv_format(tmp_path):
    specs = [{"kind": "rectangle", "a": 1.0, "b": 1.0, "name": "square"}]
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps(specs))
    out = tmp_path / "corpus.csv"
    code = run(["corpus", str(spec_file), "--h", "0.05", "--format", "csv",
                "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("name,h,area,mu1,mu2")
    assert lines[2].startswith("square,")


def test_scan_csv_output(domain_file, tmp_path, capsys):
    out = tmp_path / "field.csv"
    code = run(["scan", domain_file, "--n-r", "48", "--n-theta", "96",
                "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "r,theta,s_x,s_y,gap"
    assert len(lines) > 100
    assert any(line.startswith("# winding r=") for line in lines)
    err = capsys.readouterr().err
    side = json.loads(err.strip().splitlines()[-1])
    assert side["gap"] < 1e-3


def _report_argvs(tmp_path):
    measure = tmp_path / "uniform.json"
    measure.write_text(measure_to_json(disk_quadrature(8, 16)))
    domain = tmp_path / "disk.json"
    domain.write_text(json.dumps({"schema": 1, "coeffs": [[1.0, 0.0]]}))
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"kind": "rectangle", "a": 1.0, "b": 1.0}]))
    return {
        "constants": ["constants", "--n", "3"],
        "constants-even": ["constants", "--n", "4"],
        "renormalize": ["renormalize", str(measure)],
        "rearrange": ["rearrange", str(measure), "--r", "0.5", "--angle", "0"],
        "certify": ["certify", str(domain), "--n-r", "16", "--n-theta", "32"],
        "fem": ["fem", "square", "--h", "0.1"],
        "corpus": ["corpus", str(specs), "--h", "0.1"],
        "sphere": ["sphere", "--n", "3", "--resolution", "6"],
    }


REPORT_COMMANDS = [
    "constants", "constants-even", "renormalize", "rearrange", "certify", "fem",
    "corpus", "sphere",
]


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_every_json_report_is_stamped_and_its_records_have_four_keys(tmp_path, command):
    out = tmp_path / "report.json"
    assert run(_report_argvs(tmp_path)[command] + ["--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert isinstance(doc["config"], dict)
    records = doc.get("inequalities", []) + [
        q for row in doc.get("rows", []) for q in row["inequalities"]
    ]
    for q in records:
        assert set(q) == {"tag", "value", "bound", "holds"}
        assert q["holds"] is True
    assert bool(records) == (command not in {"constants-even", "renormalize", "rearrange"})


def test_constants_records_the_odd_ratio_window_only(tmp_path):
    odd, even = tmp_path / "odd.json", tmp_path / "even.json"
    assert run(["constants", "--n", "3", "--output", str(odd)]) == 0
    assert run(["constants", "--n", "4", "--output", str(even)]) == 0
    ratio = json.loads(odd.read_text())["sphere"]["ratio"]
    assert json.loads(odd.read_text())["inequalities"] == [
        {"tag": "sphere-ratio-lower", "value": 1.0, "bound": ratio, "holds": True},
        {"tag": "sphere-ratio-upper", "value": ratio, "bound": 1.04, "holds": True},
    ]
    assert json.loads(even.read_text())["inequalities"] == []


def test_tiny_bound_makes_fem_exit_2(tmp_path, monkeypatch):
    from capfold import fem

    monkeypatch.setattr(fem, "product_bounds", lambda: (("two-disk", 2, 1e-3),))
    out = tmp_path / "fem.json"
    assert run(["fem", "square", "--h", "0.1", "--output", str(out)]) == 2
    (record,) = json.loads(out.read_text())["inequalities"]
    assert record["bound"] == 1e-3 and not record["holds"]


def test_fem_residual_failure_exits_3_without_a_verdict(tmp_path, monkeypatch, capsys):
    # an eigenpair that misses its residual tolerance decides nothing, even
    # where its products would fail a bound
    import scipy.sparse.linalg as spla

    from capfold import fem

    eigsh = spla.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        vecs[:, 0] += 1e-6 * np.linspace(-1.0, 1.0, len(vecs))
        return vals, vecs

    monkeypatch.setattr(spla, "eigsh", perturbed)
    monkeypatch.setattr(fem, "product_bounds", lambda: (("two-disk", 2, 1e-3),))
    out = tmp_path / "fem.json"
    assert run(["fem", "square", "--h", "0.1", "--output", str(out)]) == 3
    assert not out.exists()
    assert "residual" in capsys.readouterr().err


def test_tiny_bound_makes_sphere_exit_2(tmp_path, monkeypatch):
    import dataclasses

    from capfold import bounds

    constants = bounds.bound_constants
    monkeypatch.setattr(
        bounds, "bound_constants",
        lambda n: dataclasses.replace(constants(n), theorem_constant=1e-3),
    )
    out = tmp_path / "sphere.json"
    assert run(["sphere", "--n", "3", "--resolution", "6", "--output", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["inequalities"] == [doc["modified_quotient"]["inequality"]]
    assert not doc["inequalities"][0]["holds"]


@pytest.mark.parametrize(
    "n, resolution",
    [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5)],
)
def test_sphere_refuses_a_rule_that_misses_the_sphere_area(tmp_path, capsys, n, resolution):
    # the S^3 rule at resolution 1 has 3.1 times the sphere's area, and its
    # quotient read 7.74 against 29.22 at resolution 16, marked as holding
    out = tmp_path / "sphere.json"
    argv = ["sphere", "--n", str(n), "--resolution", str(resolution), "--output", str(out)]
    assert run(argv) == 1
    assert not out.exists()
    assert "area" in capsys.readouterr().err


@pytest.mark.parametrize("n, resolution", [(3, 5), (5, 6)])
def test_sphere_accepts_the_coarsest_rule_within_a_thousandth_of_the_area(n, resolution):
    assert run(["sphere", "--n", str(n), "--resolution", str(resolution)]) == 0
