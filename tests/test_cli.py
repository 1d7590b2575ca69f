"""Exit codes, report determinism, and the subcommand surfaces."""

import json

import numpy as np
import pytest

from capfold.cli import run
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


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": 2, "space": "disk", "n": 1, "atoms": [[0.0, 0.0, 1.0]]},
        {"schema": 1, "space": "disk", "n": 1},
        {"schema": 1, "space": "disk", "n": 1, "atoms": [[2.0, 0.0, 1.0]]},
    ],
    ids=["schema-2", "no-atoms", "atom-outside-disk"],
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


def test_renormalize_roundtrip(measure_file, tmp_path):
    out = tmp_path / "renorm.json"
    code = run(["renormalize", measure_file, "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(complex(*doc["xi"])) < 1e-9
    assert doc["residual"] < 1e-10
    # already balanced: one moment evaluation, no Newton step
    assert (doc["iterations"], doc["evaluations"], doc["halvings"]) == (0, 1, 0)


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


def test_rearrange_subcommand(measure_file, tmp_path):
    out = tmp_path / "re.json"
    code = run([
        "rearrange", measure_file, "--r", "0.5", "--angle", "0.0",
        "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["trace"]["zeta_predicted"][0] == pytest.approx(-0.8)
    assert abs(doc["trace"]["q_norm"] - 1.0) < 1e-10
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


def test_config_file_unknown_key_rejected(tmp_path, measure_file):
    conf = tmp_path / "run.conf"
    conf.write_text("bogus_knob = 3\n")
    assert run(["--config", str(conf), "renormalize", measure_file]) == 1


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
