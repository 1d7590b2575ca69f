"""Command-line entry point for reproducible verification runs.

Subcommands mirror the library pipeline: ``constants``, ``renormalize``,
``rearrange``, ``scan``, ``certify``, ``fem``, ``corpus``, ``sphere``.
Every command returns through ``_finish``, which writes its report (JSON,
or CSV where tabular) with the resolved configuration, byte-identical for a
fixed configuration and seed.  Exit codes: 0 success, 1 usage, IO or input
error, 2 an inequality record failed, 3 a numerical failure (nothing was
decided).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import fem as fem_mod
from .caps import Cap, rearrange, reflection_renormalizer
from .directions import canonicalize, scan_caps, sphere_degree_check
from .exceptions import CapfoldError, InvalidInputError, NumericalFailureError
from .measures import (
    ConformalDomain,
    measure_from_json,
    measure_to_json,
    pullback_measure,
    sphere_quadrature,
)
from .moebius import renormalize
from .specfun import (
    bound_constants, find_zeta, inequality, mu1_disk, omega_n, product_bounds,
)

USAGE_ERROR, BOUND_VIOLATION, NUMERICAL_FAILURE = 1, 2, 3


def _config_echo(args) -> dict:
    skip = {"func", "output"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _finish(args, doc: dict, csv=None) -> int:
    """Write ``doc`` stamped with ``schema`` and ``config``, or the ``csv``
    lines under a ``# config:`` line; the exit code is ``BOUND_VIOLATION``
    if and only if an inequality record of ``doc`` or of its ``rows`` fails."""
    config = _config_echo(args)
    if csv is None:
        text = json.dumps(dict(doc, schema=1, config=config), indent=2, sort_keys=True)
    else:
        text = "\n".join(["# config: " + json.dumps(config, sort_keys=True), *csv])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    records = doc.get("inequalities", []) + [
        q for row in doc.get("rows", ()) for q in row["inequalities"]
    ]
    return 0 if all(q["holds"] for q in records) else BOUND_VIOLATION


def _load_config_file(path: str) -> dict:
    # plain key=value lines; flags win over file entries
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _domain_from_json_file(path: str) -> ConformalDomain:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != 1 or "coeffs" not in doc:
        raise InvalidInputError(f"not a schema-1 domain document: {path}")
    return ConformalDomain.from_pairs(doc["coeffs"])


def cmd_constants(args) -> int:
    bounds = {tag: bound for tag, _, bound in product_bounds()}
    doc = {
        "zeta": find_zeta(),
        "mu1_disk": mu1_disk(),
        "planar_bound_two_disk": bounds["two-disk"],
        "szego": bounds["szego"],
        "polya_k2": bounds["polya-k2"],
        "inequalities": [],
    }
    if args.n is not None:
        bc = bound_constants(args.n)
        doc["sphere"] = {
            "n": bc.n,
            "theorem_constant": bc.theorem_constant,
            "conjecture_constant": bc.conjecture_constant,
            "ratio": bc.ratio,
            "odd_dimension": bc.odd_dimension,
        }
        # the theorem asserts the ratio window in odd dimensions only
        if bc.odd_dimension:
            doc["inequalities"] = [
                inequality("sphere-ratio-lower", 1.0, bc.ratio),
                inequality("sphere-ratio-upper", bc.ratio, 1.04),
            ]
    return _finish(args, doc)


def cmd_renormalize(args) -> int:
    with open(args.measure) as fh:
        m = measure_from_json(fh.read())
    result = renormalize(m, tol=args.tol, seed=args.seed)
    xi = result.xi
    xi_out = [xi.real, xi.imag] if m.space == "disk" else [float(v) for v in xi]
    return _finish(args, {
        "xi": xi_out,
        "residual": result.residual,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "jacobians": result.jacobians,
        "halvings": result.halvings,
    })


def cmd_rearrange(args) -> int:
    with open(args.measure) as fh:
        m = measure_from_json(fh.read())
    cap = Cap(args.r, np.exp(1j * args.angle), "disk")
    nu, trace = rearrange(m, cap)
    zeta = reflection_renormalizer(cap)
    doc = {
        "trace": {
            "xi_a": [trace.xi_a.real, trace.xi_a.imag],
            "eta_a": [trace.eta_a.real, trace.eta_a.imag],
            "b": {"r": trace.b.r, "theta": float(np.angle(trace.b.p))},
            "zeta_predicted": [zeta.real, zeta.imag],
        },
        "measure": json.loads(measure_to_json(nu)),
    }
    return _finish(args, doc)


def cmd_scan(args) -> int:
    domain = _domain_from_json_file(args.domain)
    canon, _ = canonicalize(pullback_measure(domain, args.n_r, args.n_theta))
    result = scan_caps(canon)
    lines = ["r,theta,s_x,s_y,gap"]
    lines += [",".join(repr(x) for x in row) for row in result.direction_field]
    # winding table as trailing comment rows of the same CSV
    for r, count in sorted(result.winding_numbers.items()):
        lines.append(f"# winding r={r!r}: {count}")
    r, theta = result.cap.r, float(np.angle(result.cap.p))
    lines.append(f"# multiple cap r={r!r} theta={theta!r} gap={result.gap!r}")
    windings = {str(k): v for k, v in result.winding_numbers.items()}
    summary = {"multiple_cap": {"r": r, "theta": theta}, "gap": result.gap, "windings": windings}
    code = _finish(args, {}, csv=lines)
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return code


def cmd_certify(args) -> int:
    domain = _domain_from_json_file(args.domain)
    report = bounds_mod.planar_bound_certificate(
        domain, domain_id=args.domain, n_r=args.n_r, n_theta=args.n_theta
    )
    return _finish(args, report.as_dict())


def cmd_fem(args) -> int:
    spec = fem_mod.parse_domain_spec(args.spec)
    mesh = fem_mod.build_mesh(spec, args.h)
    result = fem_mod.neumann_eigs(mesh, k=args.k, h=args.h)
    doc = dict(result.as_dict(), inequalities=fem_mod.bound_checks(result))
    csv = None
    if args.format == "csv":
        csv = ["index,mu,mu_area"] + [
            f"{i},{float(v)!r},{float(v) * result.area!r}"
            for i, v in enumerate(result.eigenvalues)
        ]
    return _finish(args, doc, csv)


def cmd_corpus(args) -> int:
    """A failed record exits 2; otherwise a spec that failed exits as its
    exception would, through ``run``: 1 for bad input, 3 for a solver."""
    with open(args.specs) as fh:
        specs = json.load(fh)
    if not isinstance(specs, list):
        raise InvalidInputError(f"not a list of domain specs: {args.specs}")
    report = fem_mod.verify_corpus(specs, h=args.h)
    errors = report.pop("errors")
    report["rows"].sort(key=lambda r: r["name"])
    csv = None
    if args.format == "csv":
        cols = [
            "name", "h", "area", "mu1", "mu2", "mu1_area", "mu2_area",
            "szego_ok", "two_disk_ok", "polya_k2_ok",
        ]
        csv = [",".join(cols)]
        csv += [",".join(str(row[c]) for c in cols) for row in report["rows"]]
    code = _finish(args, report, csv)
    if code == 0 and errors:
        raise next(iter(errors.values()))
    return code


def cmd_sphere(args) -> int:
    n = args.n
    bc = bound_constants(n)
    doc = {
        "constants": {
            "theorem_constant": bc.theorem_constant,
            "conjecture_constant": bc.conjecture_constant,
            "ratio": bc.ratio,
        },
    }
    if n % 2 == 1:
        g = sphere_quadrature(n, resolution=args.resolution)
        # a coarse rule's quotient is far off yet can still hold
        mass_error = abs(g.total_mass / omega_n(n) - 1.0)
        if mass_error > 1e-3:
            raise InvalidInputError(
                f"the resolution-{args.resolution} rule misses the area of the "
                f"{n}-sphere by {mass_error:.2g}; use a finer resolution"
            )
        g = g.scaled(1.0 / g.total_mass)
        doc["degrees"] = sphere_degree_check(n, seed=args.seed)
        cap = Cap(0.3, np.eye(n + 1)[0], "sphere")
        _, trace = rearrange(g, cap)
        quotient = bounds_mod.sphere_modified_quotient(
            g, cap, trace.form.max_direction, trace=trace
        )
        doc["modified_quotient"] = quotient
        doc["inequalities"] = [quotient["inequality"]]
    else:
        doc["note"] = "degree diagnostics defined for odd dimension only"
    return _finish(args, doc)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``capfold`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="capfold",
        description="Eigenvalue-bound verification toolkit for planar domains and spheres",
    )
    parser.add_argument("--config", help="key=value config file merged under flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", help="write the report here")
        p.set_defaults(func=func)
        return p

    p = command("constants", cmd_constants, "closed-form constants and bound ratios")
    p.add_argument("--n", type=int, help="sphere dimension for the ratio report")

    p = command("renormalize", cmd_renormalize, "balancing point of a measure JSON")
    p.add_argument("measure")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)

    p = command("rearrange", cmd_rearrange, "fold and rearrange a measure JSON")
    p.add_argument("measure")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--angle", type=float, required=True)

    for name, func, help in (
        ("scan", cmd_scan, "direction field and multiple-cap scan (CSV)"),
        ("certify", cmd_certify, "planar eigenvalue-bound certificate"),
    ):
        p = command(name, func, help)
        p.add_argument("domain")
        p.add_argument("--n-r", type=int, default=96)
        p.add_argument("--n-theta", type=int, default=192)

    p = command("fem", cmd_fem, "Neumann eigenvalues of one meshed domain")
    p.add_argument("spec", help="disk | square | rectangle:AxB | two_disks:EPS,LEN | JSON")
    p.add_argument("--h", type=float, default=0.02)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("corpus", cmd_corpus, "sweep a JSON list of domain specs")
    p.add_argument("specs")
    p.add_argument("--h", type=float, default=0.02)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("sphere", cmd_sphere, "sphere-side constants, degrees, quotient")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _subparsers(parser: argparse.ArgumentParser):
    return next(a for a in parser._actions if a.dest == "command")


def _parse_with_config(args, argv) -> argparse.Namespace:
    """Parse ``argv`` again, with the ``--config`` file's entries as the
    subcommand's defaults, so that flags still win over them.

    A value converts by its option's ``type`` and ``choices``, as the flag's
    would; only the subcommand's options, not its positionals, are keys.
    """
    parser = build_parser.__wrapped__()
    sub = _subparsers(parser).choices[args.command]
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in _load_config_file(args.config).items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise InvalidInputError(f"unknown config key {key!r}")
        try:
            value = value if action.type is None else action.type(value)
        except ValueError as exc:
            raise InvalidInputError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise InvalidInputError(f"config key {key!r}: invalid choice {value!r}")
        defaults[action.dest] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.config:
            args = _parse_with_config(args, argv)
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE
    except (OSError, json.JSONDecodeError, CapfoldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
