"""Command-line entry point for reproducible verification runs.

Subcommands mirror the library pipeline: ``constants``, ``renormalize``,
``rearrange``, ``scan``, ``certify``, ``fem``, ``corpus``, ``sphere``.
Reports are JSON (or CSV where tabular), embed the resolved configuration,
and are byte-identical for a fixed configuration and seed.  Exit codes:
0 success, 1 usage, IO or input error, 2 an asserted inequality failed,
3 a numerical failure (a solver did not converge; nothing was decided).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import fem as fem_mod
from .caps import Cap, rearrange
from .directions import scan_caps, sphere_degree_check
from .exceptions import CapfoldError, NumericalFailureError
from .measures import (
    ConformalDomain,
    measure_from_json,
    measure_to_json,
    sphere_quadrature,
)
from .moebius import renormalize
from .specfun import bound_constants, find_zeta, mu1_disk, planar_bound

USAGE_ERROR, BOUND_VIOLATION, NUMERICAL_FAILURE = 1, 2, 3


def _write_text(text: str, args) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _write_report(doc, args) -> None:
    _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)


def _config_echo(args) -> dict:
    skip = {"func", "output"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


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
    if doc.get("schema") != 1 or "coeffs" not in doc:
        raise CapfoldError(f"not a schema-1 domain document: {path}")
    return ConformalDomain([complex(c[0], c[1]) for c in doc["coeffs"]])


def cmd_constants(args) -> int:
    report = {
        "schema": 1,
        "config": _config_echo(args),
        "zeta": find_zeta(),
        "mu1_disk": mu1_disk(),
        "planar_bound_two_disk": planar_bound(),
        "szego": mu1_disk() * float(np.pi),
        "polya_k2": 8.0 * float(np.pi),
    }
    code = 0
    if args.n is not None:
        bc = bound_constants(args.n)
        in_window = 1.0 < bc.ratio < 1.04
        report["sphere"] = {
            "n": bc.n,
            "theorem_constant": bc.theorem_constant,
            "conjecture_constant": bc.conjecture_constant,
            "ratio": bc.ratio,
            "odd_dimension": bc.odd_dimension,
            "inequalities": [
                {
                    "tag": "sphere-conformal",
                    "ratio_in_(1,1.04)": in_window,
                }
            ],
        }
        if bc.odd_dimension and not in_window:
            code = BOUND_VIOLATION
    _write_report(report, args)
    return code


def cmd_renormalize(args) -> int:
    with open(args.measure) as fh:
        m = measure_from_json(fh.read())
    result = renormalize(m, tol=args.tol, seed=args.seed)
    xi = result.xi
    xi_out = [xi.real, xi.imag] if m.space == "disk" else [float(v) for v in xi]
    _write_report(
        {
            "schema": 1,
            "config": _config_echo(args),
            "xi": xi_out,
            "residual": result.residual,
            "iterations": result.iterations,
            "evaluations": result.evaluations,
            "halvings": result.halvings,
        },
        args,
    )
    return 0


def cmd_rearrange(args) -> int:
    with open(args.measure) as fh:
        m = measure_from_json(fh.read())
    cap = Cap(args.r, np.exp(1j * args.angle), "disk")
    nu, trace = rearrange(m, cap)
    doc = {
        "schema": 1,
        "config": _config_echo(args),
        "trace": {
            "xi_a": [trace.xi_a.real, trace.xi_a.imag],
            "eta_a": [trace.eta_a.real, trace.eta_a.imag],
            "b": {"r": trace.b.r, "theta": float(np.angle(trace.b.p))},
            "zeta_predicted": [
                trace.zeta_predicted.real,
                trace.zeta_predicted.imag,
            ],
            "q_norm": trace.q_norm,
        },
        "measure": json.loads(measure_to_json(nu)),
    }
    _write_report(doc, args)
    return 0


def cmd_scan(args) -> int:
    domain = _domain_from_json_file(args.domain)
    from .directions import canonicalize
    from .measures import pullback_measure

    canon, _ = canonicalize(pullback_measure(domain, args.n_r, args.n_theta))
    result = scan_caps(canon)
    lines = [
        "# config: " + json.dumps(_config_echo(args), sort_keys=True),
        "r,theta,s_x,s_y,gap",
    ]
    lines += [",".join(repr(x) for x in row) for row in result.direction_field]
    # winding table as trailing comment rows of the same CSV
    for r, count in sorted(result.winding_numbers.items()):
        lines.append(f"# winding r={r!r}: {count}")
    lines.append(
        f"# multiple cap r={result.cap.r!r} theta={float(np.angle(result.cap.p))!r}"
        f" gap={result.gap!r}"
    )
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    print(
        json.dumps(
            {
                "multiple_cap": {
                    "r": result.cap.r,
                    "theta": float(np.angle(result.cap.p)),
                },
                "gap": result.gap,
                "windings": {str(k): v for k, v in result.winding_numbers.items()},
            },
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_certify(args) -> int:
    domain = _domain_from_json_file(args.domain)
    report = bounds_mod.planar_bound_certificate(
        domain, domain_id=args.domain, n_r=args.n_r, n_theta=args.n_theta
    )
    doc = json.loads(report.to_json())
    doc["config"] = _config_echo(args)
    doc["inequalities"] = [
        {"tag": "two-disk" if report.branch == "simple-folded" else "szego",
         "holds": report.holds}
    ]
    _write_report(doc, args)
    return 0 if report.holds else BOUND_VIOLATION


def cmd_fem(args) -> int:
    spec = fem_mod.parse_domain_spec(args.spec)
    mesh = fem_mod.build_mesh(spec, args.h)
    result = fem_mod.neumann_eigs(mesh, k=args.k, h=args.h)
    doc = json.loads(result.to_json())
    doc["config"] = _config_echo(args)
    szego = mu1_disk() * float(np.pi)
    two_disk = planar_bound()
    doc["inequalities"] = [
        {"tag": "szego", "value": result.mu(1) * result.area,
         "bound": szego, "holds": result.mu(1) * result.area <= szego * 1.02},
        {"tag": "two-disk", "value": result.mu(2) * result.area,
         "bound": two_disk, "holds": result.mu(2) * result.area <= two_disk * 1.02},
        {"tag": "polya-k2", "value": result.mu(2) * result.area,
         "bound": 8 * float(np.pi),
         "holds": result.mu(2) * result.area <= 8 * np.pi * 1.02},
    ]
    if args.format == "csv":
        lines = [
            "# config: " + json.dumps(_config_echo(args), sort_keys=True),
            "index,mu,mu_area",
        ]
        lines += [
            f"{i},{float(v)!r},{float(v) * result.area!r}"
            for i, v in enumerate(result.eigenvalues)
        ]
        _write_text("\n".join(lines) + "\n", args)
    else:
        _write_report(doc, args)
    return 0 if all(q["holds"] for q in doc["inequalities"]) else BOUND_VIOLATION


def cmd_corpus(args) -> int:
    with open(args.specs) as fh:
        specs = json.load(fh)
    report = fem_mod.verify_corpus(specs, h=args.h)
    report["rows"].sort(key=lambda r: r["name"])
    report["schema"] = 1
    report["config"] = _config_echo(args)
    if args.format == "csv":
        cols = [
            "name", "h", "area", "mu1", "mu2", "mu1_area", "mu2_area",
            "szego_ok", "two_disk_ok", "polya_k2_ok",
        ]
        lines = [
            "# config: " + json.dumps(_config_echo(args), sort_keys=True),
            ",".join(cols),
        ]
        lines += [
            ",".join(str(row[c]) for c in cols) for row in report["rows"]
        ]
        _write_text("\n".join(lines) + "\n", args)
    else:
        _write_report(report, args)
    return 0 if report["all_ok"] else BOUND_VIOLATION


def cmd_sphere(args) -> int:
    n = args.n
    bc = bound_constants(n)
    doc = {
        "schema": 1,
        "config": _config_echo(args),
        "constants": {
            "theorem_constant": bc.theorem_constant,
            "conjecture_constant": bc.conjecture_constant,
            "ratio": bc.ratio,
        },
    }
    code = 0
    if n % 2 == 1:
        degrees = sphere_degree_check(n, seed=args.seed)
        doc["degrees"] = degrees
        g = sphere_quadrature(n, resolution=args.resolution)
        g = g.scaled(1.0 / g.total_mass)
        cap = Cap(0.3, np.eye(n + 1)[0], "sphere")
        nu, trace = rearrange(g, cap)
        from .measures import direction_form

        form = direction_form(nu)
        quotient = bounds_mod.sphere_modified_quotient(
            g, cap, form.max_direction, trace=trace
        )
        doc["modified_quotient"] = quotient
        doc["inequalities"] = [
            {"tag": "sphere-conformal", "holds": bool(quotient["holds"])}
        ]
        if not quotient["holds"]:
            code = BOUND_VIOLATION
    else:
        doc["note"] = "degree diagnostics defined for odd dimension only"
    _write_report(doc, args)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capfold",
        description="Eigenvalue-bound verification toolkit for planar domains and spheres",
    )
    parser.add_argument("--config", help="key=value config file merged under flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="write the JSON/CSV report here")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="report format where a tabular form exists",
        )

    p = sub.add_parser("constants", help="closed-form constants and bound ratios")
    p.add_argument("--n", type=int, help="sphere dimension for the ratio report")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("renormalize", help="balancing point of a measure JSON")
    p.add_argument("measure")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_renormalize)

    p = sub.add_parser("rearrange", help="fold and rearrange a measure JSON")
    p.add_argument("measure")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--angle", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_rearrange)

    p = sub.add_parser("scan", help="direction field and multiple-cap scan (CSV)")
    p.add_argument("domain")
    p.add_argument("--n-r", type=int, default=96)
    p.add_argument("--n-theta", type=int, default=192)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("certify", help="planar eigenvalue-bound certificate")
    p.add_argument("domain")
    p.add_argument("--n-r", type=int, default=96)
    p.add_argument("--n-theta", type=int, default=192)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fem", help="Neumann eigenvalues of one meshed domain")
    p.add_argument("spec", help="disk | square | rectangle:AxB | two_disks:EPS,LEN | JSON")
    p.add_argument("--h", type=float, default=0.02)
    p.add_argument("--k", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_fem)

    p = sub.add_parser("corpus", help="sweep a JSON list of domain specs")
    p.add_argument("specs")
    p.add_argument("--h", type=float, default=0.02)
    common(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("sphere", help="sphere-side constants, degrees, quotient")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--resolution", type=int, default=16)
    common(p)
    p.set_defaults(func=cmd_sphere)
    return parser


def _cast_like(value: str, current):
    if isinstance(current, bool):
        return value.lower() in ("1", "true", "yes")
    if isinstance(current, int):
        return int(value)
    if isinstance(current, float):
        return float(value)
    try:
        return int(value)
    except ValueError:
        try:
            return float(value)
        except ValueError:
            return value


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.config:
        try:
            file_conf = _load_config_file(args.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        for key, value in file_conf.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr) or attr in ("func", "command", "config"):
                print(f"error: unknown config key {key!r}", file=sys.stderr)
                return USAGE_ERROR
            flag = "--" + key.replace("_", "-")
            explicit = any(
                tok == flag or tok.startswith(flag + "=") for tok in argv
            )
            if not explicit:
                setattr(args, attr, _cast_like(value, getattr(args, attr)))
    try:
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
