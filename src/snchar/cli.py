"""Command line surface: every computation and sweep, machine readable.

Exit status: 0 on success, 1 when a verification sweep finds mismatches or a
bound fails to certify, 2 on usage or validation errors, 3 on an internal
error (a failed consistency check inside the package). All numeric output
is exact (decimal strings, surd syntax); only bound reports carry rounded
decimals, and those are labeled with their working precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds as bounds_mod
from .characters_an import MINUS, PLUS, RESTRICTED, AnCharacterLabel, chi_an, is_split
from .characters_sn import chi, degree, full_table
from .classify import verify_eigenvalue_one, verify_minpoly_an, verify_minpoly_sn
from .partitions import CycleType, Partition, parse_cycle_type, parse_partition
from .spectral import fixed_space_dim, min_poly, spectrum_an, spectrum_sn

__all__ = ["main"]


def _parse_lam(args) -> Partition:
    lam = parse_partition(args.lam)
    if args.n is not None and lam.n != args.n:
        raise ValueError(f"--n {args.n} does not match |lambda| = {lam.n}")
    return lam


def _parse_shape(args, n: int) -> CycleType:
    ct = parse_cycle_type(args.shape)
    if ct.n != n:
        raise ValueError(f"shape moves {ct.n} points but the partition has {n}")
    return ct


def _an_labels(lam: Partition, variant: str | None) -> list[AnCharacterLabel]:
    """The labels a query addresses: one, or both halves of a split pair."""
    if variant is None:
        if is_split(lam):
            return list(AnCharacterLabel.split_pair(lam))
        return [AnCharacterLabel.restricted(lam)]
    return [AnCharacterLabel(lam, variant)]


def _emit(args, obj: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(text)


def _cmd_char(args) -> int:
    lam = _parse_lam(args)
    sigma = _parse_shape(args, lam.n)
    if args.group == "sn":
        value = chi(lam, sigma)
        _emit(args, {"group": "sn", "lambda": str(lam), "shape": str(sigma), "value": str(value)}, str(value))
        return 0
    labels = _an_labels(lam, args.variant)
    rows = []
    lines = []
    for label in labels:
        value = chi_an(label, sigma)
        rows.append({"label": str(label), "value": value.to_json_dict(), "rendered": str(value)})
        lines.append(f"{label} {value}" if len(labels) > 1 else str(value))
    _emit(args, {"group": "an", "lambda": str(lam), "shape": str(sigma), "values": rows}, "\n".join(lines))
    return 0


def _cmd_degree(args) -> int:
    lam = _parse_lam(args)
    d = degree(lam)
    _emit(args, {"lambda": str(lam), "degree": str(d)}, str(d))
    return 0


def _cmd_table(args) -> int:
    table = full_table(args.n, limit=args.limit)
    if args.format == "json":
        print(table.to_json())
    elif args.format == "csv":
        print(table.to_csv(), end="")
    else:
        heads = ["partition"] + [str(c) for c in table.classes]
        rows = [[str(lam)] + [str(v) for v in row] for lam, row in zip(table.partitions, table.values)]
        widths = [max(len(r[i]) for r in [heads] + rows) for i in range(len(heads))]
        for r in [heads] + rows:
            print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return 0


def _cmd_spectrum(args) -> int:
    lam = _parse_lam(args)
    sigma = _parse_shape(args, lam.n)
    if args.group == "sn":
        profile = spectrum_sn(lam, sigma)
        text = f"r={profile.r} degree={profile.degree} mult=" + ",".join(map(str, profile.mult))
        _emit(args, {"group": "sn", "lambda": str(lam), "shape": str(sigma), **profile.to_json_dict()}, text)
        return 0
    rows = []
    lines = []
    for label in _an_labels(lam, args.variant):
        profile = spectrum_an(label, sigma)
        rows.append({"label": str(label), **profile.to_json_dict()})
        lines.append(f"{label} r={profile.r} degree={profile.degree} mult=" + ",".join(map(str, profile.mult)))
    _emit(args, {"group": "an", "lambda": str(lam), "shape": str(sigma), "spectra": rows}, "\n".join(lines))
    return 0


def _cmd_minpoly(args) -> int:
    lam = _parse_lam(args)
    sigma = _parse_shape(args, lam.n)
    if args.group == "sn":
        poly = min_poly(spectrum_sn(lam, sigma))
        _emit(args, {"group": "sn", "lambda": str(lam), "shape": str(sigma), **poly.to_json_dict()}, poly.rendered)
        return 0
    labels = _an_labels(lam, args.variant)
    rows = []
    lines = []
    for label in labels:
        poly = min_poly(spectrum_an(label, sigma))
        rows.append({"label": str(label), **poly.to_json_dict()})
        lines.append(f"{label} {poly.rendered}" if len(labels) > 1 else poly.rendered)
    _emit(args, {"group": "an", "lambda": str(lam), "shape": str(sigma), "minpolys": rows}, "\n".join(lines))
    return 0


def _cmd_fixdim(args) -> int:
    lam = _parse_lam(args)
    sigma = _parse_shape(args, lam.n)
    dim = fixed_space_dim(lam, sigma)
    _emit(args, {"lambda": str(lam), "shape": str(sigma), "fixdim": str(dim)}, str(dim))
    return 0


# --check name: (the argument it needs, the bounds function, whether that takes bits);
# functions are looked up by name on each call, so a rebound bounds attribute is what runs
_BOUND_CHECKS = {
    "fomin-lulov": ("shape", "fomin_lulov_check", True),
    "estimate": ("shape", "estimate_check", True),
    "robbins": ("n", "robbins_check", True),
    "tail": ("n", "tail_inequalities_check", True),
    "min-degree": ("n", "min_degree_check", False),
    "sweep-fomin-lulov": ("max_n", "sweep_fomin_lulov", True),
    "sweep-estimate": ("max_n", "sweep_estimate", True),
    "sweep-robbins": ("max_n", "sweep_robbins", True),
    "sweep-tail": ("max_n", "sweep_tail", True),
}


def _precision_bits(args) -> int:
    if args.precision_bits is not None:
        return args.precision_bits
    raw = os.environ.get("SNCHAR_PRECISION_BITS", str(bounds_mod.DEFAULT_PRECISION_BITS))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SNCHAR_PRECISION_BITS must be an integer, got {raw!r}") from None


def _cmd_bounds(args) -> int:
    needs, name, takes_bits = _BOUND_CHECKS[args.check]
    if needs == "shape":
        if args.lam is None or args.shape is None:
            raise ValueError("this check needs --lambda and --shape")
        lam = _parse_lam(args)
        ct = parse_cycle_type(args.shape)
        if len(ct.cycles) != 1:
            raise ValueError(f"bound checks need a uniform shape r^m, got {ct}")
        positional = (lam, *ct.cycles[0])
    elif getattr(args, needs) is None:
        raise ValueError("this check needs --n" if needs == "n" else "sweeps need --max-n")
    else:
        positional = (getattr(args, needs),)
    kwargs = {"bits": _precision_bits(args)} if takes_bits else {}
    result = getattr(bounds_mod, name)(*positional, **kwargs)
    reports = result if needs == "max_n" else [result]
    ok = all(rep.holds for rep in reports)
    if args.format == "json":
        print(json.dumps([rep.to_json_dict() for rep in reports], sort_keys=True, indent=2))
    else:
        for rep in reports:
            if len(reports) == 1 or not rep.holds:
                for c in rep.clauses:
                    state = "holds" if c.holds else "FAILS"
                    print(f"{rep.check} {rep.context} [{c.name}] lhs={c.lhs} rhs={c.rhs} margin={c.margin}: {state}")
        verdict = "all hold" if ok else "FAILURES above"
        print(f"{len(reports)} report(s): {verdict}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    runners = {
        "minpoly-sn": verify_minpoly_sn,
        "minpoly-an": verify_minpoly_an,
        "eigenvalue-one": verify_eigenvalue_one,
    }
    fn = runners[args.subject]
    kwargs = {"threads": args.threads}
    if args.min_n is not None:
        kwargs["min_n"] = args.min_n
    report = fn(args.max_n, **kwargs)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    else:
        print(f"{report.kind} n={report.n_min}..{report.n_max}: {report.cases} cases, "
              f"{len(report.mismatches)} mismatches, {len(report.exceptional)} exceptional")
        for entry in report.mismatches:
            print("mismatch:", *entry)
        for entry in report.exceptional:
            print("exceptional:", *entry)
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snchar",
        description="Exact characters, spectra, and minimal polynomials for symmetric and alternating groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *, shape: bool = True, group: bool = True) -> None:
        p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. '3,3' or '2^2,1^3'")
        p.add_argument("--n", type=int, default=None, help="optional cross check of the point count")
        if shape:
            p.add_argument("--shape", required=True, help="cycle type, e.g. '6^1' or '3^1 2^1 1^1'")
        if group:
            p.add_argument("--group", choices=("sn", "an"), default="sn")
            p.add_argument("--variant", choices=(RESTRICTED, PLUS, MINUS), default=None,
                           help="alternating label variant; split pairs print both halves by default")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("char", help="one character value")
    common(p)
    p.set_defaults(handler=_cmd_char)

    p = sub.add_parser("degree", help="degree by the hook length formula")
    common(p, shape=False, group=False)
    p.set_defaults(handler=_cmd_degree)

    p = sub.add_parser("table", help="full character table of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, default=16, help="guard for memo growth")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("spectrum", help="eigenvalue multiplicities of a permutation image")
    common(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("minpoly", help="minimal polynomial of a permutation image")
    common(p)
    p.set_defaults(handler=_cmd_minpoly)

    p = sub.add_parser("fixdim", help="dimension of the fixed subspace")
    common(p, group=False)
    p.set_defaults(handler=_cmd_fixdim)

    p = sub.add_parser("bounds", help="certified inequality checks")
    p.add_argument("--check", required=True, choices=tuple(_BOUND_CHECKS))
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--shape", default=None, help="uniform shape r^m for the character bounds")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--precision-bits", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", help="exhaustive classification sweeps")
    p.add_argument("subject", choices=("minpoly-sn", "minpoly-an", "eigenvalue-one"))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--min-n", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
