"""Command line surface: every computation and sweep, machine readable.

Exit status: 0 on success, 1 when a verification sweep finds mismatches or a
bound fails to certify, 2 on usage or validation errors, when memory runs
out and when stdout is closed before all output is written (a reader such as
head that stops early), 3 on an internal error (a failed consistency check
inside the package).
All numeric output is exact (decimal strings, surd syntax); only bound
reports carry rounded decimals, and those are labeled with their working
precision.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

# the other library modules are imported by the handlers that call them, and
# json by its writer, so a query compiles and runs only what it uses
from .characters_sn import chi, degree, full_table
from .partitions import CycleType, Partition, parse_cycle_type, parse_partition

__all__ = ["main"]

# characters_an.RESTRICTED, PLUS and MINUS, spelled out so that parsing imports nothing
_VARIANTS = ("restricted", "plus", "minus")


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


def _an_labels(lam: Partition, variant: str | None) -> list:
    """The labels a query addresses: one, or both halves of a split pair."""
    from .characters_an import AnCharacterLabel, is_split

    if variant is None:
        if is_split(lam):
            return list(AnCharacterLabel.split_pair(lam))
        return [AnCharacterLabel.restricted(lam)]
    return [AnCharacterLabel(lam, variant)]


def _check_listed(what: str, sigma: CycleType) -> None:
    from .spectral import MAX_LISTED_R

    r = sigma.order()
    if r > MAX_LISTED_R:
        raise ValueError(f"{what} lists one entry per r-th root of unity, and class {sigma} has order "
                         f"r = {r} > MAX_LISTED_R = {MAX_LISTED_R}; use minpoly (text format) or fixdim")


def _by_id(values: tuple, form):
    """form of each item of values, a held tuple that repeats a few objects (a profile's mult, at
    most two per divisor of r): each object is formatted once, by id, as the tuple keeps it alive."""
    text = {key: form(value) for key, value in {id(value): value for value in values}.items()}
    return map(text.__getitem__, map(id, values))


def _write_joined(texts, sep: str, first: str = "") -> bool:
    """Write first and the strings texts joined by sep, a slice at a time, so that they are never
    held whole; for no texts, write nothing and return False."""
    wrote = False
    while chunk := list(islice(texts, 256)):
        sys.stdout.write((sep if wrote else first) + sep.join(chunk))
        wrote = True
    return wrote


def _write_json(obj) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) and a newline, where a SpectrumProfile stands
    for the list of its mult and any iterator for the list of its items, each written by _write_joined."""
    import json

    held = []
    # each stand-in becomes a NUL string, which json escapes and no other value of obj holds
    pieces = json.dumps(obj, sort_keys=True, indent=2, default=lambda o: held.append(o) or "\0").split('"\\u0000"')
    sys.stdout.write(pieces[0])
    for stand_in, before, after in zip(held, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        indent = "\n" + " " * (len(line) - len(line.lstrip(" ")))  # the stand-in's line; its items sit 2 deeper

        def form(item, inner=indent + "  "):
            return json.dumps(item, sort_keys=True, indent=2).replace("\n", inner)

        texts = _by_id(stand_in.mult, form) if hasattr(stand_in, "mult") else map(form, stand_in)
        wrote = _write_joined(texts, "," + indent + "  ", "[" + indent + "  ")
        sys.stdout.write((indent + "]" if wrote else "[]") + after)
    sys.stdout.write("\n")


def _emit(args, payload, text: str) -> None:
    """Print text, or for --format json the dict payload() builds; only then is it built."""
    if args.format == "json":
        _write_json(payload())
    else:
        print(text)


def _cmd_char(args) -> int:
    lam = _parse_lam(args)
    sigma = _parse_shape(args, lam.n)
    if args.group == "sn":
        value = chi(lam, sigma)
        _emit(args, lambda: {"group": "sn", "lambda": str(lam), "shape": str(sigma), "value": str(value)}, str(value))
        return 0
    from .characters_an import chi_an

    labels = _an_labels(lam, args.variant)
    rows = []
    lines = []
    for label in labels:
        value = chi_an(label, sigma)
        rows.append({"label": str(label), "value": value.to_json_dict(), "rendered": str(value)})
        lines.append(f"{label} {value}" if len(labels) > 1 else str(value))
    _emit(args, lambda: {"group": "an", "lambda": str(lam), "shape": str(sigma), "values": rows}, "\n".join(lines))
    return 0


def _cmd_degree(args) -> int:
    lam = _parse_lam(args)
    d = degree(lam)
    _emit(args, lambda: {"lambda": str(lam), "degree": str(d)}, str(d))
    return 0


def _cmd_table(args) -> int:
    table = full_table(args.n)
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
    from .spectral import spectrum_an, spectrum_sn

    def print_mult(head: str, profile) -> None:
        _write_joined(_by_id(profile.mult, str), ",", head)  # a mult lists at least one value
        sys.stdout.write("\n")

    lam = _parse_lam(args)
    sigma = _parse_shape(args, lam.n)
    _check_listed("spectrum", sigma)
    # in JSON, each profile stands for its mult list, which _write_json formats one distinct value at a time
    if args.group == "sn":
        profile = spectrum_sn(lam, sigma)
        if args.format == "json":
            _write_json({"group": "sn", "lambda": str(lam), "shape": str(sigma), "r": profile.r,
                         "degree": profile.degree, "mult": profile})
        else:
            print_mult(f"r={profile.r} degree={profile.degree} mult=", profile)
        return 0
    profiles = [(label, spectrum_an(label, sigma)) for label in _an_labels(lam, args.variant)]
    if args.format == "json":
        _write_json({"group": "an", "lambda": str(lam), "shape": str(sigma),
                     "spectra": [{"label": str(label), "r": profile.r, "degree": profile.degree, "mult": profile}
                                 for label, profile in profiles]})
    else:
        for label, profile in profiles:
            print_mult(f"{label} r={profile.r} degree={profile.degree} mult=", profile)
    return 0


def _cmd_minpoly(args) -> int:
    from .spectral import min_poly, spectrum_an, spectrum_sn

    lam = _parse_lam(args)
    sigma = _parse_shape(args, lam.n)
    if args.format == "json":
        _check_listed("minpoly --format json", sigma)
    if args.group == "sn":
        poly = min_poly(spectrum_sn(lam, sigma))
        _emit(args, lambda: {"group": "sn", "lambda": str(lam), "shape": str(sigma), **poly.to_json_dict()},
              poly.rendered)
        return 0
    labels = _an_labels(lam, args.variant)
    polys = [(label, min_poly(spectrum_an(label, sigma))) for label in labels]
    lines = [f"{label} {poly.rendered}" if len(labels) > 1 else poly.rendered for label, poly in polys]
    _emit(args,
          lambda: {"group": "an", "lambda": str(lam), "shape": str(sigma),
                   "minpolys": [{"label": str(label), **poly.to_json_dict()} for label, poly in polys]},
          "\n".join(lines))
    return 0


def _cmd_fixdim(args) -> int:
    from .spectral import fixed_space_dim

    lam = _parse_lam(args)
    sigma = _parse_shape(args, lam.n)
    dim = fixed_space_dim(lam, sigma)
    _emit(args, lambda: {"lambda": str(lam), "shape": str(sigma), "fixdim": str(dim)}, str(dim))
    return 0


# --check name: (the argument it needs, the bounds function or for a sweep its kind, whether that
# takes bits); functions are looked up by name on each call, so a rebound bounds attribute is what runs
_BOUND_CHECKS = {
    "fomin-lulov": ("shape", "fomin_lulov_check", True),
    "estimate": ("shape", "estimate_check", True),
    "robbins": ("n", "robbins_check", True),
    "tail": ("n", "tail_inequalities_check", True),
    "min-degree": ("n", "min_degree_check", False),
    "sweep-fomin-lulov": ("max_n", "fomin-lulov", True),
    "sweep-estimate": ("max_n", "estimate", True),
    "sweep-robbins": ("max_n", "robbins", True),
    "sweep-tail": ("max_n", "tail", True),
}


def _cmd_bounds(args) -> int:
    from . import bounds

    needs, name, takes_bits = _BOUND_CHECKS[args.check]
    if args.precision_bits is not None and not takes_bits:
        raise ValueError(f"--check {args.check} is exact and takes no --precision-bits")
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
    kwargs = {} if args.precision_bits is None else {"bits": args.precision_bits}
    reports = iter(bounds._sweep_reports(name, args.max_n, **kwargs) if needs == "max_n"  # one n at a time
                   else [getattr(bounds, name)(*positional, **kwargs)])
    ahead = list(islice(reports, 2))  # a lone report is printed whole, holding or not
    count, ok = 0, True

    def tallied():
        nonlocal count, ok
        for count, rep in enumerate(chain(ahead, reports), 1):
            ok &= rep.holds
            yield rep

    if args.format == "json":
        _write_json(rep.to_json_dict() for rep in tallied())
    else:
        for rep in tallied():
            if not rep.holds or len(ahead) == 1:
                for c in rep.clauses:
                    state = "holds" if c.holds else "FAILS"
                    print(f"{rep.check} {rep.context} [{c.name}] lhs={c.lhs} rhs={c.rhs} margin={c.margin}: {state}")
        print(f"{count} report(s): {'all hold' if ok else 'FAILURES above'}")
    return 0 if ok else 1


# verify subject: the classify function that sweeps it, looked up by name on each call as _BOUND_CHECKS
_VERIFY_SUBJECTS = {"minpoly-sn": "verify_minpoly_sn", "minpoly-an": "verify_minpoly_an",
                    "eigenvalue-one": "verify_eigenvalue_one"}


def _cmd_verify(args) -> int:
    from . import classify

    kwargs = {"threads": args.threads}
    if args.min_n is not None:
        kwargs["min_n"] = args.min_n
    report = getattr(classify, _VERIFY_SUBJECTS[args.subject])(args.max_n, **kwargs)
    if args.format == "json":
        _write_json(report.to_json_dict())
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
            p.add_argument("--variant", choices=_VARIANTS, default=None,
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
    p.add_argument("subject", choices=tuple(_VERIFY_SUBJECTS))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--min-n", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "variant", None) is not None and args.group != "an":
            raise ValueError("--variant names an alternating group label; it needs --group an")
        status = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return status
    except BrokenPipeError:
        # the reader is gone: what stdout still buffers goes to devnull, so the flush at exit cannot raise again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large for this machine", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
