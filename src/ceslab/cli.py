"""Command-line front end: verification, bound checks, sweeps, norm tables.

Subcommands
-----------
verify   backward-error check of the closed-form resolvent at one lambda
bounds   entrywise bound scans / product profiles / the disk equivalence
sweep    lambda-grid sweep writing CSV or JSON records
norms    norm table of the averaging matrix across spaces and sizes

Exit codes: 0 success (bound holds / residual small), 1 operational error
(running out of memory included), 2 precondition or regime violation (a
size below a command's minimum included).
"""

import argparse
import functools
import json
import logging
import math
import sys

from .bounds import (
    BOUND_KINDS,
    check_entry_bounds,
    comparison_matrix_report,
    gamma_circle_point,
    profile_report,
    remark41_report,
)
from .errors import (
    CeslabError,
    InvalidConfigError,
    InvalidDimensionError,
    LambdaInSigmaZeroError,
    UnsupportedExponentError,
    UnsupportedParameterError,
    WrongRegimeError,
)
from .resolvent import alpha_of, gamma, residual
from .spaces import parse_space
from .spectra import GridSpec, classify_growth, operator_norm_report, sweep
from .triangular import cesaro_matrix

__all__ = ["main", "parse_complex", "format_float"]

logger = logging.getLogger(__name__)

# verify passes when the normwise backward error is at most this many n eps
RESIDUAL_PASS_NEPS = 8

# The fields of a sweep record: the CSV columns in order and the JSON keys.
RECORD_FIELDS = tuple(
    "lambda_re,lambda_im,n,gamma,op_norm_est,reg_norm_est,in_disk,verdict".split(",")
)

# Errors of a precondition or a regime exit 2; every other error exits 1.
_PRECONDITION_ERRORS = (
    InvalidDimensionError,
    LambdaInSigmaZeroError,
    WrongRegimeError,
    UnsupportedExponentError,
    UnsupportedParameterError,
)


def parse_complex(text):
    """Parse "a+bi" / "a-bi" (or Python's "a+bj") with optional whitespace and exponents."""
    s = "".join(str(text).split())
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        value = complex(s)
    except ValueError:
        raise InvalidConfigError(f"cannot parse complex number {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InvalidConfigError(f"complex literal {text!r} is not finite")
    return value


def format_float(x):
    """17 significant digits: enough for exact binary round-trip."""
    return f"{float(x):.17g}"


def _parse_sizes(text):
    try:
        sizes = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise InvalidConfigError(f"cannot parse sizes {text!r}") from None
    if not sizes:
        raise InvalidConfigError(f"no sizes in {text!r}")
    return sizes


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args):
    lam = parse_complex(args.lam)
    r = residual(lam, args.n)  # refuses a lambda at a pole
    threshold = RESIDUAL_PASS_NEPS * args.n * sys.float_info.epsilon
    print(f"lambda   = {format_float(lam.real)} + {format_float(lam.imag)}i")
    print(f"n        = {args.n}")
    print(f"gamma    = {format_float(gamma(lam))}")
    print(f"alpha    = {format_float(alpha_of(lam))}")
    print(f"residual = {format_float(r)}")
    if r <= threshold:
        print(f"PASS (residual <= {RESIDUAL_PASS_NEPS} n eps = {threshold:.3g})")
        return 0
    print(f"FAIL (residual > {RESIDUAL_PASS_NEPS} n eps = {threshold:.3g})")
    return 1


# ---------------------------------------------------------------------------
# bounds


def _cmd_bounds(args):
    kind = args.kind
    if kind == "remark41":
        if args.lam is None:
            raise InvalidConfigError("remark41 needs --lambda")
        report = remark41_report(parse_complex(args.lam), args.b)
    elif kind == "profile_38":
        if args.lam is None:
            raise InvalidConfigError("profile_38 needs --lambda")
        report = profile_report(parse_complex(args.lam), args.n)
    elif kind in ("rowsum_46", "collimit_49") and args.lam is None:
        if args.alpha is None:
            raise InvalidConfigError(f"kind {kind} needs --lambda or --alpha")
        report = comparison_matrix_report(kind, args.alpha, args.n)
    else:
        if args.lam is not None:
            lam = parse_complex(args.lam)
        elif args.alpha is not None:
            if kind == "gamma_56":
                lam = gamma_circle_point(args.alpha, args.t)
            elif args.alpha != 0:
                lam = complex(1.0 / args.alpha)
            else:
                raise InvalidConfigError(f"kind {kind} needs --lambda when alpha = 0")
        else:
            raise InvalidConfigError(f"kind {kind} needs --lambda or --alpha")
        report = check_entry_bounds(lam, args.n, kind)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["holds"] else 1


# ---------------------------------------------------------------------------
# sweep


def _read_config_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise InvalidConfigError(f"{path}: config file is not UTF-8 text") from None
    values, fields = {}, dict(_SWEEP_FIELDS)
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in fields:
            raise InvalidConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


_SWEEP_FIELDS = (
    ("space", str),
    ("re_min", float),
    ("re_max", float),
    ("im_min", float),
    ("im_max", float),
    ("step", float),
    ("sizes", str),
    ("seed", int),
    ("output", str),
    ("format", str),
)

_SWEEP_DEFAULTS = {"seed": 0, "output": "-", "format": "csv"}


def _sweep_settings(args):
    config = _read_config_file(args.config) if args.config else {}
    settings = {}
    for name, cast in _SWEEP_FIELDS:
        flag = getattr(args, name)
        if flag is not None:
            settings[name] = flag  # flags override the config file
        elif name in config:
            try:
                settings[name] = cast(config[name])
            except ValueError:
                raise InvalidConfigError(
                    f"config value {name} = {config[name]!r} is not a {cast.__name__}"
                ) from None
        elif name in _SWEEP_DEFAULTS:
            settings[name] = _SWEEP_DEFAULTS[name]
        else:
            raise InvalidConfigError(f"sweep needs {name} (flag or config file)")
    return settings


def _record_rows(records):
    """Each record as a dict over RECORD_FIELDS, with its lambda's verdict."""
    by_lambda = {}
    for rec in records:
        by_lambda.setdefault(rec.lam, []).append(rec)
    verdicts = {
        lam: classify_growth(group).verdict if len(group) >= 2 else "inconclusive"
        for lam, group in by_lambda.items()
    }
    rows = []
    for rec in records:
        values = (rec.lam.real, rec.lam.imag, rec.n, rec.gamma, rec.op_norm_est)
        values += (rec.reg_norm_est, rec.in_disk, verdicts[rec.lam])
        rows.append(dict(zip(RECORD_FIELDS, values)))
    return rows


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_float(value) if isinstance(value, float) else str(value)


def _render_csv(rows):
    lines = [",".join(RECORD_FIELDS)]
    lines += [",".join(_csv_cell(value) for value in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _render_json(rows):
    return json.dumps({"records": rows}, indent=2) + "\n"


def _cmd_sweep(args):
    settings = _sweep_settings(args)
    space = parse_space(settings["space"])
    sizes = _parse_sizes(settings["sizes"])
    fmt = settings["format"].lower()
    if fmt not in ("csv", "json"):
        raise InvalidConfigError(f"format must be csv or json, got {fmt!r}")
    grid = GridSpec(
        re_min=settings["re_min"],
        re_max=settings["re_max"],
        im_min=settings["im_min"],
        im_max=settings["im_max"],
        step=settings["step"],
    )
    records = sweep(space, grid, sizes, seed=int(settings["seed"]))
    rows = _record_rows(records)
    text = _render_csv(rows) if fmt == "csv" else _render_json(rows)
    output = settings["output"]
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        logger.info("wrote %d records to %s", len(rows), output)
    return 0


# ---------------------------------------------------------------------------
# norms


def _cmd_norms(args):
    sizes = _parse_sizes(args.sizes)
    spaces = [parse_space(tok) for tok in args.spaces.split(",") if tok.strip()]
    if not spaces:
        raise InvalidConfigError("no spaces given")
    table = []
    for n in sizes:
        C = cesaro_matrix(n)
        table.append([operator_norm_report(sp, C, args.seed).value for sp in spaces])
    if args.json:
        payload = {
            "sizes": sizes,
            "spaces": [sp.label() for sp in spaces],
            "norms": table,
        }
        print(json.dumps(payload, indent=2))
        return 0
    labels = [sp.label() for sp in spaces]
    width = max(12, max(len(lab) for lab in labels) + 2)
    print("n".rjust(8) + "".join(lab.rjust(width) for lab in labels))
    for n, row in zip(sizes, table):
        print(str(n).rjust(8) + "".join(f"{v:.6f}".rjust(width) for v in row))
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser():
    """The argument parser, built once per process and reused by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="ceslab",
        description="Finite-section checks for the discrete averaging operator",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="normwise backward error of the closed-form resolvent"
    )
    p_verify.add_argument("--lambda", dest="lam", required=True, help='complex "a+bi"')
    p_verify.add_argument("--n", type=int, default=256, help="truncation size")
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="entrywise bound scans and reports")
    p_bounds.add_argument(
        "--kind",
        required=True,
        choices=list(BOUND_KINDS) + ["profile_38", "remark41"],
    )
    p_bounds.add_argument("--lambda", dest="lam", help='complex "a+bi"')
    p_bounds.add_argument("--alpha", type=float, help="circle parameter Re(1/lambda)")
    p_bounds.add_argument("--t", type=float, default=1.0, help="circle coordinate")
    p_bounds.add_argument("--b", type=float, default=1.0, help="disk diameter (remark41)")
    p_bounds.add_argument("--n", type=int, default=1000, help="truncation size")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="lambda-grid resolvent-norm sweep")
    p_sweep.add_argument("--config", help="flat key = value config file")
    p_sweep.add_argument("--space", help="lp:P, linf, c0, ces:P or ces0")
    p_sweep.add_argument("--re-min", dest="re_min", type=float)
    p_sweep.add_argument("--re-max", dest="re_max", type=float)
    p_sweep.add_argument("--im-min", dest="im_min", type=float)
    p_sweep.add_argument("--im-max", dest="im_max", type=float)
    p_sweep.add_argument("--step", type=float)
    p_sweep.add_argument("--sizes", help="comma-separated ascending sizes")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--output", help='output path, "-" for stdout')
    p_sweep.add_argument("--format", choices=["csv", "json"])
    p_sweep.set_defaults(func=_cmd_sweep)

    p_norms = sub.add_parser("norms", help="norm table of the averaging matrix")
    p_norms.add_argument("--sizes", default="64,256", help="comma-separated sizes")
    p_norms.add_argument(
        "--spaces", default="lp:2,linf,ces:2,ces0", help="comma-separated space labels"
    )
    p_norms.add_argument("--seed", type=int, default=0)
    p_norms.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_norms.set_defaults(func=_cmd_norms)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (CeslabError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(exc, _PRECONDITION_ERRORS) else 1

if __name__ == "__main__":
    sys.exit(main())
