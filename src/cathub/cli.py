"""Command-line sweeps over the heralding pipeline, emitted as CSV.

Five subcommands: fidelity-sweep, prob-sweep, meanphoton-sweep,
detector-report, oracle-check.  All CSV output is deterministic: fixed
grid ordering, fixed significant-digit formatting, header always present,
so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 numeric/domain error, 3 oracle
check failure.
"""

import argparse
import functools
import math
import sys

from .cats import _check_subtracted, mean_photon, optimal_y
from .detector import _first_order, lossy_fidelity_exact, reduction_factor
from .errors import DomainError, TruncationError, _check_count, _check_unit
from .fock import parity_of
from .hub import HubConfig, Outcome, chain_transmission
from .probabilities import joint_success_prob


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures through our exit-code convention; a type that
    # raises _UsageError itself passes through argparse untouched
    def error(self, message):
        raise _UsageError(message)


def _gated(kind, gate):
    """argparse type: kind, then gate on the value or each list entry; DomainError is a usage error."""

    def parse(text: str):
        value = kind(text)
        try:
            for entry in value if isinstance(value, list) else (value,):
                gate(entry)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _bounded(kind, low, high=math.inf):
    """argparse type: parse the flag with kind and require a finite low <= value <= high."""

    def gate(value):
        # nan fails the comparison; inf passes it when high is inf
        if not low <= value <= high or value == math.inf:
            raise DomainError(f"must be finite and lie in [{low}, {high}], got {value}")

    return _gated(kind, gate)


# most points a start:stop:step range may expand to
_GRID_CAP = 100_000


def _parse_floats(text: str) -> list:
    """Comma list ("0.9,0.95") or inclusive range ("0.5:6:0.25")."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise _UsageError(f"range must be start:stop:step, got {text!r}")
            start, stop, step = (float(p) for p in parts)
            if step <= 0.0 or stop < start:
                raise _UsageError(f"empty or backwards range: {text!r}")
            span = (stop - start) / step + 1e-9
            if not span < _GRID_CAP:  # also rejects inf and nan
                raise _UsageError(f"range {text!r} has more than {_GRID_CAP} points")
            vals = [round(start + i * step, 12) for i in range(int(span) + 1)]
        else:
            vals = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad numeric list {text!r}: {exc}") from exc
    if not vals:
        raise _UsageError(f"empty grid: {text!r}")
    return vals


def _parse_ints(text: str) -> list:
    try:
        vals = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad integer list {text!r}: {exc}") from exc
    if not vals:
        raise _UsageError(f"empty list: {text!r}")
    return vals


def _parse_counts(text: str) -> list:
    """Detector patterns: ';'-separated, each 'n1,n2' (two taps) or 'n' (one)."""
    out = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        counts = tuple(_parse_ints(entry))
        if len(counts) not in (1, 2):
            raise _UsageError(f"count pattern must have 1 or 2 entries: {entry!r}")
        out.append(counts)
    if not out:
        raise _UsageError(f"empty counts list: {text!r}")
    return out


def _fmt(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return "%.*g" % (precision, value)


def _write_csv(path: str, header, rows, precision: int) -> None:
    body = [",".join(_fmt(cell, precision) for cell in row) for row in rows]
    _write_lines(path, [",".join(header)] + body)


def _write_lines(path: str, lines) -> None:
    data = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(data)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(data)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def _map_tasks(func, tasks, workers: int) -> list:
    # pool.map keeps submission order, so grid order survives parallelism
    if workers <= 1:
        return [func(task) for task in tasks]
    # imported here so that runs starting no pool never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, tasks))


def _fidelity_row(task):
    parity, n, beta = task
    res = optimal_y(parity, n, beta)
    return (parity, n, beta, res.y_star, res.fidelity, res.evaluations)


def _meanphoton_row(task):
    parity, n, beta = task
    res = optimal_y(parity, n, beta)
    mean_n = mean_photon(parity, n, res.y_star)
    return (parity, n, beta, res.y_star, mean_n, beta * beta)


def cmd_optimum_sweep(args) -> int:
    """fidelity-sweep and meanphoton-sweep: one row per (N, beta) at optimal y."""
    try:
        for n in args.N:
            _check_subtracted(args.parity, n)
    except DomainError as exc:
        raise _UsageError(f"argument --N: {exc}") from None
    tasks = [(args.parity, n, beta) for n in args.N for beta in args.beta]
    rows = _map_tasks(args.row, tasks, args.workers)
    _write_csv(args.out, args.header, rows, args.precision)
    return 0


def _prob_row(task):
    t, beta, counts = task
    total = sum(counts)
    res = optimal_y(parity_of(total), total, beta)
    n1 = counts[0]
    n2 = counts[1] if len(counts) == 2 else None
    # herald point fixed by the fidelity optimum; the source squeezing must
    # reach it through the taps, which fails once tanh(s) would hit 1
    try:
        cfg = HubConfig.from_target_y(res.y_star, (t,) * len(counts))
    except DomainError:
        return (t, beta, n1, n2, res.y_star, math.nan, math.nan)
    prob = joint_success_prob(cfg, Outcome(counts)).to_float()
    return (t, beta, n1, n2, res.y_star, cfg.squeezing, prob)


def cmd_prob_sweep(args) -> int:
    tasks = [(t, beta, c) for t in args.t for beta in args.beta for c in args.counts]
    rows = _map_tasks(_prob_row, tasks, args.workers)
    header = ("t", "beta", "n1", "n2", "y2", "s_backsolved", "probability")
    _write_csv(args.out, header, rows, args.precision)
    return 0


def cmd_detector_report(args) -> int:
    ref = optimal_y("even", args.N, args.beta)
    rows = []
    summary = []
    for k in args.k:
        for t in args.t:
            rf = reduction_factor(chain_transmission((t,) * k), args.mean_n)
            first = _first_order(args.eta, rf)
            mult_exact = None
            try:
                cfg = HubConfig.from_target_y(ref.y_star, (t,) * k)
                exact = lossy_fidelity_exact(cfg, args.N, args.eta, args.beta)
                mult_exact = exact / ref.fidelity
            except DomainError:
                pass  # herald point out of reach, or nothing reflects at t = 1
            rows.append(
                (k, t, args.eta, args.mean_n, rf, first.multiplier, mult_exact, first.penalty)
            )
            summary.append(
                f"k={k} t={t:g}: reduction factor {rf:.4g}, "
                f"first-order multiplier {first.multiplier:.4g}"
                + (f", exact multiplier {mult_exact:.4g}" if mult_exact is not None else "")
            )
    header = ("k", "t", "eta", "mean_n", "reduction_factor", "multiplier_firstorder",
              "multiplier_exact", "tradeoff_penalty")
    _write_csv(args.out, header, rows, args.precision)
    print("\n".join(summary), file=sys.stderr)
    return 0


def cmd_oracle_check(args) -> int:
    from .oracle import equivalence_grid

    report = equivalence_grid(
        k_max=args.k, total_max=args.N, cutoff=args.cutoff,
        transmittances=tuple(args.t), squeezings=tuple(args.s),
    )
    lines = [
        f"cases checked: {report.cases}",
        f"worst fidelity deficit: {report.worst_fidelity_deficit:.3e} "
        f"at {report.worst_fidelity_case}",
        f"worst probability relative error: {report.worst_prob_rel_error:.3e} "
        f"at {report.worst_prob_case}",
        f"tolerance: {args.tolerance:.3e}",
        "result: PASS" if report.passed(args.tolerance) else "result: FAIL",
    ]
    _write_lines("-", lines)
    if args.out != "-":
        _write_lines(args.out, lines)
    return 0 if report.passed(args.tolerance) else 3


def _add_common(sub) -> None:
    sub.add_argument("--out", default="-", help="output path ('-' = stdout)")
    sub.add_argument("--config", default=None, help="key=value defaults file; flags override")
    sub.add_argument(
        "--workers", type=_bounded(int, 1), default=1,
        help="parallel workers for the fidelity, meanphoton and prob sweeps; ignored elsewhere",
    )
    sub.add_argument(
        "--precision", type=_bounded(int, 1, 17), default=12,
        help="significant digits in CSV output; oracle-check ignores it",
    )


_transmittances = _gated(_parse_floats, lambda t: _check_unit(t, "transmittance"))
_chain_lengths = _gated(_parse_ints, lambda k: _check_count(k, "splitter count", 1))
_efficiency = _gated(float, lambda eta: _check_unit(eta, "detector efficiency"))
_even_count = _gated(int, lambda n: _check_subtracted("even", n))


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="cathub",
        description="Sweep heralded-cat fidelities, probabilities and "
        "detector effects; emit deterministic CSV.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    for name, help_text, n_default, row, last in (
        ("fidelity-sweep", "optimal herald parameter per (N, beta)", "90",
         _fidelity_row, ("fidelity", "evaluations")),
        ("meanphoton-sweep", "mean photon number at optimal y", "10,20,40,90",
         _meanphoton_row, ("mean_n", "beta_sq")),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--parity", choices=("even", "odd"), default="even")
        p.add_argument("--N", type=_parse_ints, default=n_default, help="comma list of detected counts")
        p.add_argument("--beta", type=_parse_floats, default="0.5:6:0.25", help="target amplitude grid")
        _add_common(p)
        p.set_defaults(
            func=cmd_optimum_sweep, row=row, header=("parity", "N", "beta", "y_star") + last
        )

    p = sub.add_parser("prob-sweep", help="heralding probability at optimal y")
    p.add_argument("--t", type=_transmittances, default="0.8", help="comma list of tap transmittances")
    p.add_argument("--beta", type=_parse_floats, default="2:3:0.1", help="target amplitude grid")
    p.add_argument(
        "--counts",
        type=_gated(_parse_counts, Outcome),  # one Outcome per pattern
        default="10,10",
        help="';'-separated patterns, each 'n1,n2' or a single 'n'",
    )
    _add_common(p)
    p.set_defaults(func=cmd_prob_sweep)

    p = sub.add_parser("detector-report", help="loss factors and fidelity multipliers")
    p.add_argument("--t", type=_transmittances, default="0.9,0.95,0.98", help="tap transmittances")
    p.add_argument("--k", type=_chain_lengths, default="1,2", help="comma list of chain lengths")
    p.add_argument("--eta", type=_efficiency, default=0.98, help="detector efficiency")
    p.add_argument("--mean-n", type=_bounded(float, 0.0), default=35.0, help="pinned mean photons")
    p.add_argument("--N", type=_even_count, default=90, help="reference detected count")
    p.add_argument("--beta", type=float, default=6.0, help="reference amplitude")
    _add_common(p)
    p.set_defaults(func=cmd_detector_report)

    p = sub.add_parser("oracle-check", help="brute-force equivalence certificate")
    p.add_argument("--k", type=_bounded(int, 1), default=3, help="max chain length")
    p.add_argument("--N", type=_bounded(int, 0), default=6, help="max total detected count")
    # out-of-range --t and --s are the library's DomainError (exit 2), not usage errors
    p.add_argument("--t", type=_parse_floats, default="0.7,0.8,0.9", help="tap transmittance set")
    p.add_argument("--s", type=_parse_floats, default="0.5,1.0", help="squeezing set")
    p.add_argument("--cutoff", type=_bounded(int, 1), default=40, help="stored state cutoff")
    p.add_argument("--tolerance", type=_bounded(float, 0.0), default=1e-9)
    _add_common(p)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def _config_tokens(path: str) -> list:
    toks = []
    try:
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _UsageError(f"config line is not key=value: {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key == "config":
                    raise _UsageError("config file cannot set 'config'")
                toks += [f"--{key}", value]
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    return toks


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # file-derived flags go right after the subcommand, so flags given
            # on the command line, which come later, win; every value in the
            # file is still parsed and bounded
            args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
        return args.func(args)
    except _UsageError as exc:
        print(f"cathub: usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, TruncationError) as exc:
        print(f"cathub: numeric/domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
