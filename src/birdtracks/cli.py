"""Command line front end.

Output is deterministic: the same configuration and seed produce
byte-identical output, and JSON payloads carry a "schema": "1" marker so
they can be re-parsed and compared as values.  JSON output has the bytes
json.dumps gives with indent=2.  It is streamed to stdout or --output in
pieces: a container the payload shares, such as a ket or a weight that
many table operators hold, is rendered to text once per depth, and the
containers around it are written item by item, so such a payload's text
never exists whole; a payload that shares nothing is written in one
piece.
Configuration problems, an --output path that cannot be written among
them, exit with code 2 and a machine-readable JSON error on stderr; failed
verification exits with code 1 the same way; success exits with 0.  A
reader that closes stdout early ends the run with code 1 and no stderr.

Every command is exact, `verify` and `correlator` included: none loads
numpy or starts BLAS threads.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .checks import CHECKS, run_checks
from .coefficients import RadicalCoefficient, RationalFunction
from .diagrams import format_cycles, inner_product
from .epsilon import (
    lr_decomposition,
    shape_dimension,
    transient_singlet_params,
)
from .errors import BirdtrackError
from .numeric import (
    _act_per_leg,
    _check_cap,
    integer_entries,
    sample_special_linear,
)
from .singlets import (
    SOURCES,
    _require_finite,
    basis_states,
    gram_matrix,
    singlet_count,
    singlet_table,
)
from .tracebasis import all_decompositions, normalized_trace_basis, raw_trace_states

SCHEMA = "1"


class ConfigError(Exception):
    """A bad flag value or combination, reported before any computation."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# -- rendering helpers --------------------------------------------------------

_encode = json.JSONEncoder().encode


def _scalar_json(value) -> str:
    """The text json.dumps gives for a scalar; str and int, by far the
    most common, go straight to the encoder's own C routines."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    return _encode(value)


_CONTAINERS = (dict, list, tuple)


def _sharing(value) -> tuple[set, set]:
    """The ids of the containers that occur more than once in value, and
    of the containers that hold one of those at any depth.

    Each container is walked once: a container met again is not entered,
    and the holders of all its occurrences are marked along the chain of
    first parents, which stops at a container already marked.
    """
    parent = {id(value): None}
    shared, holders = set(), set()
    stack = [value] if isinstance(value, _CONTAINERS) else []
    while stack:
        obj = stack.pop()
        here = id(obj)
        for child in obj.values() if isinstance(obj, dict) else obj:
            if not isinstance(child, _CONTAINERS):
                continue
            key = id(child)
            if key not in parent:
                parent[key] = here
                stack.append(child)
                continue
            shared.add(key)
            for node in (here, parent[key]):
                while node is not None and node not in holders:
                    holders.add(node)
                    node = parent[node]
    return shared, holders


def _write_json(value, write) -> None:
    """Pass write the text json.dumps gives for value with indent=2, in
    pieces; keys must be str.

    A container that occurs more than once in value, such as a ket or a
    weight shared by many operators, is rendered to text once per depth
    and memoized by (id, depth); the payload keeps every container alive,
    so no id is reused meanwhile.  A container that holds one is written
    item by item, and every other container is rendered to text in one
    go, so a payload that shares nothing is written whole.
    """
    shared, holders = _sharing(value)
    memo = {}

    def render(obj, depth):
        if not isinstance(obj, _CONTAINERS):
            return _scalar_json(obj)
        key = (id(obj), depth)
        text = memo.get(key)
        if text is None:
            pad = "\n" + "  " * (depth + 1)
            if isinstance(obj, dict):
                items = [_scalar_json(k) + ": " + render(v, depth + 1)
                         for k, v in obj.items()]
                ends = "{}"
            else:
                items = [render(v, depth + 1) for v in obj]
                ends = "[]"
            text = (ends[0] + pad + ("," + pad).join(items) + pad[:-2]
                    + ends[1]) if items else ends
            if key[0] in shared:
                memo[key] = text
        return text

    def stream(obj, depth):
        if id(obj) in shared or id(obj) not in holders:
            write(render(obj, depth))
            return
        pad = "\n" + "  " * (depth + 1)
        is_dict = isinstance(obj, dict)
        lead = "{" if is_dict else "["
        for item in obj.items() if is_dict else obj:
            if is_dict:
                write(lead + pad + _scalar_json(item[0]) + ": ")
                item = item[1]
            else:
                write(lead + pad)
            stream(item, depth + 1)
            lead = ","
        write(pad[:-2] + ("}" if is_dict else "]"))

    stream(value, 0)


def _frac_latex(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\tfrac{{{abs(x.numerator)}}}{{{x.denominator}}}"


def _poly_latex(coeffs) -> str:
    """Ascending coefficient sequence to a descending-power polynomial."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[power])
        if not c:
            continue
        if power == 0:
            terms.append(_frac_latex(c))
            continue
        base = "N" if power == 1 else f"N^{{{power}}}"
        if c == 1:
            terms.append(base)
        elif c == -1:
            terms.append(f"-{base}")
        else:
            terms.append(f"{_frac_latex(c)} {base}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _rf_latex(r: RationalFunction) -> str:
    num, den = r.monic()
    if len(den) == 1:
        return _poly_latex(num)
    return f"\\frac{{{_poly_latex(num)}}}{{{_poly_latex(den)}}}"


def _rad_latex(rc: RadicalCoefficient) -> str:
    if rc.is_zero():
        return "0"
    pieces = []
    for key in sorted(rc.terms):
        mult = _rf_latex(rc.terms[key])
        if list(key) == [1]:
            pieces.append(mult)
        else:
            pieces.append(f"{mult} \\sqrt{{{_poly_latex(key)}}}")
    return " + ".join(pieces)


def _eval_str(values: dict[int, Fraction], latex: bool = False) -> str:
    """An evaluated coefficient {radicand: rational} as text or LaTeX."""
    if not values:
        return "0"
    pieces = []
    for d in sorted(values):
        value = _frac_latex(values[d]) if latex else str(values[d])
        if d == 1:
            pieces.append(value)
        elif latex:
            pieces.append(f"{value} \\sqrt{{{d}}}")
        else:
            pieces.append(f"{value}*sqrt({d})")
    return " + ".join(pieces)


def _value_json(rc: RadicalCoefficient, at: int | None):
    if at is None:
        return rc.to_json()
    return [[d, str(v)] for d, v in sorted(rc.eval_at(at).items())]


def _value_text(rc: RadicalCoefficient, at: int | None) -> str:
    if at is None:
        return repr(rc)
    return _eval_str(rc.eval_at(at))


def _coefficient_table(element, caption: str) -> list[str]:
    lines = [f"% {caption}", "\\begin{tabular}{ll}",
             "cycles & coefficient \\\\", "\\hline"]
    for diag in sorted(element.terms, key=lambda d: d.perm):
        lines.append(f"${format_cycles(diag.perm)}$ & "
                     f"${_rad_latex(element.terms[diag])}$ \\\\")
    lines.append("\\end{tabular}")
    return lines


def _state_listing(states, labels, label_key: str, fmt: str,
                   headers: dict[str, str]) -> list:
    """JSON records, or text or LaTeX lines after headers[fmt], listing
    states with their norms.

    label_key names the label's field in the JSON records.
    """
    out = [headers[fmt]] if fmt in headers else []
    for i, (label, state) in enumerate(zip(labels, states)):
        norm = inner_product(state, state)
        if fmt == "json":
            out.append({"index": i, label_key: label,
                        "squared_norm": norm.to_json(),
                        "element": state.to_json()})
        elif fmt == "latex":
            out.extend(_coefficient_table(state, f"state {i} [{label}]"))
            out.append(f"$\\langle {i}|{i}\\rangle = {_rad_latex(norm)}$")
        else:
            out.append(f"state {i} [{label}]: squared norm {norm!r}")
            out.append(f"  {state!r}")
    return out


# -- commands -----------------------------------------------------------------
# Each reads the parsed arguments and returns (output, failure): the JSON
# payload or the lines of args.format.


def _cmd_basis(args):
    k, source = args.k, args.source
    states = basis_states(k, source)
    labels = ([d.to_text() for d in all_decompositions(k)]
              if source == "trace" else [str(i) for i in range(len(states))])
    listing = _state_listing(states, labels, "label", args.format, {
        "text": f"singlet basis for k={k}, source={source}: "
                f"{len(states)} state(s)",
        "latex": f"% singlet basis, k={k}, source={source}"})
    if args.format != "json":
        return listing, None
    return {"schema": SCHEMA, "command": "basis", "k": k, "source": source,
            "count": len(states), "states": listing}, None


def _cmd_gram(args):
    k, source = args.k, args.source
    states = basis_states(k, source)
    if args.N is not None:
        _require_finite(states, args.N, lambda i: f"{source} state {i}")
    gram = gram_matrix(states)
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "gram", "k": k,
                   "source": source,
                   "entries": [[_value_json(e, args.N) for e in row]
                               for row in gram]}
        if args.N is not None:
            payload["N"] = args.N
        return payload, None
    if args.format == "text":
        return [f"gram matrix for k={k}, source={source}"
                + (f", N={args.N}" if args.N is not None else "")] + [
            "  [" + ", ".join(_value_text(e, args.N) for e in row) + "]"
            for row in gram], None
    latex = ["\\begin{pmatrix}"]
    for row in gram:
        cells = (_eval_str(e.eval_at(args.N), latex=True) if args.N is not None
                 else _rad_latex(e) for e in row)
        latex.append(" & ".join(cells) + " \\\\")
    return latex + ["\\end{pmatrix}"], None


def _cmd_singlets(args):
    k, source = args.k, args.source
    table = singlet_table(k, source)
    size = len(table)
    if args.format == "json":
        return {"schema": SCHEMA, "command": "singlets", "k": k,
                "source": source, "size": size,
                "operators": [[op.to_json() for op in row]
                              for row in table]}, None
    if args.format == "text":
        text = [f"singlet operator table for k={k}, source={source}: "
                f"{size} projectors, {size * size - size} transitions"]
        for i in range(size):
            for j in range(size):
                name = f"P{i + 1}" if i == j else f"T{i + 1}{j + 1}"
                text.append(
                    f"{name:>5}  chi = {table[i][j].normalization!r}")
        return text, None
    latex = [f"% operator table, k={k}, source={source}",
             "\\begin{tabular}{c|" + "c" * size + "}",
             " & " + " & ".join(str(j + 1) for j in range(size)) + " \\\\",
             "\\hline"]
    for i in range(size):
        cells = [f"P_{{{i + 1}}}" if i == j else f"T_{{{i + 1}{j + 1}}}"
                 for j in range(size)]
        latex.append(f"{i + 1} & " + " & ".join(cells) + " \\\\")
    latex.append("\\end{tabular}")
    for i in range(size):
        for j in range(i, size):
            chi = _rad_latex(table[i][j].normalization)
            latex.append(f"$\\chi_{{{i + 1}{j + 1}}} = {chi}$")
    return latex, None


def _cmd_trace_basis(args):
    k = args.k
    if not args.normalized:
        states = raw_trace_states(k)
        listing = _state_listing(
            states, [d.to_text() for d in all_decompositions(k)], "cycles",
            args.format, {
                "text": f"raw trace basis for k={k}: {len(states)} state(s)",
                "latex": f"% raw trace basis, k={k}"})
        if args.format != "json":
            return listing, None
        return {"schema": SCHEMA, "command": "trace-basis", "k": k,
                "normalized": False, "states": listing}, None
    ops = normalized_trace_basis(k)
    if args.format == "json":
        records = [{"index": i, "normalization": op.normalization.to_json(),
                    "element": op.ket.to_json()}
                   for i, op in enumerate(ops)]
        return {"schema": SCHEMA, "command": "trace-basis", "k": k,
                "normalized": True, "states": records}, None
    lines = [f"normalized trace basis for k={k}: {len(ops)} state(s)"
             if args.format == "text" else f"% normalized trace basis, k={k}"]
    for i, op in enumerate(ops):
        if args.format == "text":
            lines.append(f"state {i}: normalization {op.normalization!r}")
            lines.append(f"  {op.ket!r}")
        else:
            lines.extend(_coefficient_table(op.ket, f"state {i}"))
            lines.append(f"$\\beta_{{{i}}} = "
                         f"{_rad_latex(op.normalization)}$")
    return lines, None


def _cmd_lr(args):
    shapes = lr_decomposition(args.m, args.n, args.N)
    records = [{"shape": list(s.rows), "dimension": shape_dimension(s, args.N)}
               for s in shapes]
    total = sum(r["dimension"] for r in records)
    expected = args.N ** (args.m + args.n)
    fail = None if total == expected else "dimension count mismatch"
    if args.format == "json":
        return {"schema": SCHEMA, "command": "lr", "m": args.m, "n": args.n,
                "N": args.N, "shapes": records, "total_dimension": total,
                "expected_dimension": expected,
                "conserved": total == expected}, fail
    if args.format == "latex":
        latex = ["\\begin{tabular}{ll}", "shape & dimension \\\\", "\\hline"]
        for r in records:
            rows = ",".join(str(x) for x in r["shape"])
            latex.append(f"$[{rows}]$ & {r['dimension']} \\\\")
        return latex + ["\\end{tabular}",
                        f"% total {total}, expected {expected}"], fail
    text = [f"decomposition of {args.m} fundamental x {args.n} "
            f"antifundamental factors at N={args.N}: "
            f"{len(records)} shape(s)"]
    for r in records:
        text.append(f"  {r['shape']}  dimension {r['dimension']}")
    text.append(f"total dimension {total}, expected {expected}"
                + ("" if total == expected else "  MISMATCH"))
    return text, fail


def _cmd_transient(args):
    params = transient_singlet_params(args.m, args.n, args.N)
    if args.format == "json":
        return {"schema": SCHEMA, "command": "transient", "m": args.m,
                "n": args.n, "N": args.N,
                "solutions": [p.to_json() for p in params]}, None
    if args.format == "latex":
        return ["\\begin{tabular}{llll}",
                "$a$ & $b$ & $k$ & $\\alpha$ \\\\", "\\hline"] + [
            f"{p.a} & {p.b} & {p.k} & {p.alpha} \\\\" for p in params] + [
            "\\end{tabular}"], None
    return [f"transient singlet parameters for m={args.m}, n={args.n}, "
            f"N={args.N}: {len(params)} solution(s)"] + [
        f"  a={p.a} b={p.b} k={p.k} alpha={p.alpha}" for p in params], None


def _cmd_eval(args):
    count = singlet_count(args.k, args.N, args.source)
    if args.format == "json":
        return {"schema": SCHEMA, "command": "eval", "k": args.k, "N": args.N,
                "source": args.source, "count": count}, None
    return [f"singlet count for k={args.k} at N={args.N} "
            f"({args.source} source): {count}"], None


def _cmd_verify(args):
    results = run_checks(args.checks)
    passed = sum(1 for _, ok in results if ok)
    failed = len(results) - passed
    fail = None if failed == 0 else f"{failed} of {len(results)} checks failed"
    if args.format == "json":
        return {"schema": SCHEMA, "command": "verify",
                "results": [{"name": name, "passed": ok}
                            for name, ok in results],
                "passed": passed, "failed": failed}, fail
    width = max(len(name) for name, _ in results)
    text = [f"{name:<{width}}  {'pass' if ok else 'FAIL'}"
            for name, ok in results]
    text.append(f"{passed} passed, {failed} failed")
    return text, fail


def _cmd_correlator(args):
    k, n = args.k, args.N
    _check_cap(n, 2 * k)
    states = [integer_entries(s, n) for s in raw_trace_states(k)]
    runs = []
    for seed in range(args.seed, args.seed + args.samples):
        g, h = sample_special_linear(n, seed)
        legs = [g] * k + [h] * k
        residual = Fraction(0)
        for den, entries in states:
            moved = _act_per_leg(entries, legs)
            gap = max((abs(moved.get(key, 0) - entries.get(key, 0))
                       for key in moved.keys() | entries.keys()), default=0)
            residual = max(residual, Fraction(gap, den))
        runs.append((seed, residual))
    worst = max(residual for _, residual in runs)
    ok = worst == 0
    fail = None if ok else f"max residual {worst} is not 0"
    if args.format == "json":
        return {"schema": SCHEMA, "command": "correlator", "k": k, "N": n,
                "seed": args.seed,
                "samples": [{"seed": seed, "residual": str(residual)}
                            for seed, residual in runs],
                "max_residual": str(worst), "passed": ok}, fail
    text = [f"correlator invariance for k={k} trace states at N={n}"]
    text.extend(f"  seed {seed}: residual {residual}"
                for seed, residual in runs)
    text.append(f"max residual {worst}: {'pass' if ok else 'FAIL'}")
    return text, fail


_COMMANDS = {
    "basis": _cmd_basis,
    "gram": _cmd_gram,
    "singlets": _cmd_singlets,
    "trace-basis": _cmd_trace_basis,
    "lr": _cmd_lr,
    "transient": _cmd_transient,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "correlator": _cmd_correlator,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="birdtracks",
                     description="Singlet projectors for mixed tensor "
                                 "powers at symbolic N.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, formats=("text", "json", "latex"), **flags):
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags.items():
            p.add_argument(f"--{flag}", **options)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write the result to this path")
        return p

    intflag = {"type": int, "required": True}
    add("basis", "list the singlet basis states",
        k=intflag, source={"choices": SOURCES, "default": "builtin"})
    add("gram", "pairwise inner products of the basis states",
        k=intflag, source={"choices": SOURCES, "default": "builtin"},
        N={"type": int})
    add("singlets", "projector and transition operator table",
        k={"type": int, "default": 3},
        source={"choices": SOURCES, "default": "builtin"})
    add("trace-basis", "trace states, raw or orthogonalized",
        k={"type": int, "default": 3},
        normalized={"action": "store_true"})
    add("lr", "irreducible shapes of a mixed tensor power",
        m=intflag, n=intflag, N=intflag)
    add("transient", "parameters of rank-dependent extra singlets",
        m=intflag, n=intflag, N=intflag)
    no_latex = ("text", "json")
    add("eval", "singlet count at a concrete rank", no_latex,
        k=intflag, N=intflag,
        source={"choices": SOURCES, "default": "trace"})
    add("verify", "run the library invariant suite", no_latex,
        check={"action": "append", "dest": "checks", "metavar": "NAME",
               "help": "run only this named check (repeatable)"})
    add("correlator", "check sampled group elements fix the trace states",
        no_latex, k=intflag, N=intflag, seed={"type": int, "default": 0},
        samples={"type": int, "default": 1})
    return parser


def _validate(args) -> None:
    """The range and combination checks that argparse does not make."""

    def at_least(flag, least, where=""):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise ConfigError(f"--{flag} must be at least {least}{where}")

    at_least("k", 1)
    at_least("m", 0)
    at_least("n", 0)
    if args.command in ("lr", "transient", "correlator"):
        at_least("N", 2, " for this command")
    else:
        at_least("N", 1)
    if args.command == "lr" and args.m + args.n < 1:
        raise ConfigError("--m and --n cannot both be 0")
    if args.command == "verify":
        known = {name for name, _ in CHECKS}
        unknown = [c for c in args.checks or () if c not in known]
        if unknown:
            raise ConfigError(
                f"unknown checks: {', '.join(unknown)} "
                f"(available: {', '.join(sorted(known))})")
    if args.command == "correlator":
        at_least("samples", 1)
        at_least("seed", 0)
    if args.output is not None:
        if not args.output:
            raise ConfigError("--output must name a file")
        parent = os.path.dirname(args.output) or "."
        if os.path.isdir(args.output):
            raise ConfigError(f"--output {args.output} is a directory")
        if not os.path.isdir(parent):
            raise ConfigError(f"--output directory {parent} does not exist")
        if not os.access(parent, os.W_OK):
            raise ConfigError(f"--output directory {parent} is not writable")


def _write_output(output, fmt: str, write) -> None:
    """Pass write a command's output in format fmt and the final newline."""
    if fmt == "json":
        _write_json(output, write)
    else:
        write("\n".join(output))
    write("\n")


def _emit_error(code: int, message: str) -> int:
    blob = {"schema": SCHEMA, "error": {"code": code, "message": message}}
    print(json.dumps(blob), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _validate(args)
        output, fail = _COMMANDS[args.command](args)
    except ConfigError as exc:
        return _emit_error(2, str(exc))
    except BirdtrackError as exc:
        return _emit_error(2, f"{type(exc).__name__}: {exc}")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                _write_output(output, args.format, handle.write)
        except OSError as exc:
            return _emit_error(2, f"cannot write --output {args.output}: "
                                  f"{exc.strerror or exc}")
    else:
        try:
            _write_output(output, args.format, sys.stdout.write)
            sys.stdout.flush()
        except BrokenPipeError:
            # Python flushes stdout again at exit; devnull keeps that
            # flush from raising a second BrokenPipeError
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    if fail is not None:
        return _emit_error(1, fail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
