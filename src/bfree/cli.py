"""Command-line front end.

Subcommands: eta, zero, decide, density, report, reproduce.  Summaries go to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 nothing found
(zero), 2 bad input, 3 limit breached, 4 golden mismatch, 141 stdout closed
by its reader (128 + SIGPIPE, as a shell reports a process that signal ends).
"""

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import BadInputError, BFreeError, FamilyParseError, TooLargeError, UnknownPresetError
from .families import FamilySpec, indented_json, parse_family, preset
from .proximality import (
    CRT_INSTANCE_BOUND,
    Covering,
    SearchBudget,
    conditions_report,
    crt_window_certificate,
    decide,
    prove_no_zero_window,
)
from .windows import (
    Box,
    DEFAULT_CELL_LIMIT,
    Shape,
    density_profile,
    find_zero_window,
    free_window,
    syndetic_period,
)

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_BAD_INPUT = 2
EXIT_LIMIT = 3
EXIT_MISMATCH = 4
EXIT_BROKEN_PIPE = 141

# what opening a named path can raise that the user's path is at fault for
# (FileExistsError: reproduce --outdir naming a file)
_BAD_PATH_ERRORS = (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError)


def _read_text(path: str) -> str:
    """The text of an input file named on the command line, decoded as
    ``Path.read_text`` decodes it (the locale's encoding), by the plain
    ``open`` that costs less per command.  Bytes that do not decode are bad
    input naming the file."""
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise BadInputError(f"{path} is not text: {exc}") from None


def _load_spec(args) -> FamilySpec:
    if (args.preset is None) == (args.spec is None):
        raise BadInputError("give exactly one of --preset or --spec")
    if args.preset is not None:
        return preset(args.preset)
    return parse_family(_read_text(args.spec))


def _cell_limit(args) -> int:
    """--limit-cells, else BFREE_LIMIT_CELLS, else the default."""
    if args.limit_cells is not None:
        return args.limit_cells
    env = os.environ.get("BFREE_LIMIT_CELLS")
    if env is None:
        return DEFAULT_CELL_LIMIT
    try:
        return _positive(env)
    except argparse.ArgumentTypeError as exc:
        raise BadInputError(f"BFREE_LIMIT_CELLS: {exc}") from None


def _budget(args) -> SearchBudget:
    """The search budget of ``decide`` and ``report``: --max-side, --radius
    and the cell limit."""
    return SearchBudget(max_side=args.max_side, search_radius=args.radius, cell_limit=args.limit_cells)


def _fit(spec: FamilySpec, what: str, obj):
    """Refuse a box or shape whose dimension is not the family's."""
    if obj.dim != spec.dim:
        raise BadInputError(f"{what} is {obj.dim}-dimensional, the family is {spec.dim}-dimensional")
    return obj


# argparse converters: a ValueError becomes "bad input" naming the flag


def _converter(parse, want: str):
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r} is not {want} ({exc})") from None

    return convert


def _at_least(lo: int):
    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise ValueError(f"below {lo}")
        return n

    return parse


def _sides_list(text: str) -> list[int]:
    sides = [_at_least(0)(x) for x in text.split(",")]
    if any(a >= b for a, b in zip(sides, sides[1:])):
        raise ValueError("sides must be strictly increasing")
    return sides


def _shape_text(text: str) -> Box | Shape:
    """An @offsets-file as its Shape; rectangle syntax as its Box, whose
    offsets cmd_zero builds once the cell limit admits them."""
    if not text.startswith("@"):
        return Shape.parse_box(text)
    offsets = []
    for line in _read_text(text[1:]).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            offsets.append(tuple(int(x) for x in line.split()))
    return Shape.from_offsets(offsets)


_box = _converter(Box.parse, "a box lo:hi,lo:hi,... with lo <= hi")
_shape = _converter(_shape_text, "a shape a:bxc:d or @offsets-file")
_sides = _converter(_sides_list, "a strictly increasing list of non-negative radii")
_count = _converter(_at_least(0), "a non-negative integer")
_positive = _converter(_at_least(1), "a positive integer")


def cmd_eta(args) -> int:
    spec = _load_spec(args)
    box = _fit(spec, "--box", args.box)
    if args.format != "json" and spec.dim > 2:
        raise BadInputError(f"--format {args.format} exports dimensions 1 and 2 only; use --format json")
    window = free_window(spec, box, cell_limit=args.limit_cells)
    out = Path(args.out) if args.out else Path(f"eta.{args.format}")
    if args.format == "csv":
        out.write_text(window.to_csv())
    elif args.format == "pgm":
        out.write_text(window.to_pgm())
    else:
        out.write_text(indented_json(window.to_json_dict()) + "\n")
    print(f"ones={window.ones()} cells={window.box.volume}")
    return EXIT_OK


def cmd_zero(args) -> int:
    spec = _load_spec(args)
    shape = _fit(spec, "--shape", args.shape)
    if isinstance(shape, Box):
        if shape.volume > args.limit_cells:
            raise TooLargeError(
                "scan exceeds the cell limit",
                check="zero shape", limit_name="cell_limit", limit=args.limit_cells, count=shape.volume,
            )
        shape = Shape.from_box(shape)
    if args.crt:
        translate, period, cert = crt_window_certificate(
            spec, shape, instance_bound=args.instance_bound
        )
        payload = {
            "translate": list(translate),
            "period": period.to_columns(),
            "certificate": cert.to_json_dict(),
        }
        print(json.dumps(payload))
        return EXIT_OK
    search = _fit(spec, "--search", args.search) if args.search else Box.centered(SearchBudget.search_radius, spec.dim)
    if args.periodic_exact:
        # only the verdict is read: search no zero windows for evidence
        verdict = decide(spec, SearchBudget(max_side=0))
        if verdict.status == "NotProximal" and isinstance(verdict.certificate, Covering):
            try:
                proved = prove_no_zero_window(spec, shape, verdict.certificate.covers)
            except TooLargeError as exc:
                print(f"{exc}; falling back to the bounded search", file=sys.stderr)
            else:
                if proved:
                    print("exact: no zero translate exists", file=sys.stderr)
                    return EXIT_NOT_FOUND
    translate = find_zero_window(spec, shape, search, cell_limit=args.limit_cells)
    if translate is None:
        print(
            "not found in search box (not a nonexistence proof)",
            file=sys.stderr,
        )
        return EXIT_NOT_FOUND
    period = syndetic_period(spec, translate, shape)
    print(json.dumps({"translate": list(translate), "period": period.to_columns()}))
    return EXIT_OK


def cmd_decide(args) -> int:
    verdict = decide(_load_spec(args), _budget(args))
    print(verdict.to_json())
    return EXIT_OK


def cmd_density(args) -> int:
    spec = _load_spec(args)
    shift = _fit(spec, "--shift-search", args.shift_search) if args.shift_search else Box.centered(20, spec.dim)
    profile = density_profile(spec, args.sides, shift, cell_limit=args.limit_cells)
    text = profile.to_csv()
    if args.out:
        Path(args.out).write_text(text)
        print(f"rows={len(profile.rows)}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_report(args) -> int:
    spec = _load_spec(args)
    candidate = _fit(spec, "--dprime", parse_family(_read_text(args.dprime))) if args.dprime else None
    report = conditions_report(spec, _budget(args), dprime_candidate=candidate)
    print(report.to_json())
    return EXIT_OK


# Golden artifacts: window exports over [-25, 25]^2 plus the conditions
# report under a fixed budget.  Regenerate only with --bless.
_GOLDEN_BOX = Box((-25, -25), (25, 25))
_GOLDEN_BUDGET = SearchBudget(max_side=6, search_radius=16)

_DPRIME_CANDIDATE = "dim 2\nrecttemplate [t,t] params=oddprimes\n"


def _golden_artifacts(name: str) -> dict[str, str]:
    spec = preset(name)
    window = free_window(spec, _GOLDEN_BOX)
    candidate = parse_family(_DPRIME_CANDIDATE)
    report = conditions_report(spec, _GOLDEN_BUDGET, dprime_candidate=candidate)
    return {
        f"{name}_window.pgm": window.to_pgm(),
        f"{name}_window.csv": window.to_csv(),
        f"{name}_conditions.json": report.to_json() + "\n",
    }


def cmd_reproduce(args) -> int:
    if args.name not in ("ex1", "ex2"):
        raise BadInputError(f"unknown golden target {args.name!r}")
    artifacts = _golden_artifacts(args.name)
    outdir = Path(args.outdir) if args.outdir else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    for fname, text in artifacts.items():
        (outdir / fname).write_text(text)
    golden_root = resources.files("bfree") / "goldens" / args.name
    if args.bless:
        bless_dir = Path(str(golden_root))
        bless_dir.mkdir(parents=True, exist_ok=True)
        for fname, text in artifacts.items():
            (bless_dir / fname).write_text(text)
        print(f"blessed {len(artifacts)} artifacts for {args.name}")
        return EXIT_OK
    mismatches = []
    for fname, text in artifacts.items():
        ref = golden_root / fname
        if not ref.is_file():
            mismatches.append(f"{fname}: missing golden")
            continue
        if ref.read_text() != text:
            mismatches.append(f"{fname}: differs from golden")
    if mismatches:
        for m in mismatches:
            print(m, file=sys.stderr)
        return EXIT_MISMATCH
    print(f"reproduced {len(artifacts)} artifacts for {args.name}")
    return EXIT_OK


def _spec_args(p):
    p.add_argument("--preset", help="built-in family name")
    p.add_argument("--spec", help="family description file")
    p.add_argument("--limit-cells", type=_positive, default=None)


def _eta_args(p):
    _spec_args(p)
    p.add_argument("--box", type=_box, required=True, help="lo:hi,lo:hi,...")
    p.add_argument("--format", choices=("csv", "pgm", "json"), default="csv")
    p.add_argument("--out", help="artifact path (default eta.<format>)")


def _zero_args(p):
    _spec_args(p)
    p.add_argument("--shape", type=_shape, required=True, help="a:bxc:d or @offsets-file")
    p.add_argument("--search", type=_box, help=f"search box, default centered radius {SearchBudget.search_radius}")
    p.add_argument("--crt", action="store_true", help="constructive route for rectangular specs")
    p.add_argument("--periodic-exact", action="store_true")
    p.add_argument("--instance-bound", type=_count, default=CRT_INSTANCE_BOUND)


def _budget_args(p):
    _spec_args(p)
    p.add_argument("--max-side", type=_count, default=SearchBudget.max_side)
    p.add_argument("--radius", type=_count, default=SearchBudget.search_radius)


def _density_args(p):
    _spec_args(p)
    p.add_argument("--sides", type=_sides, required=True, help="comma-separated box radii")
    p.add_argument("--shift-search", type=_box, help="shift box, default centered radius 20")
    p.add_argument("--out")


def _report_args(p):
    _budget_args(p)
    p.add_argument("--dprime", help="candidate family file for the d' check")


def _reproduce_args(p):
    p.add_argument("name", help="ex1 or ex2")
    p.add_argument("--outdir")
    p.add_argument("--bless", action="store_true")


# name -> (help, function adding the arguments, handler)
COMMANDS = {
    "eta": ("export the free-set window over a box", _eta_args, cmd_eta),
    "zero": ("find or construct a zero window", _zero_args, cmd_zero),
    "decide": ("proximality verdict with certificate", _budget_args, cmd_decide),
    "density": ("best-shift density lower bounds", _density_args, cmd_density),
    "report": ("status of the equivalent conditions", _report_args, cmd_report),
    "reproduce": ("regenerate and compare golden artifacts", _reproduce_args, cmd_reproduce),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command."""
    # exit_on_error=False: a value its converter rejects raises
    # ArgumentError, which main reports as bad input
    parser = argparse.ArgumentParser(prog="bfree", description=__doc__, exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, add_args, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help, exit_on_error=False)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


class _ArgumentTable:
    """One command's arguments, read from the add_argument calls that
    build_parser makes: the flags, the positionals, the defaults and the
    required flags that _quick_parse reads.  Only the keywords those calls
    use are accepted, so an argument the table cannot mirror fails at
    import."""

    def __init__(self, add_args, handler):
        self.options = {}  # "--flag" -> (dest, type, choices, is store_true)
        self.positionals = []  # dests, in order
        self.required = []  # dests of required flags
        self.defaults = {"func": handler}
        add_args(self)

    def add_argument(self, name, *, action=None, type=None, choices=None, default=None, required=False, help=None):
        if action not in (None, "store_true"):
            raise TypeError(f"{name}: action {action!r} has no fast parse")
        if not name.startswith("-"):
            self.positionals.append(name)
            return
        dest = name.lstrip("-").replace("-", "_")
        store_true = action == "store_true"
        self.options[name] = (dest, type, choices, store_true)
        self.defaults[dest] = False if store_true else default
        if required:
            self.required.append(dest)


_TABLES = {name: _ArgumentTable(add_args, handler) for name, (_, add_args, handler) in COMMANDS.items()}


def _quick_parse(argv):
    """What build_parser().parse_args(argv) returns, read from the argument
    tables, or None where the tables alone cannot settle it.

    Settled are the command name followed by known flags, each spelled out
    and given once, as --flag value (a value not starting with "-"),
    --flag=value or a bare store_true flag, and reproduce's one positional.
    Anything else (an unknown or abbreviated flag, a repeat, -h, --, a value
    of --, a value that its converter or choices refuse, a missing required argument, a
    leftover token) gives None: the full parser parses it and prints its
    help, usage or error.
    """
    if not argv or argv[0] not in _TABLES:
        return None
    table = _TABLES[argv[0]]
    values = dict(table.defaults, command=argv[0])
    given = set()
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, eq, text = token.partition("=")
        if name not in table.options:
            return None
        dest, convert, choices, store_true = table.options[name]
        if dest in given or (store_true and eq):
            return None
        given.add(dest)
        if store_true:
            values[dest] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
        elif text == "--":  # argparse drops a "--" value and stores []
            return None
        if convert is not None:
            try:
                text = convert(text)
            except Exception:  # the full parser reports it, or raises it to main
                return None
        if choices is not None and text not in choices:
            return None
        values[dest] = text
    if len(positionals) != len(table.positionals) or not given.issuperset(table.required):
        return None
    values.update(zip(table.positionals, positionals))
    return argparse.Namespace(**values)


# flags whose values may start with "-" (negative coordinates); joined into
# --flag=value form so argparse does not mistake the value for an option
_VALUE_FLAGS = ("--box", "--search", "--shift-search", "--shape", "--sides")


def _join_flag_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = _join_flag_values(sys.argv[1:] if argv is None else list(argv))
    try:
        # a valid argv is read from the argument tables; help, usage and
        # error texts come from the full parser, built only when the tables
        # cannot settle the argv
        args = _quick_parse(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        if "limit_cells" in args:
            args.limit_cells = _cell_limit(args)
        code = args.func(args)
        # a reader that closed the pipe early shows up here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except TooLargeError as exc:
        breach = f"check: {exc.check}; limit: {exc.limit_name} = {exc.limit}; count: {exc.count}"
        print(f"limit breached: {exc} ({breach})", file=sys.stderr)
        return EXIT_LIMIT
    except (argparse.ArgumentError, BadInputError, FamilyParseError, UnknownPresetError, *_BAD_PATH_ERRORS) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def _discard_stdout() -> None:
    """Point the stdout descriptor at the null device, so the interpreter's
    flush of what is still buffered at exit cannot fail on a closed pipe.
    A stdout without a descriptor (an in-memory stream) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
