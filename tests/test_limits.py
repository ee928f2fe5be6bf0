"""Every TooLargeError carries its breach as data, with its text unchanged.

One case per raise site: the check that refused, the name and value of the
limit, the count that was needed or reached, and the exact message (the
command line prints it after ``limit breached: ``, and the fields after it,
exit 3).
"""

import pickle

import pytest

from bfree import cli, families
from bfree.errors import FamilyParseError, TooLargeError
from bfree.families import (
    PRIME_SIEVE_LIMIT,
    FamilySpec,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    Static,
    odd_primes,
    preset,
)
from bfree.lattices import Lattice, hnf, intersect_all
from bfree.proximality import (
    DEFAULT_PERIOD_CELL_LIMIT,
    _quotient_reps,
    check_coprime_cover_candidate,
    check_covering,
    crt_window_certificate,
    prove_no_zero_window,
)
from bfree.windows import Box, Shape, density_profile, find_zero_window, free_window


def cmd_zero_with_a_large_shape():
    args = cli._quick_parse(["zero", "--preset", "ex2", "--shape", "0:9x0:9", "--limit-cells", "50"])
    args.limit_cells = cli._cell_limit(args)
    return args.func(args)


def missed_coset_scan_past_the_rep_limit():
    covers = [hnf([(3, 1), (0, 3)]), Lattice.from_diagonal((1, 3))]
    spec = FamilySpec(2, (Static(covers[0]), Rectangular((1, 3))))
    return check_covering(spec, covers, rep_limit=8)


def dprime_scan_past_the_cell_limit():
    candidate = FamilySpec(2, (RectTemplate((RectEntry(1, 1), RectEntry(1, 1)), odd_primes()),))
    return check_coprime_cover_candidate(preset("ex2"), candidate, cell_limit=5 * 25**2 - 1)


def period_proof_past_its_limit():
    covers = [Lattice.from_diagonal((1001, 1)), Lattice.from_diagonal((1, 1001))]
    assert intersect_all(covers).index == 1001**2
    return prove_no_zero_window(preset("ex2"), Shape.parse("0:0x0:0"), covers)


def crt_members_past_the_sieve_limit():
    # members p^2 up to index 10^16 need the primes up to 10^8
    return crt_window_certificate(preset("squarefree-1d"), Shape.parse("0:1"), instance_bound=10**16)


SPARSE = Shape.from_offsets([(0, 0), (0, 10**9)])
GROWN = 33 * (10**9 + 33)

SITES = {
    "cli zero shape": (
        cmd_zero_with_a_large_shape,
        "scan exceeds the cell limit",
        ("zero shape", "cell_limit", 50, 100),
    ),
    "free_window": (
        lambda: free_window(preset("ex2"), Box((-5, -5), (5, 5)), cell_limit=10),
        "window volume 121 exceeds the limit of 10",
        ("free window", "cell_limit", 10, 121),
    ),
    "scan translates": (
        lambda: find_zero_window(preset("ex2"), Shape.parse("0:1x0:1"), Box.centered(16, 2), cell_limit=33 * 33 * 4 - 1),
        "scan exceeds the cell limit",
        ("zero-window scan", "cell_limit", 33 * 33 * 4 - 1, 33 * 33 * 4),
    ),
    "scan sieve box": (
        lambda: find_zero_window(preset("ex2"), SPARSE, Box.centered(16, 2)),
        f"scan sieves {GROWN} cells, above the cell limit of 100000000",
        ("zero-window scan", "cell_limit", 10**8, GROWN),
    ),
    "density_profile": (
        lambda: density_profile(preset("ex2"), [400, 100000], Box.centered(20, 2), cell_limit=10**6),
        "combined grid volume 40016401681 exceeds 1000000",
        ("density profile", "cell_limit", 10**6, 40016401681),
    ),
    "class quotient": (
        lambda: _quotient_reps(Lattice.from_diagonal((1, 1)), Lattice.from_diagonal((3, 3)), 8),
        "covering check: a class quotient of 9 cosets exceeds rep_limit=8",
        ("covering check", "rep_limit", 8, 9),
    ),
    "missed coset scan": (
        missed_coset_scan_past_the_rep_limit,
        "covering check: the first 8 of 27 cosets of the cover intersection all lie in the union (rep_limit=8)",
        ("covering check", "rep_limit", 8, 27),
    ),
    "period proof": (
        period_proof_past_its_limit,
        "period proof: a period of 1002001 cosets needs a sieve box of 1002001 cells, above the limit of 1000000",
        ("period proof", "DEFAULT_PERIOD_CELL_LIMIT", DEFAULT_PERIOD_CELL_LIMIT, 1002001),
    ),
    "d' check": (
        dprime_scan_past_the_cell_limit,
        "d' check: the scan of 3125 candidate points exceeds the cell limit of 3124",
        ("d' check", "cell_limit", 3124, 3125),
    ),
    "prime parameters": (
        crt_members_past_the_sieve_limit,
        "listing the primes up to 100000000 exceeds the sieve limit of 10000000",
        ("prime parameters", "PRIME_SIEVE_LIMIT", PRIME_SIEVE_LIMIT, 10**8),
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_too_large_error_carries_the_breach(site):
    call, text, (check, limit_name, limit, count) = SITES[site]
    with pytest.raises(TooLargeError) as info:
        call()
    exc = info.value
    assert str(exc) == text
    assert (exc.check, exc.limit_name, exc.limit, exc.count) == (check, limit_name, limit, count)


def test_the_command_line_prints_the_same_text(capsys):
    code = cli.main(["zero", "--preset", "ex2", "--shape", "0:9x0:9", "--limit-cells", "50"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_LIMIT == 3
    breach = "(check: zero shape; limit: cell_limit = 50; count: 100)"
    assert (captured.out, captured.err) == ("", f"limit breached: scan exceeds the cell limit {breach}\n")


def test_the_fields_are_required():
    with pytest.raises(TypeError):
        TooLargeError("scan exceeds the cell limit")


def test_the_error_survives_pickling():
    _, text, fields = SITES["d' check"]
    exc = pickle.loads(pickle.dumps(TooLargeError(text, **dict(zip(("check", "limit_name", "limit", "count"), fields)))))
    assert type(exc) is TooLargeError and str(exc) == text
    assert (exc.check, exc.limit_name, exc.limit, exc.count) == fields


def test_the_parse_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(FamilyParseError(3, "bad: list")))
    assert type(exc) is FamilyParseError and str(exc) == "line 3: bad: list"
    assert exc.line_no == 3


def test_no_prime_is_sieved_past_the_sieve_limit(monkeypatch, capsys):
    sieved = []
    monkeypatch.setattr(families, "primes_up_to", lambda n: sieved.append(n) or ())
    argv = ["zero", "--preset", "squarefree-1d", "--shape", "0:1", "--crt", "--instance-bound", str(10**16)]
    assert cli.main(argv) == cli.EXIT_LIMIT
    breach = "(check: prime parameters; limit: PRIME_SIEVE_LIMIT = 10000000; count: 100000000)"
    assert capsys.readouterr().err == f"limit breached: {SITES['prime parameters'][1]} {breach}\n"
    assert sieved == []
    # the sieves grow by 4 up to one of exactly the limit's length
    assert list(Primes().iter_values_up_to(PRIME_SIEVE_LIMIT)) == []
    with pytest.raises(TooLargeError):
        Primes().iter_values_up_to(PRIME_SIEVE_LIMIT + 1)
    assert sieved == [1024, 4096, 16384, 65536, 262144, 1048576, 4194304, PRIME_SIEVE_LIMIT]
