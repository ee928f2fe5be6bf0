"""Mutation checks for bfree's exact layers.

    python3 tools/mutants.py             # run every mutant
    python3 tools/mutants.py NAME ...    # run the named mutants

Each mutant is one exact text replacement in a file of the package, plus
the test files that should kill it.  The tree (``src/``, ``tests/``,
``perfbench/``, whose job pool some tests read, and ``pyproject.toml``) is
copied to a temporary directory once; each mutant is applied there to its
file alone, its test files run with ``pytest -x -q`` against the copy's
``src/`` under the ``mutants`` Hypothesis profile (tests/conftest.py: no
shrinking and no example database, so a property ends at its first
failing example), and the file is restored before the next.  The working
tree is never edited.

A mutant is killed when a test fails (pytest exit 1), and survives when
its tests pass.  Its tests are stopped after TIMEOUT_S seconds, and it is
then reported as "timeout" and counted as killed: a mutant can send code
into a loop that never ends (with ``unit-step-minus-one-read-as-one`` a
value divided down to 0 is divided again forever, on draws that shrinking
a failure used to reach), and without the bound one such draw stalls the
whole list.  Exit status: 0 when every mutant run was killed, 1 when one
survived, 2 when a mutant is stale: its text no longer occurs exactly
once, or pytest could not collect or run its tests.  Standard library only.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LATTICES = "src/bfree/lattices.py"
WINDOWS = "src/bfree/windows.py"
FAMILIES = "src/bfree/families.py"
NUMTHEORY = "src/bfree/numtheory.py"
PROXIMALITY = "src/bfree/proximality.py"
TIMEOUT_S = 300  # the slowest kill takes about 20 s


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the tree
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the chunked line table, the trial division stop and the covers search
    Mutant(
        "chunk-bound-doubled", WINDOWS,
        "islice(cells, _CHUNK_LINES)", "islice(cells, 2 * _CHUNK_LINES)",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "trial-stop-at-square", NUMTHEORY,
        "if p * p > n:", "if p * p >= n:",
        ("tests/test_numtheory.py",),
    ),
    Mutant(
        "outside-any-to-all", PROXIMALITY,
        "if not any(cov.contains(p) for cov in covers)", "if not all(cov.contains(p) for cov in covers)",
        ("tests/test_certificate_snapshots.py", "tests/test_proximality.py"),
    ),
    Mutant(
        "scan-one-rep-more", PROXIMALITY,
        "islice(period.iter_coset_reps(), rep_limit)", "islice(period.iter_coset_reps(), rep_limit + 1)",
        ("tests/test_proximality.py",),
    ),
    # last-row templates by the row walk, and the window sums
    Mutant(
        "last-coefficient-off-by-one", WINDOWS,
        "for row in inverse])[-1]\n", "for row in inverse])[-1] + 1\n",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "unit-step-minus-one-read-as-one", FAMILIES,
        "a = -v0 * k\n", "a = -v0\n",
        ("tests/test_far_windows.py", "tests/test_windows.py"),
    ),
    Mutant(
        "step-divisors-skipped", FAMILIES,
        "for p in common:  # p | k", "for p in ():  # p | k",
        ("tests/test_far_windows.py", "tests/test_windows.py"),
    ),
    Mutant(
        "modulus-not-reduced-by-gcd", FAMILIES,
        "        q //= g\n", "        q //= 1\n",
        ("tests/test_far_windows.py", "tests/test_windows.py"),
    ),
    Mutant(
        "window-sum-fields-one-bit-narrow", WINDOWS,
        ">= (width**m).bit_length()", ">= (width**m).bit_length() - 1",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "constant-row-dropped", WINDOWS,
        "            if power_hits(range(c, c + 1), e)[0]:\n                flags[run] = ones[:n]\n",
        "            pass\n",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "row-value-of-wrong-sign", WINDOWS,
        "c + (first - t) // d * k)", "c + (t - first) // d * k)",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "unit-found-outside-the-run", FAMILIES,
        "                if v in run:\n                    hits[run.index(v)] = 0\n",
        "                if run.start <= v < run.start + n:\n                    hits[v - run.start] = 0\n",
        ("tests/test_far_windows.py", "tests/test_windows.py"),
    ),
    Mutant(
        "row-skip-test-inverted", WINDOWS,
        "if 0 not in flags[run]:", "if 0 in flags[run]:",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "line-skip-test-inverted", WINDOWS,
        "if 0 not in flags[start :", "if 0 in flags[start :",
        ("tests/test_windows.py",),
    ),
    # zero-window evidence by one sieve per slab, and the d' scan by rows
    Mutant(
        "done-kept-across-slabs", PROXIMALITY,
        "    found = []\n    for slab in _slabs(search):\n        if len(found) == top:\n            break\n"
        "        sieve = _Sieve(spec, slab, (0,) * m, (top,) * m)\n        survivors, done = sieve.survivors, -1\n",
        "    found, done = [], -1\n    for slab in _slabs(search):\n        if len(found) == top:\n            break\n"
        "        sieve = _Sieve(spec, slab, (0,) * m, (top,) * m)\n        survivors = sieve.survivors\n",
        ("tests/test_proximality.py",),
    ),
    Mutant(
        "dprime-row-read-from-offset-d", PROXIMALITY,
        "[::d].find(0)", "[d::d].find(0)",
        ("tests/test_proximality.py", "tests/test_cli.py"),
    ),
    Mutant(
        "first-survivor-one-cell-late", WINDOWS,
        "(survivors & -survivors).bit_length() // 8", "(survivors & -survivors).bit_length() // 8 + 1",
        ("tests/test_windows.py", "tests/test_proximality.py"),
    ),
    # the shared primitives: one back-substitution, one enumerator, one box layout
    Mutant(
        "floor-quotient-truncated", LATTICES,
        "        q = res[i] // col[i]\n", "        q = int(res[i] / col[i])\n",
        ("tests/test_lattices.py",),
    ),
    Mutant(
        "point-at-drops-the-corner", WINDOWS,
        "[a + i // t % s for", "[i // t % s for",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "enumerator-first-coordinate-descending", LATTICES,
        "for p in points for x in r)", "for p in points for x in reversed(r))",
        ("tests/test_lattices.py",),
    ),
    # one mutant per exact layer that had none
    Mutant(
        "span-tested-unmapped", PROXIMALITY,
        "got = answer(mapped)", "got = answer(span)",
        ("tests/test_proximality.py", "tests/test_same_union.py", "tests/test_certificate_snapshots.py"),
    ),
    Mutant(
        "holding-cover-of-one-column", PROXIMALITY,
        "all(cov.contains(c) for c in lat.columns)", "any(cov.contains(c) for c in lat.columns)",
        ("tests/test_proximality.py", "tests/test_covering_bruteforce.py"),
    ),
    Mutant(
        "missed-diagonal-coordinate-left-at-zero", PROXIMALITY,
        "if any(low >= j for _, low in open_covers):", "if any(low > j for _, low in open_covers):",
        ("tests/test_proximality.py", "tests/test_covering_bruteforce.py"),
    ),
    Mutant(
        "class-fork-modulus-one-row-short", FAMILIES,
        "prod(later for later, _, _ in table[i + 1 :])", "prod(later for later, _, _ in table[i + 2 :])",
        ("tests/test_families.py", "tests/test_windows.py"),
    ),
    Mutant(
        "contains-reads-the-basis-transposed", LATTICES,
        "res[r] -= c * basis[r][i]", "res[r] -= c * basis[i][r]",
        ("tests/test_lattices.py",),
    ),
    Mutant(
        "hnf-skips-a-column-reduction", LATTICES,
        "        for j in range(i):\n", "        for j in range(i - 1):\n",
        ("tests/test_lattices.py",),
    ),
    # least parameters read lazily, and the member that only the union holds
    Mutant(
        "cofactor-primes-unsorted", NUMTHEORY,
        "yield from sorted(out.items())", "yield from out.items()",
        ("tests/test_numtheory.py",),
    ),
    Mutant(
        "candidates-ignore-exclusions", FAMILIES,
        "if p not in self.exclude and all(v % p**e", "if all(v % p**e",
        ("tests/test_families.py",),
    ),
    Mutant(
        "union-held-member-modulus-of-the-member", PROXIMALITY,
        "checks.append(CoverCheck(idx, label, count, None, n))",
        "checks.append(CoverCheck(idx, label, count, None, lat.index))",
        ("tests/test_covering_bruteforce.py",),
    ),
    # the line sieve's trial bound, and the cofactors it leaves to factor
    Mutant(
        "cofactor-threshold-one-power-high", FAMILIES,
        "top = bound ** (e + 1)", "top = bound ** (e + 2)",
        ("tests/test_far_windows.py",),
    ),
    Mutant(
        "sieve-bound-at-the-root", NUMTHEORY,
        "b = iroot(n, k) + 1", "b = iroot(n, k)",
        ("tests/test_numtheory.py",),
    ),
    # lattices built with their views in one step, and the spec-line checks
    Mutant(
        "from-diagonal-stored-not-diagonal", LATTICES,
        "index=prod(diagonal), _is_diagonal=True", "index=prod(diagonal), _is_diagonal=False",
        ("tests/test_lattices.py",),
    ),
    Mutant(
        "from-diagonal-accepts-zero", LATTICES,
        "if min(diagonal) < 1:", "if min(diagonal) < 0:",
        ("tests/test_refusals.py",),
    ),
    Mutant(
        "views-count-only-the-zeros-above", LATTICES,
        "flat.count(0) == m * m - m", "flat.count(0) == m * (m - 1) // 2",
        ("tests/test_lattices.py",),
    ),
    Mutant(
        "views-diagonal-read-every-m-th", LATTICES,
        "diagonal = flat[:: m + 1]", "diagonal = flat[::m]",
        ("tests/test_lattices.py",),
    ),
    Mutant(
        "rect-all-ones-read-off-the-least-entry", FAMILIES,
        "if max(entries, default=1) == 1:", "if min(entries, default=1) == 1:",
        ("tests/test_refusals.py", "tests/test_families.py"),
    ),
    Mutant(
        "spec-integers-take-booleans", FAMILIES,
        "_INT = {int}", "_INT = {int, bool}",
        ("tests/test_refusals.py",),
    ),
    Mutant(
        "diagonal-span-of-the-least-member", FAMILIES,
        "            g = gcd(t0, delta)\n", "            g = t0\n",
        ("tests/test_entries.py",),
    ),
    Mutant(
        "member-class-lattice-by-intersection", PROXIMALITY,
        "lat = image(member.sum(n_lattice))", "lat = image(member.intersect(n_lattice))",
        ("tests/test_covering_bruteforce.py", "tests/test_proximality.py"),
    ),
    # the least prime parameter, the first value the sequence accepts
    Mutant(
        "least-prime-searched-from-three", FAMILIES,
        "filter(self.__contains__, count(2))", "filter(self.__contains__, count(3))",
        ("tests/test_entries.py",),
    ),
    # the one coset walk behind the covering check and the d' pre-check
    Mutant(
        "walk-charge-dropped", PROXIMALITY,
        "        charged += count\n", "        charged += 0\n",
        ("tests/test_proximality.py",),
    ),
    Mutant(
        "walk-limit-met-refused", PROXIMALITY,
        "if count > left:", "if count >= left:",
        ("tests/test_proximality.py",),
    ),
    Mutant(
        "walk-restart-keeps-i", PROXIMALITY,
        "        inter = inter.intersect(found)\n", "",
        ("tests/test_proximality.py",),
    ),
    # the (d') check without repeated work: seeded walks, row tables,
    # one-pass diagonal membership and line hits; row (d) reads the family
    Mutant(
        "diagonal-contains-skips-the-last-coordinate", LATTICES,
        "return not any(map(mod, p, self.diagonal))", "return not any(map(mod, p[:-1], self.diagonal))",
        ("tests/test_lattices.py",),
    ),
    Mutant(
        "row-table-khi-one-short", WINDOWS,
        "repeat(lo[-1]), repeat(hi[-1])))", "repeat(lo[-1]), repeat(hi[-1] - 1)))",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "one-pass-hits-at-exponent-two", FAMILIES,
        "if e == 1 and all(f == 1 for _, f in head):", "if e <= 2 and all(f == 1 for _, f in head):",
        ("tests/test_families.py",),
    ),
    Mutant(
        "hits-period-one-short", FAMILIES,
        "self._hits(head, e, run[:g])", "self._hits(head, e, run[: g - 1])",
        ("tests/test_families.py",),
    ),
    Mutant(
        "seed-is-the-candidate-member", PROXIMALITY,
        "_coset_walk(member, seeds, scan,", "_coset_walk(member, [member], scan,",
        ("tests/test_proximality.py",),
    ),
    Mutant(
        "parsed-matrix-taken-unchecked", FAMILIES,
        "return Lattice(tuple(zip(*cols)))", "return Lattice._of_columns(tuple(map(tuple, cols)))",
        ("tests/test_families.py",),
    ),
    Mutant(
        "diagonal-member-exponents-dropped", FAMILIES,
        "[c * t**e for c, e in zip(self.base.diagonal, self.exps)]", "[c * t for c, e in zip(self.base.diagonal, self.exps)]",
        ("tests/test_families.py",),
    ),
    Mutant(
        "report-schemas-of-the-candidate", PROXIMALITY,
        'rows["d"] = _coprime_subset_analysis(spec, _schemas(spec))',
        'rows["d"] = _coprime_subset_analysis(spec, _schemas(dprime_candidate or spec))',
        ("tests/test_proximality.py",),
    ),
    # a coprime family's rule and sample, worked out when read
    Mutant(
        "coprime-sample-of-three", FAMILIES,
        "islice(template.params.iter_values_up_to(30), 4)", "islice(template.params.iter_values_up_to(30), 3)",
        ("tests/test_entries.py",),
    ),
    Mutant(
        "coprime-rule-drops-exclusions", FAMILIES,
        'over = "primes excluding {%s}" % ", ".join(map(str, exclude)) if exclude else "all primes"',
        'over = "all primes"',
        ("tests/test_entries.py",),
    ),
    # a finite entry is its members, in the window sieve and the point questions
    Mutant(
        "finite-member-containing-takes-the-last", FAMILIES,
        "next((lat for lat in self.members if lat.contains(p)), None)",
        "next((lat for lat in reversed(self.members) if lat.contains(p)), None)",
        ("tests/test_entries.py",),
    ),
    Mutant(
        "finite-entry-last-member-skipped", WINDOWS,
        "for member in entry.members:", "for member in entry.members[:-1]:",
        ("tests/test_entries.py",),
    ),
    Mutant(
        "finite-covered-reads-the-first-member", FAMILIES,
        "return self.member_containing(p) is not None", "return self.members[0].contains(p)",
        ("tests/test_entries.py",),
    ),
)


def copy_tree(dest: Path):
    """Copy what the tests read of the tree into dest."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".bench_out")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(mutant: Mutant, tree: Path, timeout: float = TIMEOUT_S) -> tuple[str, float]:
    """("killed" | "timeout" | "survived" | "stale", seconds) of one mutant
    applied to the copy at tree, which is restored afterwards."""
    path = tree / mutant.path
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return "stale", 0.0
    path.write_text(original.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants",
        *mutant.tests,
    ]
    t0 = time.perf_counter()
    try:
        rc = subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        ).returncode
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        path.write_text(original)
    outcome = {0: "survived", 1: "killed", None: "timeout"}.get(rc, "stale")
    return outcome, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="bfree-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        for m in chosen:
            outcome, seconds = run_mutant(m, tree)
            outcomes.append(outcome)
            print(f"{outcome:8s} {seconds:6.1f}s  {m.name}", flush=True)
    killed = outcomes.count("killed") + outcomes.count("timeout")
    print(
        f"{killed} killed ({outcomes.count('timeout')} by timeout), "
        f"{outcomes.count('survived')} survived, {outcomes.count('stale')} stale"
    )
    return 2 if "stale" in outcomes else 1 if "survived" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main())
