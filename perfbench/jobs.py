"""Workload definitions: a fixed pool of CLI jobs per workload, and the
seeded schedule that draws from it.

Every workload is a list of *slots*.  A slot is one kind of command on one
kind of family; its pool holds ``VARIANTS`` jobs.  Variant ``v`` belongs to
stratum ``v % STRATA``, and the stratum alone fixes what drives the job's
cost (export format, coordinate decade, modulus bucket, family kind); the
rest (positions, signs, primes of the same size, spec details) is random.

A run's job list is a prefix of a sequence of *rounds*; each round holds
every slot ``weight`` times.  Successive draws from a slot walk through the
strata in ``WALK`` order, from a seeded starting point, so any run of
consecutive draws mixes cheap and costly strata.  Inside a stratum the draws
take the variants in a seeded order, so a slot repeats no job within its
first ``VARIANTS`` draws.  A round lists the draw ``k`` of a slot of weight
``w`` at position ``(k + 1/2) / w``, with ties in seeded order, so a round cut
short holds each slot in proportion to its weight.  So every run has nearly
the same cost mix, which keeps the medians steady across seeds, while the
seed still changes which inputs the program sees.

The pools come from a fixed RNG per workload, so the outputs recorded in
``expected.json`` (at a trusted commit, by ``record_expected.py``) cover
every job a seed can draw.  Job arguments hold placeholders that the runner
replaces: ``@spec`` and ``@dprime`` become paths of written spec files,
``@out`` a fresh artifact path or directory.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass

STRATA = 8
VARIANTS = 6 * STRATA
WALK = (0, 4, 2, 6, 1, 5, 3, 7)  # strata in bit-reversed order
WORKLOADS = ("eta-near", "eta-far", "certify")
# Wall seconds of one round on the reference machine (2 cores, Python
# 3.11.7); an end-to-end run sizes its job list from these.
ROUND_SECONDS = {"eta-near": 0.40, "eta-far": 0.37, "certify": 3.5}

NEAR = 10**4
FAR_DECADES = range(9, 15)  # |coord| in [10^9, 10^15)
FORMATS = ("csv", "pgm", "json")


@dataclass(frozen=True)
class Job:
    key: str  # "<slot>/<variant>", unique within the workload
    kind: str  # the CLI subcommand
    args: tuple[str, ...]  # argv with @spec / @dprime / @out placeholders
    files: tuple[tuple[str, str], ...] = ()  # (placeholder name, file text)

    @property
    def preset(self):
        return flag(self.args, "--preset")

    def file_text(self, name: str):
        return dict(self.files).get(name)

    def signature(self) -> str:
        """Digest of everything the program sees, to detect pool drift."""
        blob = json.dumps([list(self.args), [list(f) for f in self.files]])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def cells(self) -> int:
        """Window cells the command evaluates: box volume, or the summed
        density grid volumes (shift box grown by each side)."""
        if self.kind == "eta":
            return _volume(flag(self.args, "--box"), 0)
        if self.kind == "density":
            sides = [int(s) for s in flag(self.args, "--sides").split(",")]
            return sum(_volume(flag(self.args, "--shift-search"), n) for n in sides)
        return 0


def flag(args, name):
    """Value following ``name`` in an argument list, or None."""
    return next((args[i + 1] for i, a in enumerate(args[:-1]) if a == name), None)


def _volume(box_text: str, grow: int) -> int:
    out = 1
    for part in box_text.split(","):
        lo, hi = part.split(":")
        out *= int(hi) - int(lo) + 1 + 2 * grow
    return out


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi) if _is_prime(n)]


def _pick(rng, options, s: int, strata: int = STRATA):
    """Random element of the s-th of ``strata`` equal slices of ``options``
    (sorted by cost, so the slice fixes the cost class)."""
    n = len(options)
    lo = n * s // strata
    return rng.choice(options[lo : max(n * (s + 1) // strata, lo + 1)])


def _prime_near(rng, lo: int, hi: int, avoid=()) -> int:
    while True:
        p = rng.randrange(lo, hi)
        while not _is_prime(p):
            p += 1
        if p not in avoid:
            return p


def _box(center, half) -> str:
    return ",".join(f"{c - h}:{c + h}" for c, h in zip(center, half))


def _source(spec):
    """CLI arguments and files for a preset name or a spec text."""
    if spec.startswith("dim "):
        return ("--spec", "@spec"), (("spec", spec),)
    return ("--preset", spec), ()


# ---------------------------------------------------------------------------
# seeded family texts


def _unimodular(rng) -> str:
    k, m = rng.randint(-3, 3), rng.randint(-3, 3)
    return f"[[1,{m}],[{k},{k * m + 1}]]"


def _transform_family(rng, s) -> str:
    lines = [
        "dim 2",
        "rect [2,1]",
        f"rect [1,{rng.choice((3, 5))}]",
        f"template base=[[1,{rng.randrange(2)}],[0,2]] scale=(2,2) params=primes",
        f"transform {_unimodular(rng)}",
    ]
    if s % 2:
        lines.insert(3, "static [[3,1],[0,3]]")
    return "\n".join(lines) + "\n"


def _geometric_family(rng, s) -> str:
    slots = rng.choice((("t", "1"), ("t", "2"), ("2t", "t"), ("t^2", "1"), ("3", "t")))
    extra = rng.choice(("rect [1,3]", "rect [5,1]", "rect [1,7]"))
    return f"dim 2\nrecttemplate [{','.join(slots)}] params=geometric:{(2, 3, 5)[s % 3]}\n{extra}\n"


def _template_primes_family(rng, s) -> str:
    excl = ",".join(map(str, sorted(rng.sample((2, 3, 5, 7), 2))))
    return (
        "dim 2\n"
        f"template base=[[{1 + s % 2},{rng.randrange(3)}],[0,{rng.choice((2, 3))}]] scale=(2,2) "
        f"params=primes!{excl}\n"
        f"rect [{rng.choice((2, 3))},1]\n"
    )


_NEAR_FAMILIES = (_transform_family, _geometric_family, _template_primes_family)


# ---------------------------------------------------------------------------
# slots: name -> (weight, builder(rng, stratum) -> (kind, args, files))


def _eta(spec, box, s):
    src, files = _source(spec)
    args = ("eta",) + src + ("--box", box, "--format", FORMATS[s % len(FORMATS)], "--out", "@out")
    return "eta", args, files


def _density(spec, sides, shift, s):
    src, files = _source(spec)
    args = ("density",) + src + ("--sides", sides, "--shift-search", shift)
    if s % 2:
        args += ("--out", "@out")
    return "density", args, files


def _near2(rng, half=30):
    return tuple(rng.randint(-NEAR + half, NEAR - half) for _ in range(2))


def _near1(rng, s, half):
    """Centre whose magnitude lies in bucket s of [0, NEAR - half], random sign."""
    span = NEAR - half
    return rng.choice((-1, 1)) * rng.randint(span * s // STRATA, span * (s + 1) // STRATA)


def _near_slots():
    def eta_2d(pick):
        return lambda rng, s: _eta(pick(rng, s), _box(_near2(rng), (30, 30)), s)

    return {
        "eta-ex1": (1, eta_2d(lambda rng, s: "ex1")),
        "eta-ex2": (1, eta_2d(lambda rng, s: "ex2")),
        "eta-rect-demo": (1, eta_2d(lambda rng, s: "rect-demo")),
        # twice per round, so p90 falls inside the squarefree exports' costs
        # rather than on the edge between them and the cheaper slots
        "eta-squarefree": (2, lambda rng, s: _eta("squarefree-1d", _box((_near1(rng, s, 2000),), (2000,)), s)),
        "eta-transform": (1, eta_2d(_transform_family)),
        "eta-geometric": (1, eta_2d(_geometric_family)),
        "eta-template-primes": (1, eta_2d(_template_primes_family)),
        "density-preset": (
            1,
            lambda rng, s: _density(("ex1", "ex2", "rect-demo")[s % 3], "2,5,9", _box(_near2(rng, 40), (10, 10)), s),
        ),
        "density-spec": (
            1,
            lambda rng, s: _density(_NEAR_FAMILIES[s % 3](rng, s // 3), "2,5,9", _box(_near2(rng, 40), (10, 10)), s),
        ),
        "density-squarefree": (
            1,
            lambda rng, s: _density("squarefree-1d", "10,100,400", _box((_near1(rng, s, 600),), (100,)), s),
        ),
    }


def _far(rng, s) -> int:
    """Coordinate in the decade that stratum s maps to, random sign."""
    decade = 10 ** FAR_DECADES[len(FAR_DECADES) * s // STRATA]
    return rng.choice((-1, 1)) * rng.randrange(decade, 10 * decade)


def _far_slots():
    def eta_1d(spec, half):
        return lambda rng, s: _eta(spec, _box((_far(rng, s),), (half,)), s)

    def eta_2d(pick):
        return lambda rng, s: _eta(pick(rng, s), _box((_far(rng, s), _far(rng, s)), (20, 20)), s)

    return {
        "eta-squarefree-far": (1, eta_1d("squarefree-1d", 50)),
        "eta-cubefree-far": (1, eta_1d("dim 1\nrecttemplate [t^3] params=primes\n", 50)),
        "eta-4t2-far": (1, eta_1d("dim 1\nrecttemplate [4t^2] params=primes\n", 150)),
        "eta-ex1-far": (1, eta_2d(lambda rng, s: "ex1")),
        "eta-ex2-far": (1, eta_2d(lambda rng, s: "ex2")),
        "eta-template-far": (1, eta_2d(_template_primes_family)),
        "density-squarefree-far": (
            1,
            lambda rng, s: _density("squarefree-1d", "3,12", _box((_far(rng, s),), (15,)), s),
        ),
        "density-2d-far": (
            1,
            lambda rng, s: _density(
                _template_primes_family(rng, s) if s % 2 else "ex2",
                "2,5",
                _box((_far(rng, s), _far(rng, s)), (5, 5)),
                s,
            ),
        ),
    }


# certify families ----------------------------------------------------------
# Each takes (rng, s, strata) and draws its cost-driving parameters from the
# s-th of `strata` cost buckets.

_P300 = _primes(300, 800)
_P3000 = _primes(3000, 9000)


def _rect2(rng, s, strata=STRATA):
    # the missed-coset scan walks about p cosets
    p = _pick(rng, _P3000, s, strata)
    q = _prime_near(rng, 3000, 9000, avoid=(p,))
    return f"dim 2\nrect [{p},1]\nrect [1,{q}]\n"


_RECT3 = sorted(((p, r) for p in _P300 for r in (2, 3, 5, 7)), key=lambda t: t[0] * t[1])


def _rect3(rng, s, strata=STRATA):
    # the missed-coset scan walks about p*r cosets
    p, r = _pick(rng, _RECT3, s, strata)
    q = _prime_near(rng, 300, 800, avoid=(p,))
    t = rng.choice([x for x in (3, 5, 7, 11, 13) if x != r])
    return f"dim 2\nrect [{p},1]\nrect [1,{q}]\nrect [{r},{t}]\n"


def _rect_limit(rng, s):
    # moduli near 10^6: the missed-coset scan stops at rep_limit; it tests
    # one cover per coset when p > q (strata 0-3) and two when p < q
    p = _prime_near(rng, 900_000, 1_100_000)
    q = _prime_near(rng, 900_000, 1_100_000, avoid=(p,))
    if (p < q) != (s >= STRATA // 2):
        p, q = q, p
    return f"dim 2\nrect [{p},1]\nrect [1,{q}]\n"


_PRIMES_1D = sorted(
    ((p, q, c) for p in _primes(13, 31) for q in _primes(13, 31) if p < q for c in (2, 3)),
    key=lambda t: t[0] * t[1] * t[2],
)


def _primes_1d(rng, s, strata=STRATA):
    p, q, c = _pick(rng, _PRIMES_1D, s, strata)
    return f"dim 1\nrect [{p}]\nrect [{q}]\nrecttemplate [{c}t] params=primes\n"


_PRIMES_2D = sorted(((a, b) for a in _primes(11, 26) for b in _primes(11, 26) if a != b), key=lambda t: t[0] * t[1])


def _primes_2d(rng, s, strata=STRATA):
    a, b = _pick(rng, _PRIMES_2D, s, strata)
    return f"dim 2\nrect [{a},1]\nrect [1,{b}]\nrecttemplate [2t,t] params=primes\n"


_GEOMETRIC = sorted(((p, q) for p in _primes(11, 41) for q in _primes(11, 41) if p != q), key=lambda t: t[0] * t[1])


def _geometric_cert(rng, s, strata=STRATA):
    p, q = _pick(rng, _GEOMETRIC, s, strata)
    slot = rng.choice(("t,2", "t,3", "2t,1"))
    return f"dim 2\nrect [{p},1]\nrect [1,{q}]\nrecttemplate [{slot}] params=geometric:{(2, 3, 5)[s % 3]}\n"


def _explicit_cert(rng, s, strata=STRATA):
    vals = sorted(rng.sample((3, 5, 7, 11, 13, 17, 19), 3))
    q = _pick(rng, _primes(20, 200), s, strata)
    return f"dim 2\nrect [1,{q}]\nrecttemplate [t,2] params=explicit:{','.join(map(str, vals))}\n"


def _nondiag_cert(rng, s, strata=STRATA):
    a = rng.randrange(1, 3)
    if s % 2:
        tmpl = f"template base=[[3,{a}],[0,3]] scale=(1,1) params=geometric:{rng.choice((2, 5))}"
    else:
        tmpl = f"template base=[[1,{a}],[0,{rng.choice((3, 5))}]] scale=(2,2) params=primes"
    p = _pick(rng, _primes(10, 60), s // 2, strata // 2)
    return f"dim 2\nstatic [[2,1],[0,2]]\nrect [1,{p}]\n{tmpl}\n"


_PERIODIC = sorted(
    ((p, q, r) for p in (3, 5, 7, 11) for q in (3, 5, 7, 11) if p != q for r in (13, 17)),
    key=lambda t: t[0] * t[1] * t[2] ** 2,
)


def _periodic_cert(rng, s, strata=STRATA):
    p, q, r = _pick(rng, _PERIODIC, s, strata)
    return f"dim 2\nrect [{p},1]\nrect [1,{q}]\nrect [{r},{r}]\n"


_CRT_FAMILIES = (
    "dim 2\nrecttemplate [t,t] params=primes\n",
    "dim 2\nrecttemplate [t,t^2] params=primes!2\n",
    "dim 2\nrect [4,1]\nrecttemplate [t,t] params=primes!2,3\n",
)
_CERT_FAMILIES = (_rect2, _rect3, _primes_1d, _primes_2d)
_PRESETS = ("ex1", "ex2", "rect-demo", "squarefree-1d")
_DPRIME = {1: "dim 1\nrecttemplate [t^2] params=primes\n", 2: "dim 2\nrecttemplate [t,t] params=oddprimes\n"}


def _decide(spec, *extra):
    src, files = _source(spec)
    return "decide", ("decide",) + src + extra, files


def _report(spec, dprime: bool, rng):
    src, files = _source(spec)
    args = ("report",) + src + ("--max-side", str(rng.choice((2, 3))))
    if dprime:
        dim = 1 if spec == "squarefree-1d" or spec.startswith("dim 1") else 2
        args += ("--dprime", "@dprime")
        files += (("dprime", _DPRIME[dim]),)
    return "report", args, files


def _zero(spec, shape, *extra):
    src, files = _source(spec)
    return "zero", ("zero",) + src + ("--shape", shape) + extra, files


def _zero_scan(rng, s):
    family = ("ex1", "ex2", "rect-demo", None)[s % 4] or _periodic_cert(rng, rng.randrange(STRATA))
    search = _box((rng.randint(-100, 100), rng.randint(-100, 100)), (40, 40))
    return _zero(family, ("0:1x0:0", "0:2x0:1")[s // 4], "--search", search)


def _zero_crt(rng, s):
    if s % 4 == 0:
        return _zero("rect-demo", "0:1x0:1", "--crt")
    shape = f"0:{2 + s // 4}x0:{rng.randint(1, 2)}"
    return _zero(_CRT_FAMILIES[s % 4 - 1], shape, "--crt", "--instance-bound", "100000")


def _certify_slots():
    return {
        "decide-rect2": (8, lambda rng, s: _decide(_rect2(rng, s))),
        "decide-rect3": (8, lambda rng, s: _decide(_rect3(rng, s))),
        "decide-rect-limit": (1, lambda rng, s: _decide(_rect_limit(rng, s))),
        "decide-primes-1d": (8, lambda rng, s: _decide(_primes_1d(rng, s))),
        "decide-primes-2d": (8, lambda rng, s: _decide(_primes_2d(rng, s))),
        "decide-geometric": (4, lambda rng, s: _decide(_geometric_cert(rng, s))),
        "decide-explicit": (4, lambda rng, s: _decide(_explicit_cert(rng, s))),
        "decide-nondiag": (8, lambda rng, s: _decide(_nondiag_cert(rng, s))),
        "decide-preset": (
            4,
            lambda rng, s: _decide(
                _PRESETS[s % 4], "--max-side", str(rng.randint(4, 6)), "--radius", str(rng.randint(16, 32))
            ),
        ),
        "report": (8, lambda rng, s: _report(_CERT_FAMILIES[s % 4](rng, s // 4, 2), False, rng)),
        "report-dprime": (
            8,
            lambda rng, s: _report(_PRESETS[s] if s < 4 else _primes_2d(rng, s - 4, 4), True, rng),
        ),
        "zero-scan": (8, _zero_scan),
        "zero-crt": (4, _zero_crt),
        "zero-periodic": (
            8,
            lambda rng, s: _zero(_periodic_cert(rng, s // 2, 4), ("0:1x0:1", "0:2x0:1")[s % 2], "--periodic-exact"),
        ),
        "reproduce": (4, lambda rng, s: ("reproduce", ("reproduce", ("ex1", "ex2")[s % 2], "--outdir", "@out"), ())),
    }


_SLOTS = {"eta-near": _near_slots, "eta-far": _far_slots, "certify": _certify_slots}


def pool(workload: str) -> dict[str, tuple[int, list[Job]]]:
    """slot -> (weight, variant jobs); fixed for the workload, seed-independent."""
    if workload not in _SLOTS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    rng = random.Random(f"bfree-bench-pool:{workload}")
    out = {}
    for slot, (weight, build) in _SLOTS[workload]().items():
        variants = []
        for v in range(VARIANTS):
            kind, args, files = build(rng, v % STRATA)
            variants.append(Job(f"{slot}/{v}", kind, tuple(args), tuple(files)))
        out[slot] = (weight, variants)
    return out


def rounds(workload: str, seed: int):
    """Endless seeded sequence of rounds (lists of jobs) for the workload."""
    slots = sorted(pool(workload).items())
    rng = random.Random(seed)
    walk = {slot: rng.randrange(STRATA) for slot, _ in slots}
    per = VARIANTS // STRATA
    order = {(slot, s): rng.sample(range(per), per) for slot, _ in slots for s in range(STRATA)}
    drawn = {key: 0 for key in order}
    while True:
        batch = []
        for slot, (weight, variants) in slots:
            for k in range(weight):
                s = WALK[walk[slot] % STRATA]
                walk[slot] += 1
                v = order[slot, s][drawn[slot, s] % len(order[slot, s])]
                drawn[slot, s] += 1
                batch.append(((k + 0.5) / weight, rng.random(), variants[s + STRATA * v]))
        batch.sort(key=lambda item: item[:2])
        yield [job for _, _, job in batch]


def schedule(workload: str, seed: int, n_jobs: int) -> list[Job]:
    """The seed's first ``n_jobs`` jobs."""
    gen = rounds(workload, seed)
    out = []
    while len(out) < n_jobs:
        out += next(gen)
    return out[:n_jobs]
