"""A seeded census of the hard families (tests/helpers.hard_family): each
shape yields families of its intended kind, judged by brute force over a
period or a box, and no verdict is asserted, since the open proximality
items change those.  The kinds:

* ``span-all``: two members of the template (t = 2, 3) already generate
  Z^m, so its span is Z^m and no proper lattice holds its members;
* ``union-all``: the static entries cover every cell of [0, N)^m, N the
  lcm of their indices, so they cover Z^m;
* ``hyperplanes``: every free cell of a box lies on the intended
  hyperplanes, and some draw has a free cell there;
* ``peelable``: the peeled spelling has the unpeeled one's free cells on a
  box, every entry of it has a proper span, and the template over the rest
  has a finer span than the whole template.
"""

import random
from itertools import product
from math import lcm

from bfree.families import Static
from bfree.windows import Box
from helpers import HARD_SHAPES, hard_family

DRAWS = 240
RADIUS = {2: 8, 3: 3}


def _span_all(spec, info):
    template = info["template"]
    statics = [e for e in spec.entries if isinstance(e, Static)]
    return not template.base.is_diagonal() and template.member(2).sum(template.member(3)).index == 1 and statics


def _union_all(spec, info):
    lattices = [spec.image(e.lattice) for e in spec.entries if isinstance(e, Static)]
    n = lcm(*(lat.index for lat in lattices))
    return all(any(lat.contains(p) for lat in lattices) for p in product(range(n), repeat=spec.dim))


def _free_cells(spec):
    return [p for p in Box.centered(RADIUS[spec.dim], spec.dim).points() if spec.free(p)]


def _on_hyperplanes(spec, info):
    form, values = info["form"], info["values"]
    return all(form[0] * q[0] + form[1] * q[1] in values for q in map(spec.pullback, _free_cells(spec)))


def _peelable(spec, info):
    box = Box.centered(RADIUS[spec.dim], spec.dim)
    same = all(spec.covered(p) == info["whole"].covered(p) for p in box.points())
    rest, whole = info["rest"].span, info["template"].span
    finer = rest.index > whole.index and all(whole.contains(c) for c in rest.columns)
    return same and finer and all(e.span.is_proper() for e in spec.entries)


JUDGES = {"span-all": _span_all, "union-all": _union_all, "hyperplanes": _on_hyperplanes, "peelable": _peelable}


def test_every_shape_yields_families_of_its_kind():
    rng = random.Random(41)
    drawn = {shape: 0 for shape in HARD_SHAPES}
    with_free_cells = 0
    for i in range(DRAWS):
        shape, m = HARD_SHAPES[i % len(HARD_SHAPES)], 2 if i % 3 else 3
        spec, info = hard_family(rng, m, shape)
        assert JUDGES[shape](spec, info), (shape, spec)
        drawn[shape] += 1
        if shape == "hyperplanes":
            with_free_cells += bool(_free_cells(spec))
    assert min(drawn.values()) >= DRAWS // len(HARD_SHAPES)
    assert with_free_cells >= 1
