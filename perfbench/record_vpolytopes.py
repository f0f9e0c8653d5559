"""Record the V-polytope tuples of the tuple-check workload with their exact
volume polynomials.

V-polytope requests are too slow for the gate to recompute per run, so their
expected outputs are recorded once, here, by two routes that must agree:
polarization (``volume_polynomial``) and interpolation
(``volume_polynomial_interpolated``).  The workload then applies seeded
volume-preserving changes (coordinate order, reflections, translations) and
a common scale t, under which V_I scales by t^3.

Run from the repository root:  python3 perfbench/record_vpolytopes.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mixedvol import (  # noqa: E402
    BodyTuple,
    VPolytope,
    affine_dimension,
    body_to_json,
    format_rational,
    volume_polynomial,
    volume_polynomial_interpolated,
)

POOL = HERE / "vpolytopes.json"

# Vertex counts of the three bodies of each recorded tuple in R^3.
SHAPES = ((5, 5, 5), (5, 6, 5), (6, 5, 6), (6, 6, 6))


def _body(rng: random.Random, count: int) -> VPolytope:
    while True:
        pts = set()
        while len(pts) < count:
            pts.add(tuple(rng.randint(0, 3) for _ in range(3)))
        body = VPolytope(3, tuple(tuple(Fraction(x) for x in p) for p in sorted(pts)))
        if affine_dimension(body) == 3:
            return body


def main() -> int:
    rng = random.Random(2011)
    pool = []
    for shape in SHAPES:
        bodies = tuple(_body(rng, c) for c in shape)
        t = BodyTuple(bodies)
        polar = volume_polynomial(t)
        interp = volume_polynomial_interpolated(t)
        if polar.coefficients != interp.coefficients:
            print(f"routes disagree on tuple {shape}", file=sys.stderr)
            return 1
        pool.append(
            {
                "bodies": [body_to_json(b) for b in bodies],
                "polynomial": {
                    ",".join(map(str, idx)): format_rational(v)
                    for idx, v in sorted(polar.coefficients.items())
                },
            }
        )
    lines = ",\n".join(json.dumps(entry) for entry in pool)
    POOL.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(pool)} tuples to {POOL.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
