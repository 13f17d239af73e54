"""Counting lines on hypersurfaces: 2875 on the quintic threefold.

The recipe: lines in P^n form the Grassmannian Gr(2, n+1).  Restricting a
degree-d equation to the moving 2-plane gives a section of Sym^d(U*), the
bundle of degree-d forms on that plane.  A line lies on the hypersurface
exactly where the section vanishes, so when rank Sym^d(U*) = d+1 equals
dim Gr(2, n+1) = 2(n-1) the answer is the integral of the top Chern class.

Run with:  python demos/lines_on_quintic.py
"""

from curvecount import (
    GrassmannianRing,
    count_curves,
    count_lines_hypersurface,
    dual_universal_vector,
    integrate,
    sym_power,
)

# Step by step for the quintic threefold in P^4.
ring = GrassmannianRing(2, 5)
forms = sym_power(dual_universal_vector(ring), 5)
print(f"moduli space {ring}: dimension {ring.dim}")
print(f"bundle of quintic forms on the moving plane: rank {forms.rank}")
print("top Chern class:", forms.top())
print("lines on the quintic threefold:", integrate(forms.top()))
print()

# The pipeline wraps the same computation with provenance.
report = count_lines_hypersurface(4, 5)
print("pipeline count:", report.count)
for label, value in report.trace:
    print(f"  {label}: {value}")
print()

# The classical warm-up: 27 lines on a cubic surface in P^3.
print("lines on the cubic surface:", count_lines_hypersurface(3, 3).count)

# And the degenerate sanity check: a 'degree-1 hypersurface' in P^2 is a
# line, which contains exactly one line (itself).
print("lines on a line:", count_lines_hypersurface(2, 1).count)
print()

# Complete intersections work the same way with one forms bundle per
# equation; the ranks must add up to the moduli dimension.  `count_curves`
# counts conics too, by Bott's formula over the torus-fixed conics
# (demos/conics_on_quintic.py builds the bundle of conics in the moving
# plane instead); the conic counts on the Calabi-Yau complete intersections
# are those of Libgober and Teitelbaum.
for n, degrees in ((4, [5]), (5, [2, 4]), (5, [3, 3]), (6, [2, 2, 3]), (7, [2, 2, 2, 2])):
    for kind in ("lines", "conics"):
        count = count_curves(kind, n, degrees).count
        print(f"{kind} on the {tuple(degrees)} complete intersection in P^{n}: {count}")
