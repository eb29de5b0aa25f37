"""The geometry behind the hyperplanar pass, on numbers small enough to check
by hand.

One basis vector is isolated; the others span a hyperplane with an integer
normal p.  The isolated vector is sheared parallel to that hyperplane (its
layer number p.x stays fixed) toward the orthogonal projection foot, moving
by a rounded combination of the spanning vectors.
"""

from fractions import Fraction

from cubify import Basis, dot, hyperplanar_pass, hyperplane_normal
from cubify.hyperplanar import AcceptedShear

# ---------------------------------------------------------------- the normal

span = ((1, 0, 1), (-1, 0, 2))
p = hyperplane_normal(span)
print("span", span)
print("normal", p, " dots:", [dot(p, v) for v in span])

# ------------------------------------------------------------------ a shear

# the first two rows span the y-z plane; a pass without sublattice
# reduction screens (5, 1, 0) against them and shears it in place
sub = ((0, 1, 0), (0, 0, 1))
x = (5, 1, 0)
trace = []
hyperplanar_pass(Basis(sub + (x,)), reduce_sublattice=False, trace=trace)
(rec,) = trace
pn = rec.normal
print()
print("shear %s along %s -> %s" % (rec.before, sub, rec.after))
print("layer before %d, after %d (normal %s)"
      % (dot(pn, rec.before), dot(pn, rec.after), pn))

# the foot of the perpendicular from x onto the normal line
pp = dot(pn, pn)
foot = tuple(Fraction(dot(pn, x) * c, pp) for c in pn)
print("projection foot", foot, "- the shear lands as close to it as the")
print("sublattice grid allows, at most half a step off per coordinate")

# ------------------------------------------------- a full instrumented pass

B = Basis([[9, 2, 1],
           [4, 8, 1],
           [2, 3, 7]])
trace = []
out = hyperplanar_pass(B, trace=trace)
print()
print("pass on", list(B))
for rec in trace:
    assert isinstance(rec, AcceptedShear)
    print("  accepted  %s -> %s   layer %d (normal %s)" % (
        rec.before, rec.after, dot(rec.normal, rec.after), rec.normal))
print("result", list(out))
