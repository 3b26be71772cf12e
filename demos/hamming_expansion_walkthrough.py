"""Vertex expansion on Hamming graphs, and why interiors collapse.

Images with quantized channels form a Hamming graph: vertices are level
words, edges join words differing in one channel.  The interior of a
vertex set (members whose whole radius-k ball stays inside) shrinks
drastically faster than the set itself; that collapse is the engine of
the universal non-robustness bound.  Everything below is computed
exhaustively with bitsets.
"""

import math
from fractions import Fraction

from robustness_envelope import hamming as hm

graph = hm.GraphParams(dims=4, alphabet=2)
print(f"=== H(4,2): {graph.vertex_count} vertices ===")

ball = hm.expand_k(hm.HammingSubset.from_members(graph, [0]), 1)
print(f"closed ball of radius 1 around 0000: {sorted(ball.members())}")
print(f"its radius-1 interior: {sorted(hm.interior_k(ball, 1).members())}")
print(f"its radius-1 expansion: {hm.expand_k(ball, 1).size} vertices")

print()
print("Worst interior ratio over EVERY subset of half size, vs the bound:")
half = graph.vertex_count // 2
for c in (0.25, 0.5, 1.0, 1.5):
    radius = None
    worst = Fraction(0)
    for bits in range(1, 1 << graph.vertex_count):
        s = hm.HammingSubset(graph, bits)
        if s.size > half:
            continue
        check = hm.check_hamgraph_theorem(s, c)
        radius = check.radius
        if check.ratio > worst:
            worst = check.ratio
        assert check.holds
    print(f"  c={c:<5} radius={radius}  worst |Int|/|S| = {float(worst):.4f}"
          f"  < bound 2e^(-2c^2) = {2 * math.exp(-2 * c * c):.4f}")

print()
print("Expansion lower bound (tail form), tight on singleton balls:")
for dims, q in ((4, 2), (2, 3)):
    g = hm.GraphParams(dims, q)
    s = hm.HammingSubset.from_members(g, [0])
    check = hm.harper_check(s, 1)
    print(f"  H({dims},{q}) singleton: expansion {check.expansion_fraction} "
          f">= bound {float(check.lower_bound):.6f}  holds={check.holds}")

print()
print("The image space (2,1,1) IS H(4,2): vertex r is the image of rank r:")
from robustness_envelope.image_space import SpaceParams, image_from_rank, norm_distance
params = SpaceParams(2, 1, 1)
u, v = 0b0000, 0b0110
print(f"  graph distance({u:04b}, {v:04b}) = {graph.distance(u, v)}; "
      f"count-norm of paired images = "
      f"{norm_distance(image_from_rank(params, u), image_from_rank(params, v), 0)}")
