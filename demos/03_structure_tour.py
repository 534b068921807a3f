"""
The structure the solver leans on
=================================

The constructive proof peels a graph one piece at a time: a pendant edge, a
whole attached cycle, or an ear or ear chain of an end block.  These are the
tools that find those pieces.
"""

from pcfcolor import (
    Graph,
    block_decomposition,
    classify_end_block,
    find_good_ear_or_chain,
    is_outerplanar,
    outer_embedding,
)

# two triangles joined at a vertex, plus a tail
g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6)])

decomp = block_decomposition(g)
print("blocks:", decomp.blocks)
print("cut vertices:", sorted(decomp.cut_vertices))
print("end blocks:", decomp.end_blocks())

# a 2-connected block embeds with all vertices on an outer cycle;
# chords must not cross
b = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2), (2, 5)])
emb = outer_embedding(b)
print("\nouter cycle:", emb.order)
print("chords:", emb.chords)

# K4 has no such embedding
k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
print("K4 outerplanar?", is_outerplanar(k4))

# in a non-cycle block, some ear or ear chain avoids any chosen vertex x
for x in (0, 3):
    found = find_good_ear_or_chain(b, emb, x)
    print(f"\ngood structure avoiding x={x}: {found}")

# the classifier is the first step of the solver's peel: the end block cut
# first, its anchor, and the case the solver dispatches on
case = classify_end_block(g)
print("\nend block case:", case.kind, "anchor:", case.anchor)
