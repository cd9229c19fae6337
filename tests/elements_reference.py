"""A check on 2-functors that nothing in the package calls.

Kept for the tests of the elements construction only: they check with it
that the 2-functors between 2-categories of elements induced by a
transformation or by restriction along a 2-functor are bijective on each
hom.
"""

from sigmacat.transforms import TwoFunctor


def is_two_fully_faithful(T: TwoFunctor) -> bool:
    """Hom-by-hom bijectivity on 1-cells and 2-cells."""
    a, b = T.source, T.target
    for A in a.objects:
        for B in a.objects:
            src_cells = a.one_cells(A, B)
            tgt_cells = b.one_cells(T.obj_map[A], T.obj_map[B])
            image = [T.map1[f] for f in src_cells]
            if len(set(image)) != len(image) or set(image) != set(tgt_cells):
                return False
            for f in src_cells:
                for g in src_cells:
                    cells = a.two_cells_between(f, g)
                    image2 = [T.map2[x] for x in cells]
                    want = b.two_cells_between(T.map1[f], T.map1[g])
                    if len(set(image2)) != len(image2) or set(image2) != set(want):
                        return False
    return True
