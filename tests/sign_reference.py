"""An independent Koszul sign for the oracles: sorting by adjacent swaps."""

from fractions import Fraction


def insertion_sort_index(indices):
    """Sort an index tuple, returning the Koszul sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(idx)


def torsion_lookup(components, i, j, k):
    """T_ijk read from the components T_abc, a < b < c, of a skew 3-form."""
    sign, key = insertion_sort_index((i, j, k))
    return sign * components.get(key, Fraction(0))
