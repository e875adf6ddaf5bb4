"""Values the benchmark checks the library's answers against.

This is the benchmark's own copy; it deliberately does not import the
tables in ``tworoots.verify``, so that a change to the library's oracles
cannot change what the benchmark accepts.  Diagrams are named by family
tag: A_n = Path(n), D_n = Y(1,1,n-3), E_n = Y(1,2,n-4).
"""

# Number of positive roots: n(n+1)/2 for A_n, n(n-1) for D_n, 36/63/120 for
# E6/E7/E8.
POSITIVE_ROOTS = {
    "A4": 10, "A5": 15, "A6": 21, "A7": 28, "A8": 36,
    "D4": 12, "D5": 20, "D6": 30, "D7": 42, "D8": 56,
    "E6": 36, "E7": 63, "E8": 120,
}

# Sizes of the Weyl group orbits of positive 2-roots, and the coordinate
# heights of the highest element of each orbit, listed in the same order.
ORBIT_SIZES = {
    "A4": [15], "A5": [45], "A6": [105], "A7": [210], "A8": [378],
    "D4": [6, 6, 6], "D5": [10, 60], "D6": [15, 180], "D7": [21, 420],
    "D8": [28, 840], "E6": [270], "E7": [945], "E8": [3780],
}
HIGHEST_HEIGHTS = {
    "A4": [5], "A5": [10], "A6": [17], "A7": [26], "A8": [37],
    "D4": [3, 3, 3], "D5": [4, 11], "D6": [5, 27], "D7": [6, 51],
    "D8": [7, 83], "E6": [28], "E7": [85], "E8": [295],
}

# Every orbit summand, and the whole canonical-basis module of these
# indefinite forks, has a nondegenerate half product form.
RADICAL_DIM = 0
MODULE_ARMS = [(2, 2, 3), (1, 2, 6)]

# Positive roots of Y(4,4,4) up to height 25.
Y444_ARMS = (4, 4, 4)
Y444_HEIGHT_BOUND = 25
Y444_BOUNDED_ROOTS = 25684

# Canonical basis sizes n(n+1)/2 - 1 of the two forks the queries run on.
E8_ARMS = (1, 2, 4)
BASIS_SIZES = {E8_ARMS: 35, Y444_ARMS: 90}

# Weyl group orders, and the kernel order of the action on each orbit
# summand keyed by orbit size.  On the small orbit of D_n, spanned by the
# traceless diagonal e_i e_i - e_j e_j, the sign changes act trivially and
# the coordinate permutations faithfully, so the kernel has order 2^(n-1):
# 8, 16 and 32.
WEYL_ORDERS = {"D4": 192, "D5": 1920, "D6": 23040, "E6": 51840}
KERNEL_ORDERS = {
    "D4": {6: 8},
    "D5": {10: 16, 60: 1},
    "D6": {15: 32, 180: 2},
    "E6": {270: 1},
}
