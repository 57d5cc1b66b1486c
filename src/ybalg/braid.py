"""Symmetric group combinatorics and braidings.

A permutation w of {1,...,n} is the tuple of its images (w(1), ..., w(n)),
as in the second row; a Braiding solves the YBE, so by Matsumoto's theorem
T_w depends on nothing else and T_{vw} = T_v T_w when l(vw) = l(v) + l(w),
which makes tensoralg's hexagon-built beta_{ij} equal to T_{chi_ij} and
each lift there a chain of its crossings.  The canonical reduced word,
from descent stripping, is deterministic; each of its l(w) swaps restarts
the scan for a descent: O(n l(w)) steps.
"""

from __future__ import annotations

from .linear import Report, _leg_rows, map_invert_exact


def perm_inverse(w):
    """The inverse of the permutation w, as its tuple of images."""
    inv = [0] * len(w)
    for i, v in enumerate(w, start=1):
        inv[v - 1] = i
    return tuple(inv)


def perm_reduced_word(w):
    """Canonical reduced expression of w as a list of generator indices.

    Repeatedly strips the first descent: if w(i) > w(i+1) then
    w = (w s_i) s_i with l(w s_i) = l(w) - 1.
    """
    images = list(w)
    rev = []
    while True:
        for i in range(len(images) - 1):
            if images[i] > images[i + 1]:
                rev.append(i + 1)
                images[i], images[i + 1] = images[i + 1], images[i]
                break
        else:
            break
    return rev[::-1]


def w_block(i):
    """w_i in S_{2i}: 1..i -> odd positions, i+1..2i -> even positions."""
    return tuple(range(1, 2 * i, 2)) + tuple(range(2, 2 * i + 1, 2))


class Braiding:
    """An invertible degree-2 map on V that solves the Yang-Baxter equation.

    fwd, and inv when supplied, must map V (x) V to V (x) V: in-degree 2
    and every out-word two letters of V.  The inverse is computed exactly
    unless supplied.  Construction checks fwd(inv(w)) = w on every basis
    word, which on the finite-dimensional V (x) V makes inv a two-sided
    inverse, and the YBE, so every braiding passes them; `ybe` keeps the
    Report of the YBE check, decided once per braiding.
    """

    def __init__(self, space, fwd, inv=None):
        for name, f in (("map", fwd), ("inverse", inv)):
            if f is not None and (f.in_degree != 2 or any(
                    len(w) != 2 or not all(0 <= a < space.dim for a in w)
                    for col in f.columns.values() for w, _ in col.terms)):
                raise ValueError("braiding %s is not a map V (x) V -> "
                                 "V (x) V" % name)
        self.space = space
        self.fwd = fwd
        self.inv = inv if inv is not None else map_invert_exact(fwd, space)
        # fwd(inv(w)) = w on each basis word
        if not _leg_rows(Report(), [space] * 2, [
                ("right-inverse", [(self.inv, 0), (fwd, 0)], [])]).ok:
            raise ValueError("supplied inverse is not a right inverse")
        self.ybe = check_yang_baxter(self.fwd, space)
        if not self.ybe.ok:
            raise ValueError("Yang-Baxter equation fails at %r"
                             % (self.ybe.entries[0]["witness"],))
        self._beta_slot_cache = {}  # tensoralg.beta_slots images


def check_yang_baxter(sigma, space):
    """Exact YBE check on V^{(x)3}: sigma_1 sigma_2 sigma_1 = sigma_2
    sigma_1 sigma_2, a Report with one entry "yang-baxter" whose witness is
    (word, lhs_image, rhs_image)."""
    return _leg_rows(Report(), [space] * 3, [(
        "yang-baxter", [(sigma, 0), (sigma, 1), (sigma, 0)],
        [(sigma, 1), (sigma, 0), (sigma, 1)])])
