"""The map builder of ``recurrence`` as a bincount over the kept routes.

``recurrence.generate_map`` and ``binary_quadratic_map`` gather each map's
entries from a route table made once at import.  The builder below makes
the same maps the way the route table's sums are defined: ``np.bincount``
of every kept route's Pauli weight into its (output, source, target) cell,
the symmetric part 0.5 (m + m^T), and for the binary sub-family the
``np.ix_`` slice of the 16-cell map to the binary cells.  The tests
require the gathered maps to equal these to the last bit.
"""

import numpy as np

from eppsim.recurrence import _BINARY_CELLS, _ROUTE_CELL, _ROUTE_PAULI, QuadraticMap


def cube(f):
    """The symmetrised 16 x 16 x 16 cube of the Pauli table ``f``."""
    m = np.bincount(_ROUTE_CELL, weights=f.take(_ROUTE_PAULI), minlength=16**3)
    m = m.reshape(16, 16, 16)
    return 0.5 * (m + m.transpose(0, 2, 1))


def generate_map(noise):
    """``recurrence.generate_map``."""
    return QuadraticMap(cube(noise.f))


def binary_quadratic_map(noise):
    """``recurrence.binary_quadratic_map``: the 16-cell cube sliced to the
    binary cells."""
    return QuadraticMap(cube(noise.f)[np.ix_(_BINARY_CELLS, _BINARY_CELLS, _BINARY_CELLS)])
