"""The map builder of ``recurrence`` as a bincount over the kept routes.

``recurrence.generate_map`` and ``binary_quadratic_map`` gather each map's
entries from a route table made once at import.  The builder below makes
the same maps the way the route table's sums are defined: ``np.bincount``
of every kept route's Pauli weight into its (output, source, target) cell,
the symmetric part 0.5 (m + m^T), and for the binary sub-family the
``np.ix_`` slice of the 16-cell map to the binary cells.  The kept routes
come from ``route_reference.routed_terms``, through the bit algebra of
``bellbits``, and not from the tables of the module under test.  The tests
require the gathered maps to equal these to the last bit.
"""

import numpy as np

from eppsim.recurrence import _BINARY_CELLS, QuadraticMap
from route_reference import routed_terms

# every kept route's flat (output, source, target) cell and its (mu, nu)
# entry of the flat Pauli table, in route order
_ROUTE_CELL, _ROUTE_PAULI = (np.array(column) for column in zip(*(
    ((out * 16 + src) * 16 + tgt, 4 * mu + nu)
    for src, tgt, mu, nu, out in routed_terms() if out is not None
)))


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
