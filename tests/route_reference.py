"""The recurrence's routes term by term, through the bit algebra of ``bellbits``.

``recurrence`` builds its tables from ``CIRCUIT`` with Pauli noise as a cell
relabelling; the tests check those tables, and the exact maps, against this
route-by-route reference.
"""

import itertools
from typing import Iterator

from eppsim.bellbits import (
    PauliIndex,
    epp_unitary,
    flag_flip,
    flag_update,
    keep_predicate,
    pauli_on_bell,
)
from eppsim.recurrence import cell_index, cell_parts


def routed_terms() -> Iterator[tuple[int, int, int, int, int | None]]:
    """All 4096 routed terms of one noisy step.

    Yields (source cell, target cell, mu, nu, output cell), with output cell
    ``None`` for discarded combinations.  mu and nu are packed Pauli indices
    on the source and target pair.  The term's weight is
    f[mu, nu] * a[source cell] * a[target cell].
    """
    for src, tgt, mu, nu in itertools.product(range(16), range(16), range(4), range(4)):
        (src_bell, src_flag), (tgt_bell, tgt_flag) = cell_parts(src), cell_parts(tgt)
        err_src, err_tgt = PauliIndex.from_index(mu), PauliIndex.from_index(nu)
        out_s, out_t = epp_unitary(
            pauli_on_bell(err_src, src_bell), pauli_on_bell(err_tgt, tgt_bell)
        )
        out_flag = flag_update(flag_flip(src_flag, err_src), flag_flip(tgt_flag, err_tgt))
        yield src, tgt, mu, nu, cell_index(out_s, out_flag) if keep_predicate(out_t) else None
