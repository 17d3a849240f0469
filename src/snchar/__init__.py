"""Exact characters, spectra, and minimal polynomials for S_n and A_n.

The package computes ordinary irreducible characters of symmetric and
alternating groups in exact arithmetic, turns them into eigenvalue
multiplicities and minimal polynomials of permutation images, verifies the
classification of the non generic minimal polynomials exhaustively, and
certifies the analytic inequalities the theory rests on with outward rounded
interval arithmetic. An independent Specht module oracle reproduces the same
spectra from integer matrices alone.

The public names are those of each library module's __all__, re-exported
here; the command line module snchar.cli is not part of the library.
"""

from .arith import *
from .bounds import *
from .characters_an import *
from .characters_sn import *
from .classify import *
from .partitions import *
from .specht import *
from .spectral import *

__version__ = "0.1.0"
