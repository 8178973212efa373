"""Exact linear algebra over Z, Q and F_p.

Matrices, Smith normal form, finitely presented modules and their maps,
with kernels, cokernels, images, coinvariants and exactness checks.
"""
from .coeff import Coeff, Z, Q, F2
from .matrix import Mat, basis_matrix, det
from .smith import RowBasis, left_kernel, snf, snf_diagonal
from .presented import (
    ExactLinError,
    ModuleMap,
    PresentedModule,
    check_exact,
    coinvariants,
    cokernel,
    direct_sum_modules,
    factor_through,
    freeify_module,
    image_in,
    invert_iso,
    is_isomorphism,
    kernel,
    preimage_generators,
)

__all__ = [
    "Coeff", "Z", "Q", "F2", "Mat", "basis_matrix", "det",
    "RowBasis", "left_kernel", "snf", "snf_diagonal",
    "ExactLinError", "ModuleMap", "PresentedModule",
    "check_exact", "coinvariants", "cokernel", "direct_sum_modules",
    "factor_through", "freeify_module", "image_in", "invert_iso",
    "is_isomorphism", "kernel", "preimage_generators",
]
