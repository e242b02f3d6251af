"""Each refusal that an input reaches states its rule: one case per message."""

from fractions import Fraction

import numpy as np
import pytest

from badicnet import (
    BandLimitedKernel,
    DigitalNet,
    GElement,
    GVector,
    PointSet,
    SpectralDiagonalKernel,
    certify_rho2_via_independence,
    check_independence_sets,
    dual_enumerate_below,
    hammersley_matrices,
    hammersley_point_set,
    l2_star,
    qmc_integrate,
    section_sigma,
    truncated_sym_hammersley,
    truncation_bound,
    walsh_exponent,
)
from badicnet.badic import minimal_precision
from badicnet.walsh import residue_counts


def _other_matrices():
    """A net of the truncated symmetrized Hammersley shape, b = 2, m = 2,
    n = 5, with one digit of its first matrix flipped."""
    net = truncated_sym_hammersley(2, 2, 5)
    first = net.matrices[0].copy()
    first[0, 0] ^= 1
    return DigitalNet(2, (first, *net.matrices[1:]), net.tail_rows, net.sym_columns)


CASES = {
    "integer-array-ragged": (
        lambda: DigitalNet(2, ([[1], [1, 0]],)),
        "generating matrix must be a (*, *) integer array of digits in [0, 2): generating matrix has shape (2,), not (*, *)",
    ),
    "integer-array-not-rectangular": (
        lambda: DigitalNet(2, ([np.zeros((1, 2), dtype=np.int64), np.zeros((1, 3), dtype=np.int64)],)),
        "generating matrix must be a (*, *) integer array of digits in [0, 2): generating matrix is not a rectangular array",
    ),
    "walsh-exponent-outside": (lambda: walsh_exponent(1, Fraction(3, 2), 2), "unsupported expansion: x outside [0, 1]"),
    "minimal-precision-outside": (lambda: minimal_precision(Fraction(3, 2), 2), "unsupported expansion: x outside [0, 1]"),
    "gelement-base": (lambda: GElement(1, (0,)), "base must be >= 2"),
    "gelement-no-digits": (lambda: GElement(2, ()), "precision must be >= 1"),
    "section-sigma-base": (lambda: section_sigma(Fraction(1, 2), 1, 2), "base must be >= 2"),
    "section-sigma-precision": (lambda: section_sigma(Fraction(1, 2), 2, 0), "precision must be >= 1"),
    "gvector-empty": (lambda: GVector(()), "empty vector"),
    "gvector-mixed-bases": (
        lambda: GVector((GElement(2, (0,)), GElement(3, (0,)))),
        "incompatible elements: mixed base or precision",
    ),
    "l2-star-empty": (lambda: l2_star(PointSet(np.zeros((0, 2), dtype=np.int64), 1)), "empty point set"),
    "truncation-bound-short": (lambda: truncation_bound(2, 3, 4, 1), "truncation too short: need n >= m + 2"),
    "dual-enumerate-no-digit": (lambda: dual_enumerate_below(hammersley_matrices(2, 2), 0), "need at least one digit"),
    "dual-enumerate-past-n": (lambda: dual_enumerate_below(hammersley_matrices(2, 2), 3), "digits exceed matrix rows"),
    "independence-other-matrices": (
        lambda: check_independence_sets(_other_matrices()),
        "expected truncated symmetrized Hammersley matrices",
    ),
    "independence-no-inner-column": (
        lambda: check_independence_sets(hammersley_matrices(2, 2)),
        "expected truncated symmetrized Hammersley matrices",
    ),
    "certificate-composite-base": (
        lambda: certify_rho2_via_independence(truncated_sym_hammersley(4, 2, 6), 2),
        "requires prime base",
    ),
    "net-no-coordinate": (lambda: DigitalNet(2, ()), "net needs at least one coordinate"),
    "net-no-digit-row": (lambda: DigitalNet(2, (np.zeros((0, 2), dtype=np.int64),)), "need at least one digit row"),
    "hammersley-short": (lambda: hammersley_matrices(2, 3, 2), "need n >= m to keep all index digits"),
    "band-limited-shape": (lambda: BandLimitedKernel(2, 1, 1, np.eye(3)), "coefficient matrix must be 2 x 2"),
    "band-limited-not-hermitian": (
        lambda: BandLimitedKernel(2, 1, 1, np.array([[1, 1], [0, 1]])),
        "coefficient matrix must be Hermitian",
    ),
    "diagonal-weights": (lambda: SpectralDiagonalKernel(2, 2, 1.0, (1.0,)), "one weight per coordinate required"),
    "qmc-walsh-no-base": (
        lambda: qmc_integrate(hammersley_point_set(2, 2), "walsh", k=(1, 0)),
        "walsh integrand needs the base",
    ),
    "qmc-unknown-integrand": (lambda: qmc_integrate(hammersley_point_set(2, 2), "nope"), "unknown integrand 'nope'"),
    "residue-counts-table": (
        lambda: residue_counts(
            np.zeros((1, 1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64), np.ones((2, 1, 1), dtype=np.int64), 2**62
        ),
        "residue counts need a (2, 4611686018427387904) table",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_refusal_states_its_rule(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
