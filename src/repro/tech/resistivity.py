"""Temperature-dependent resistivity of on-chip copper wires.

The model follows Matthiessen's rule: the effective resistivity of a wire
is the sum of a temperature-independent *residual* term (surface and
grain-boundary scattering, impurities -- large for narrow wires, per
Plombon et al.) and a phonon term that follows the Bloch-Grueneisen law.

    rho(T) = rho_300K * (f_res + (1 - f_res) * phi(T))

where ``phi`` is the Bloch-Grueneisen phonon resistivity normalised to 1
at 300 K and ``f_res`` is the residual fraction of the 300 K resistivity.
``f_res`` is a per-metal-layer calibration constant: thin local wires have
a large residual fraction (their 77 K resistivity saturates early), thick
global wires behave almost like bulk copper.

The calibration targets are the wire speed-ups the paper measured for
Intel's 45 nm stack (Section 2.3): long unrepeated local and semi-global
wires speed up by at most 2.95x and 3.69x at 77 K, which for an
RC-dominated wire pins rho(77)/rho(300) at 1/2.95 and 1/3.69.

The Bloch-Grueneisen integral is priced with a fixed 32-node
Gauss-Legendre rule on ``[0, Theta/T]``. The model's temperature range,
60-400 K (:func:`check_temperature_batch`), puts the upper limit at
0.86-5.72 for copper. The integrand is smooth there, so the rule is
exact to double precision over the whole range and needs no tail cut:
at 341 temperatures from 60 to 400 K its ratio matches adaptive
quadrature within 9e-16 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tech.constants import (
    DEBYE_TEMPERATURE_CU,
    T_ROOM,
    check_temperature_batch,
)

#: The Gauss-Legendre rule's nodes and weights, mapped from [-1, 1] onto
#: [0, 1] once at import.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_NODES, _WEIGHTS = (_NODES + 1.0) / 2.0, _WEIGHTS / 2.0


def _bloch_gruneisen_integral(reduced_temperature: np.ndarray) -> np.ndarray:
    """The Bloch-Grueneisen integral (T/Theta)^5 * J5(Theta/T), per element."""
    upper = 1.0 / reduced_temperature
    x = upper[:, None] * _NODES
    # x^5 / ((e^x - 1)(1 - e^-x)); expm1 twice for numerical stability.
    integrand = x**5 / (np.expm1(x) * -np.expm1(-x))
    # A row sum, not ``integrand @ _WEIGHTS``: the BLAS product's result
    # depends on the row's position in the batch.
    return reduced_temperature**5 * upper * (integrand * _WEIGHTS).sum(axis=-1)


def bloch_gruneisen_ratio(temperature_k: float, debye_k: float = DEBYE_TEMPERATURE_CU) -> float:
    """Phonon resistivity at ``temperature_k`` normalised to its 300 K value.

    For copper (Debye temperature 343 K) this evaluates to roughly 0.12 at
    77 K, matching the measured bulk-copper resistivity drop. It is the
    length-1 case of :func:`bloch_gruneisen_ratio_batch`.
    """
    return float(bloch_gruneisen_ratio_batch([temperature_k], debye_k)[0])


def bloch_gruneisen_ratio_batch(
    temperature_k, debye_k: float = DEBYE_TEMPERATURE_CU
) -> np.ndarray:
    """Vectorized :func:`bloch_gruneisen_ratio` over a temperature column.

    Each distinct temperature is integrated once, in one call with the
    300 K reference, and the ratios are mapped back onto the column. Each
    row is reduced on its own, so a temperature's ratio is the same bits
    in any batch, and 300 K gives exactly 1.0.
    """
    t = check_temperature_batch(temperature_k)
    distinct, inverse = np.unique(t, return_inverse=True)
    integrals = _bloch_gruneisen_integral(np.append(distinct, T_ROOM) / debye_k)
    return integrals[:-1][inverse] / integrals[-1]


@dataclass(frozen=True)
class CryoResistivityModel:
    """Resistivity of one wire population versus temperature.

    Parameters
    ----------
    rho_300k_ohm_um:
        Effective resistivity at 300 K in ohm*micron (includes the size
        effect, so it exceeds bulk copper for narrow wires).
    residual_fraction:
        Fraction of the 300 K resistivity that does not freeze out
        (``f_res`` above). Must lie in [0, 1).
    debye_k:
        Debye temperature of the conductor.
    """

    rho_300k_ohm_um: float
    residual_fraction: float
    debye_k: float = DEBYE_TEMPERATURE_CU

    def __post_init__(self) -> None:
        if self.rho_300k_ohm_um <= 0.0:
            raise ValueError("rho_300k must be positive")
        if not (0.0 <= self.residual_fraction < 1.0):
            raise ValueError("residual_fraction must lie in [0, 1)")

    def resistivity(self, temperature_k: float) -> float:
        """Effective resistivity (ohm*micron) at ``temperature_k``.

        Thin wrapper over the length-1 batch path — the Matthiessen
        combination lives in exactly one place.
        """
        return float(self.resistivity_batch([temperature_k])[0])

    def resistivity_batch(self, temperature_k) -> np.ndarray:
        """Vectorized :meth:`resistivity` over a temperature column."""
        phi = bloch_gruneisen_ratio_batch(temperature_k, self.debye_k)
        f_res = self.residual_fraction
        return self.rho_300k_ohm_um * (f_res + (1.0 - f_res) * phi)

    def ratio_vs_room(self, temperature_k: float) -> float:
        """rho(T) / rho(300 K); < 1 below room temperature."""
        return float(self.ratio_vs_room_batch([temperature_k])[0])

    def ratio_vs_room_batch(self, temperature_k) -> np.ndarray:
        """Vectorized :meth:`ratio_vs_room` over a temperature column."""
        return self.resistivity_batch(temperature_k) / self.rho_300k_ohm_um

    @classmethod
    def from_cryo_ratio(
        cls,
        rho_300k_ohm_um: float,
        ratio_at_77k: float,
        debye_k: float = DEBYE_TEMPERATURE_CU,
    ) -> "CryoResistivityModel":
        """Build a model calibrated so that rho(77K)/rho(300K) == ``ratio_at_77k``.

        Used to pin each metal layer to the speed-up the paper measured:
        e.g. a long unrepeated semi-global wire speeds up 3.69x at 77 K,
        so its resistivity ratio is 1/3.69.
        """
        phi_77 = bloch_gruneisen_ratio(77.0, debye_k)
        if not (phi_77 < ratio_at_77k < 1.0):
            raise ValueError(
                f"77K ratio {ratio_at_77k} must lie in ({phi_77:.4f}, 1); "
                "a smaller value would need negative residual resistivity"
            )
        f_res = (ratio_at_77k - phi_77) / (1.0 - phi_77)
        return cls(rho_300k_ohm_um, f_res, debye_k)
