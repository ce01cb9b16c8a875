"""Propagation models: deterministic path loss plus per-frame fading.

Section IV of the paper uses the NS-2 *Shadowing* propagation model with a
path-loss exponent of 5, a shadowing deviation of 8 dB and a transmission
power of 281 mW, "in which frame losses are proportional to the distance
between stations" and losses on different links are independent.
:class:`ShadowingPropagation` implements exactly that model and remains
the default; :class:`RayleighFading` and :class:`RicianFading` add the
classic multipath small-scale fading distributions on top of the same
log-distance path loss.  Models are selected by name through
:data:`repro.phy.registry.PROPAGATION_MODELS`.

Every model decomposes the received power the same way:

    Pr(d) [dBm] = Pt [dBm] - PL(d0) - 10 * beta * log10(d / d0) + F

where ``PL(d0)`` is the free-space (Friis) loss at the reference distance
``d0`` (1 m) and ``F`` is a random per-frame, per-link fade in dB —
Gaussian for shadowing, ``10*log10`` of an exponential (Rayleigh) or
non-central-chi-squared (Rician, K-factor) power gain for the fading
models.

**The fade bound contract.**  Every model clips its fades to a finite
range and reports the largest possible *positive* excursion through
:meth:`max_shadowing_db`.  The bound is what makes the channel's receiver
culling *sound* rather than heuristic: a station whose deterministic
power plus the maximum possible fade still falls below the carrier-sense
threshold provably cannot sense the frame, so skipping it cannot change
the simulation.  (For the Gaussian model the default 6-sigma truncation
has a clip probability of ~2e-9 per draw — statistically invisible at any
simulated duration this repository runs.)

**The hot-path contract.**  A model's fades come in two steps, which
:meth:`~PathLossModel.fade_batch_db` composes.  :meth:`fill_raw` fills a
contiguous array in place from a link's generator, ``raw_per_fade`` raw
draws per fade, and must consume the generator exactly like repeated
scalar draws would; :meth:`fades_from_raw` turns raw draws into bounded
fades elementwise, and must work on a whole 2-D block (rows in draw
order, one column per link) as it does on one link's vector.  The
channel's dispatch plans fill each link's column once per 64 frames and
transform 16 frames of every column at once, so neither how many draws a
fill takes nor how many columns a transform spans changes a link's
sample path.

Whether a given frame is *decodable* (received power above the reception
threshold) or merely *sensed* (above the carrier-sense threshold) is
decided by the channel from the power a model returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Speed of light, used for the Friis reference loss and propagation delay.
SPEED_OF_LIGHT_M_PER_S = 3.0e8


class PathLossModel:
    """Shared log-distance path-loss math (the deterministic half of a model).

    Subclasses are frozen dataclasses providing ``path_loss_exponent``,
    ``reference_distance_m`` and ``frequency_hz`` fields plus the random
    half of the interface: ``raw_per_fade``, :meth:`fill_raw` and
    :meth:`fades_from_raw` (bounded per-frame fades, in the two steps the
    channel's dispatch plans take; see the hot-path contract),
    :meth:`max_shadowing_db` (the largest possible positive fade — the
    culling margin) and :meth:`reception_probability` (the closed-form
    outage used by ETX).
    """

    #: Raw generator draws one fade consumes (a class constant, not a field).
    raw_per_fade = 1

    def fade_batch_db(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` independent bounded fades, in dB: :meth:`fill_raw`, then :meth:`fades_from_raw`."""
        raw = np.empty(count * self.raw_per_fade)
        self.fill_raw(rng, raw)
        return self.fades_from_raw(raw)

    def reference_loss_db(self) -> float:
        """Free-space path loss at the reference distance (Friis)."""
        wavelength = SPEED_OF_LIGHT_M_PER_S / self.frequency_hz
        return 20.0 * math.log10(4.0 * math.pi * self.reference_distance_m / wavelength)

    def mean_received_power_dbm(self, tx_power_dbm: float, distance_m: float) -> float:
        """Deterministic (no fading) received power at ``distance_m``."""
        if distance_m <= 0:
            return tx_power_dbm
        distance_m = max(distance_m, self.reference_distance_m)
        path_loss = self.reference_loss_db() + 10.0 * self.path_loss_exponent * math.log10(
            distance_m / self.reference_distance_m
        )
        return tx_power_dbm - path_loss

    def received_power_dbm(
        self, tx_power_dbm: float, distance_m: float, rng: np.random.Generator
    ) -> float:
        """Received power with one independent, bounded fade draw for this frame."""
        fade = float(self.fade_batch_db(rng, 1)[0])
        return self.mean_received_power_dbm(tx_power_dbm, distance_m) + fade


@dataclass(frozen=True)
class ShadowingPropagation(PathLossModel):
    """NS-2 style log-normal shadowing propagation model (the paper's default)."""

    path_loss_exponent: float = 5.0
    shadowing_deviation_db: float = 8.0
    reference_distance_m: float = 1.0
    frequency_hz: float = 2.4e9
    #: Shadowing draws are clipped to +/- this many standard deviations; see
    #: the module docstring for why the bound exists and why 6 is free.
    max_deviation_sigmas: float = 6.0

    def max_shadowing_db(self) -> float:
        """Largest fade (in dB, either sign) a single draw can produce."""
        return self.shadowing_deviation_db * self.max_deviation_sigmas

    def fill_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with standard normals, one per fade."""
        rng.standard_normal(out=out)

    def fades_from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Bounded shadowing fades, in dB: ``sigma * z``, clipped.

        Matches :meth:`shadowing_db` draw for draw: ``normal(0, sigma)``
        computes ``0.0 + sigma * z`` from the same standard normal, which
        differs from ``sigma * z`` only in the sign of a zero fade, and a
        mean power plus either zero is the same power.
        """
        fades = self.shadowing_deviation_db * raw
        bound = self.max_shadowing_db()
        np.clip(fades, -bound, bound, out=fades)
        return fades

    def shadowing_db(self, rng: np.random.Generator) -> float:
        """One independent, bounded shadowing draw in dB.

        Split out from :meth:`received_power_dbm` so per-frame dispatch can
        add the draw to a *precomputed* deterministic power instead of
        re-deriving the path loss (a ``log10``) for every frame on a link
        whose geometry has not changed.
        """
        shadowing = rng.normal(0.0, self.shadowing_deviation_db)
        bound = self.shadowing_deviation_db * self.max_deviation_sigmas
        if shadowing > bound:
            return bound
        if shadowing < -bound:
            return -bound
        return shadowing

    def received_power_dbm(
        self, tx_power_dbm: float, distance_m: float, rng: np.random.Generator
    ) -> float:
        """Received power with an independent, bounded shadowing draw for this frame."""
        return self.mean_received_power_dbm(tx_power_dbm, distance_m) + self.shadowing_db(rng)

    def reception_probability(
        self, tx_power_dbm: float, distance_m: float, threshold_dbm: float
    ) -> float:
        """Closed-form P[received power >= threshold] at ``distance_m``.

        Used by tests and by the route/forwarder-selection metrics (ETX), not
        by the per-frame channel simulation, which draws actual powers.

        Matches the *truncated* draw distribution: clipping piles tail mass
        onto ``+/- max_shadowing_db()``, so the probability saturates to
        exactly 1 (or 0) once the threshold clears (or exceeds) the bound —
        keeping ETX from assigning finite weight to links the simulation
        can provably never deliver on (visible at small
        ``max_deviation_sigmas``; ~2e-9 at the default 6).
        """
        mean = self.mean_received_power_dbm(tx_power_dbm, distance_m)
        if self.shadowing_deviation_db <= 0:
            return 1.0 if mean >= threshold_dbm else 0.0
        offset = threshold_dbm - mean
        bound = self.max_shadowing_db()
        if offset <= -bound:
            return 1.0
        if offset > bound:
            return 0.0
        z = offset / self.shadowing_deviation_db
        return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class RicianFading(PathLossModel):
    """Log-distance path loss with Rician (K-factor) small-scale fading.

    The per-frame channel power gain is ``|h|^2`` for ``h = s + n`` with a
    deterministic line-of-sight component ``s = sqrt(K/(K+1))`` and a
    circularly symmetric scattered component ``n ~ CN(0, 1/(K+1))`` —
    unit mean power, so the fade in dB (``10*log10 |h|^2``) is zero-mean
    in the linear domain and the deterministic path loss keeps its
    meaning.  ``k_factor`` is the *linear* LOS-to-scatter power ratio K
    (K = 0 degenerates to Rayleigh fading; K -> infinity to no fading).

    Fades are clipped to ``[min_fade_db, max_fade_db]``: the positive
    bound is the culling margin the channel relies on (constructive
    multipath above +10 dB has probability ~1e-5 at K = 0 and vanishes as
    K grows), the negative bound keeps deep fades finite.
    """

    path_loss_exponent: float = 5.0
    k_factor: float = 4.0
    reference_distance_m: float = 1.0
    frequency_hz: float = 2.4e9
    #: Largest constructive fade a draw can produce (the culling margin).
    max_fade_db: float = 10.0
    #: Deepest destructive fade a draw can produce.
    min_fade_db: float = -40.0

    def __post_init__(self) -> None:
        if self.k_factor < 0:
            raise ValueError(f"k_factor must be non-negative, got {self.k_factor}")
        if self.min_fade_db >= self.max_fade_db:
            raise ValueError(
                f"min_fade_db ({self.min_fade_db}) must lie below max_fade_db ({self.max_fade_db})"
            )

    def max_shadowing_db(self) -> float:
        """Largest possible positive fade (the channel's culling margin)."""
        return self.max_fade_db

    def _gain_bounds(self) -> tuple:
        return (10.0 ** (self.min_fade_db / 10.0), 10.0 ** (self.max_fade_db / 10.0))

    #: The in-phase and quadrature normals of one fade.
    raw_per_fade = 2

    def fill_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with standard normals, two per fade.

        Fade ``i`` always consumes normals ``2i`` and ``2i+1``, so the
        sample path is invariant to the caller's buffer size (the hot-path
        contract).
        """
        rng.standard_normal(out=out)

    def fades_from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Bounded Rician fades, in dB, de-interleaving each in-phase/quadrature pair of rows."""
        k = self.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        in_phase = sigma * raw[0::2] + los
        quadrature = sigma * raw[1::2]
        gains = in_phase * in_phase + quadrature * quadrature
        np.clip(gains, *self._gain_bounds(), out=gains)
        return 10.0 * np.log10(gains)

    def gain_tail_probability(self, gain: float) -> float:
        """P[unclipped channel power gain >= ``gain``] (the fade CCDF).

        ``2*(K+1)*|h|^2`` is noncentral chi-squared with 2 degrees of
        freedom and noncentrality ``2K``, a Poisson(K) mixture of
        Gamma(j+1, 1) variables scaled by 2: the tail is
        ``sum_j Pois(j; K) * P[Gamma(j+1, 1) >= (K+1)*gain]``.  The terms
        rise to one peak and then fall, so the sum stops once a term past
        ``K`` is below 1e-18 of the total.  Each factor is updated from
        the last in log space, so neither underflows at a large K or gain.
        """
        if gain <= 0.0:
            return 1.0
        k = self.k_factor
        y = (k + 1.0) * gain
        log_k = math.log(k) if k > 0.0 else -math.inf
        log_y = math.log(y)
        log_weight = -k  # log Pois(j; K)
        log_step = -y  # log of P[Pois(y) = j]
        gamma_tail = 0.0  # P[Gamma(j+1, 1) >= y] = P[Pois(y) <= j]
        total = 0.0
        j = 0
        while True:
            gamma_tail += math.exp(log_step)
            term = math.exp(log_weight) * gamma_tail
            total += term
            if j > k and term <= 1e-18 * total:
                return min(1.0, total)
            j += 1
            log_j = math.log(j)
            log_weight += log_k - log_j
            log_step += log_y - log_j

    def reception_probability(
        self, tx_power_dbm: float, distance_m: float, threshold_dbm: float
    ) -> float:
        """Closed-form P[received power >= threshold] at ``distance_m``.

        Matches the *clipped* draw distribution (same convention as
        :meth:`ShadowingPropagation.reception_probability`): saturates to
        exactly 1 (or 0) once the threshold clears (or exceeds) the fade
        bounds, so ETX never weights links the simulation can provably
        never deliver on.
        """
        mean = self.mean_received_power_dbm(tx_power_dbm, distance_m)
        offset = threshold_dbm - mean
        if offset <= self.min_fade_db:
            return 1.0
        if offset > self.max_fade_db:
            return 0.0
        return self.gain_tail_probability(10.0 ** (offset / 10.0))


@dataclass(frozen=True)
class RayleighFading(RicianFading):
    """Log-distance path loss with Rayleigh small-scale fading.

    The no-line-of-sight special case of :class:`RicianFading` (K = 0):
    the channel power gain is exponentially distributed with unit mean,
    so the fade CCDF is simply ``exp(-gain)``.  Kept as its own class
    (and registry entry) because the K = 0 draw path needs only *one*
    exponential batch per refill instead of two Gaussian ones — and
    because "rayleigh" is the name everyone reaches for.
    """

    k_factor: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.k_factor != 0.0:
            raise ValueError(
                f"RayleighFading is the K=0 case; got k_factor={self.k_factor} "
                "(use RicianFading for K > 0)"
            )

    raw_per_fade = 1

    def fill_raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` with unit-mean exponential power gains, one per fade."""
        rng.standard_exponential(out=out)

    def fades_from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Bounded Rayleigh fades, in dB: the gains clipped, then ``10*log10``."""
        gains = np.clip(raw, *self._gain_bounds())
        return 10.0 * np.log10(gains)

    def gain_tail_probability(self, gain: float) -> float:
        """P[unclipped channel power gain >= ``gain``] = exp(-gain)."""
        if gain <= 0.0:
            return 1.0
        return math.exp(-gain)


def propagation_delay_ns(distance_m: float) -> int:
    """Line-of-sight propagation delay in integer nanoseconds."""
    return int(round(distance_m / SPEED_OF_LIGHT_M_PER_S * 1e9))
