"""Rician uplink model and the closed-form outage-constrained bandwidth allocator.

The allocator sizes the smallest bandwidth W such that a packet of D bits
makes the latency deadline with outage probability at most epsilon over the
Rician fading tail. The chain is:

  outage(W) = P[ W log2(1 + snr) < D/tau ] = CDF of the fading power at a
  threshold that depends on W; inverting the (approximated) Rician quantile
  turns this into (1 - Ups*Theta) e^Ups = 1 with Ups = -D ln2 / (W tau),
  solved by the Lambert W function at -e^{-1/Theta}/Theta. Only Theta > 1
  admits a positive-W root. There the principal branch W_0 always returns
  -1/Theta, the spurious root Ups = 0 (infinite bandwidth), so the allocator
  evaluates the lower branch W_{-1} only: Ups = W_{-1} + 1/Theta < 0, which
  tends to -2 (Theta - 1) as Theta approaches 1. Within 1e-2 of Theta = 1 the
  argument rounds towards -1/e and W_{-1} + 1/Theta cancels, so there the
  allocator sums the power series of Ups in Theta - 1 instead.

The fading threshold of the outage target depends only on the channel
constants, so ``ChannelParams`` computes it once, beside the noise density.

Granted bandwidth is quantized upward to physical resource blocks (PRBs). A
sized link is a ``LinkBudget``, an immutable named tuple; the loop's link
table (``TwinLoop.links``) holds each sensor's, sized the first time the
sensor is selected, with its ``link_terms``: the bandwidth, the SNR less the
fading, and the sure fade, the fade at which the link's rate meets D/tau
exactly raised by ``SURE_MARGIN``. ``meets_deadline`` delivers a fade at or
above it without taking the logarithm; only fades in a sized link's outage
tail take ``uplink_latency``'s exact expression.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, InfeasibleError, InputError
from .schema import POSITIVE, check_fields, spec

_INV_E = math.exp(-1.0)
_STANDARD_NORMAL = statistics.NormalDist()
_HALLEY_REL_TOL = 1e-12  # lambert_w_lower stops once a step is this small relative to w
# Ups = sum_k c_k delta^k with delta = Theta - 1, from (1 - Ups Theta) e^Ups = 1
# solved order by order. Below _SERIES_MAX_DELTA these 8 terms are within 2e-15
# relative of the root, while the Lambert-W form loses about 1e-16 / delta^2 to
# the rounding of its argument near -1/e (1e-12 at 1e-2, 0.5 at 1e-8).
_UPS_SERIES = (-2.0, 4 / 3, -10 / 9, 136 / 135, -386 / 405, 524 / 567, -38698 / 42525, 16496 / 18225)
_SERIES_MAX_DELTA = 1e-2
_LN2 = math.log(2.0)
# A link's sure fade sits this factor above the fade at which its rate meets D/tau exactly.
SURE_MARGIN = 1.0 + 1e-6


@dataclass(frozen=True)
class ChannelParams:
    """Uplink constants shared by every sensor-to-AP link."""

    system_gain: float = spec(1.0, float, POSITIVE)            # lumped frequency/antenna constant
    path_loss_exp: float = spec(2.0, float, POSITIVE)
    noise_power_dbm: float = spec(-11.5, float)                # total over the reference bandwidth
    noise_ref_bandwidth_hz: float = spec(20e6, float, POSITIVE)
    rician_k: float = spec(10.0, float, POSITIVE)              # LoS-to-scatter power ratio, linear
    packet_bits: float = spec(1024.0, float, POSITIVE)
    max_latency_s: float = spec(5e-3, float, POSITIVE)
    outage_target: float = spec(1e-5, float, (lambda p: 0.0 < p < 0.5, "within (0, 0.5)"))
    prb_hz: float = spec(180e3, float, POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)
        q = gaussian_q_inv(self.outage_target)
        if not (self.rician_k > 0.5 * q * q):
            raise ConfigError(
                f"rician_k must exceed {0.5 * q * q:.3f} for outage_target {self.outage_target:g}: "
                "the LoS component is too weak"
            )
        try:
            self.fading_threshold
        except DomainError:  # sqrt(2 K) overflowed, leaving the threshold NaN
            raise ConfigError(f"rician_k must leave the fading threshold finite, got {self.rician_k!r}") from None

    @cached_property
    def noise_psd(self) -> float:
        """Noise power spectral density in W/Hz."""
        return 10.0 ** (self.noise_power_dbm / 10.0 - 3.0) / self.noise_ref_bandwidth_hz

    @cached_property
    def fading_threshold(self) -> float:
        """Fading power threshold y of the outage target, ``outage_fading_threshold``."""
        return outage_fading_threshold(self.rician_k, self.outage_target)

    @cached_property
    def fading_terms(self) -> tuple[float, float]:
        """``rician_terms`` of this channel's K: the fade's LoS amplitude and per-dimension scatter."""
        return rician_terms(self.rician_k)


class LinkBudget(NamedTuple):
    """Sized uplink for one scheduled sensor; an immutable named tuple."""

    bandwidth_hz: float
    prbs: int
    theta: float
    tx_power_w: float
    distance_m: float


@dataclass(frozen=True)
class LinkOutcome:
    delivered: bool
    latency_s: float
    fading: float


def snr(
    params: ChannelParams,
    tx_power_w: float,
    distance_m: float,
    bandwidth_hz: float,
    fading: float,
) -> float:
    """Instantaneous SNR: gain * power * fading / (d^alpha * W * N0)."""
    if min(tx_power_w, distance_m, bandwidth_hz) <= 0.0 or fading < 0.0:
        raise InputError("power, distance, bandwidth must be positive; fading nonnegative")
    num, den = snr_terms(params, tx_power_w, distance_m, bandwidth_hz)
    return num * fading / den


def snr_terms(
    params: ChannelParams, tx_power_w: float, distance_m: float, bandwidth_hz: float
) -> tuple[float, float]:
    """``snr`` less the fading: (gain * power, d^alpha * W * N0), and snr = num * fading / den."""
    return params.system_gain * tx_power_w, distance_m**params.path_loss_exp * bandwidth_hz * params.noise_psd


def link_terms(params: ChannelParams, budget: LinkBudget) -> tuple[float, float, float, float]:
    """What a sized link's deadline test needs beside the fading: (W, snr's num, snr's den, sure fade).

    The sure fade is the fade at which the link's rate meets D/tau exactly,
    (2^(D/(tau W)) - 1) den / num, raised by ``SURE_MARGIN``: every fade at or
    above it makes the deadline, so ``meets_deadline`` takes no logarithm
    there. It is ``inf``, so that no fade skips the exact test, when that
    value is not a finite positive number or the exact test does not
    deliver at it.
    """
    bandwidth = budget.bandwidth_hz
    num, den = snr_terms(params, budget.tx_power_w, budget.distance_m, bandwidth)
    bits, deadline = params.packet_bits, params.max_latency_s
    try:
        sure = math.expm1(_LN2 * bits / (deadline * bandwidth)) * den / num * SURE_MARGIN
    except OverflowError:
        sure = math.inf
    if 0.0 < sure < math.inf:
        rate = bandwidth * math.log2(1.0 + num * sure / den)
        if rate > 0.0 and bits / rate <= deadline:
            return bandwidth, num, den, sure
    return bandwidth, num, den, math.inf


def meets_deadline(params: ChannelParams, links, normals) -> list[bool]:
    """Per link, ``uplink_outcome``'s delivery on the fade of its two standard normals, bit for bit.

    ``links`` holds each budget's ``link_terms``; ``normals`` holds two draws
    per link, in link order, the real part's before the imaginary part's, as
    ``rician_fading_sample`` reads them. The fade is ``rician_power``'s
    expression on the channel's cached ``fading_terms``. A fade at or above
    the link's sure fade is delivered; below it, the SNR, the rate and the
    latency test are ``uplink_latency``'s, in the same order, and a rate
    that is not positive means an infinite latency, which no deadline meets.
    """
    los, sigma = params.fading_terms
    bits, deadline = params.packet_bits, params.max_latency_s
    pairs = iter(normals)
    met = []
    for (bandwidth, num, den, sure), re_z, im_z in zip(links, pairs, pairs):
        re = los + sigma * re_z
        im = sigma * im_z
        fade = re * re + im * im
        if fade >= sure:
            met.append(True)
        else:
            rate = bandwidth * math.log2(1.0 + num * fade / den)
            met.append(rate > 0.0 and bits / rate <= deadline)
    return met


def rician_fading_sample(
    rician_k: float, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """Unit-mean Rician fading power: |sqrt(K/(K+1)) + CN(0, 1/(K+1))|^2."""
    if rician_k < 0.0:
        raise InputError("Rician factor must be nonnegative")
    shape = () if size is None else (size,)
    re_z = rng.standard_normal(shape)
    im_z = rng.standard_normal(shape)
    power = rician_power(rician_k, re_z, im_z)
    return float(power) if size is None else power


def rician_terms(rician_k: float) -> tuple[float, float]:
    """(LoS amplitude, scatter std per real dimension) of unit-mean Rician fading."""
    return math.sqrt(rician_k / (rician_k + 1.0)), math.sqrt(0.5 / (rician_k + 1.0))


def rician_power(rician_k: float, re_z, im_z):
    """Fading power from standard normal draws of the real and imaginary parts."""
    los, sigma = rician_terms(rician_k)
    re = los + sigma * re_z
    im = sigma * im_z
    return re * re + im * im


def gaussian_q_inv(eps: float) -> float:
    """Inverse of the Gaussian Q-function: Q^{-1}(eps) = -Phi^{-1}(eps).

    ``statistics.NormalDist.inv_cdf`` evaluates Phi^{-1} with Wichura's AS241
    rational approximations, accurate to about 1e-16 relative.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("tail probability must lie in (0, 1)")
    return -_STANDARD_NORMAL.inv_cdf(eps)


def lambert_w_lower(x: float) -> float:
    """Lower real branch W_{-1} by Halley iteration: w <= -1 with w e^w = x, for -1/e <= x < 0."""
    if not math.isfinite(x):
        raise DomainError("argument must be finite")
    if x < -_INV_E - 1e-15:
        raise DomainError("no real solution below -1/e")
    if not (x < 0.0):
        raise DomainError("lower branch requires x in [-1/e, 0)")
    if -_INV_E > x:
        x = -_INV_E
    # Log asymptote away from the branch point, branch-point series near -1/e.
    if x > -0.25:
        lx = math.log(-x)
        w = lx - math.log(-lx)
    else:
        p = -math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0
    for _ in range(100):
        ew = math.exp(w)
        fw = w * ew - x
        if fw == 0.0:
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            w += 1e-12
            continue
        denominator = ew * wp1 - (w + 2.0) * fw / (2.0 * wp1)
        if denominator == 0.0:  # e^w underflowed: x is too close to 0 to solve
            raise DomainError(f"Halley iteration failed to converge for x={x!r}")
        delta = fw / denominator
        w -= delta
        if abs(delta) <= _HALLEY_REL_TOL * (abs(w) + 1e-300):
            break
    if abs(w * math.exp(w) - x) > 1e-9 * abs(x):
        raise DomainError(f"Halley iteration failed to converge for x={x!r}")
    return w


def outage_fading_threshold(rician_k: float, outage_target: float) -> float:
    """Approximate Rician quantile argument y with 1 - Q1(sqrt(2K), y) ~= epsilon."""
    q = gaussian_q_inv(outage_target)
    s = math.sqrt(2.0 * rician_k)
    if not (s > q):
        raise DomainError("LoS component too weak: need sqrt(2K) > Qinv(outage)")
    if q == 0.0:
        raise DomainError("outage target of 0.5 leaves the threshold undefined")
    y = s + math.log(s / (s - q)) / (2.0 * q) - q
    if not (0.0 < y < math.inf):
        raise DomainError("fading threshold must be finite and positive")
    return y


def optimal_bandwidth(
    params: ChannelParams, tx_power_w: float, distance_m: float, agent_id: int = -1
) -> LinkBudget:
    """Smallest bandwidth meeting the latency deadline at the outage target.

    Raises InfeasibleError when no finite bandwidth works (Theta <= 1: even
    infinite bandwidth cannot reach rate D/tau at this SNR budget).
    """
    if tx_power_w <= 0.0 or distance_m <= 0.0:
        raise InputError("power and distance must be strictly positive")
    y = params.fading_threshold
    d_ln2 = params.packet_bits * math.log(2.0)
    try:
        theta = (
            params.system_gain
            * tx_power_w
            * y
            * y
            * params.max_latency_s
            / (
                2.0
                * (1.0 + params.rician_k)
                * distance_m**params.path_loss_exp
                * params.noise_psd
                * d_ln2
            )
        )
    except (OverflowError, ZeroDivisionError):  # d^alpha or the noise density left the float range
        theta = math.nan
    # Checked before the Lambert-W call: for small theta, e^{-1/theta} underflows to 0.
    if not math.isfinite(theta) or theta <= 1.0:
        raise InfeasibleError(
            f"agent {agent_id} at {distance_m:g} m: link constant theta={theta:.6g} is not "
            "a finite value above 1, so no finite bandwidth meets the deadline"
        )
    delta = theta - 1.0
    if delta < _SERIES_MAX_DELTA:
        ups = 0.0
        for c in reversed(_UPS_SERIES):
            ups = ups * delta + c
        ups *= delta
    else:
        ups = lambert_w_lower(-math.exp(-1.0 / theta) / theta) + 1.0 / theta
    if ups >= 0.0:
        raise InfeasibleError(
            "no positive-bandwidth solution: the deadline rate exceeds the wideband limit"
        )
    bandwidth = -d_ln2 / (params.max_latency_s * ups)
    prbs = bandwidth / params.prb_hz
    if prbs == math.inf:
        raise InfeasibleError(
            f"agent {agent_id}: {bandwidth:g} Hz is no finite count of {params.prb_hz:g}-Hz PRBs"
        )
    return LinkBudget(bandwidth, math.ceil(prbs), theta, tx_power_w, distance_m)


def uplink_outcome(
    params: ChannelParams, budget: LinkBudget, rng: np.random.Generator
) -> LinkOutcome:
    """Realize one transmission: sample fading, check the latency deadline."""
    fading = rician_fading_sample(params.rician_k, rng)
    latency = uplink_latency(params, budget, fading)
    return LinkOutcome(delivered=latency <= params.max_latency_s, latency_s=latency, fading=fading)


def uplink_latency(params: ChannelParams, budget: LinkBudget, fading: float) -> float:
    """Time to send one packet over a sized link at the given fading power."""
    gamma = snr(params, budget.tx_power_w, budget.distance_m, budget.bandwidth_hz, fading)
    rate = budget.bandwidth_hz * math.log2(1.0 + gamma)
    return params.packet_bits / rate if rate > 0.0 else math.inf
