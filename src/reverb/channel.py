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
  tends to -2 (Theta - 1) as Theta approaches 1.

The fading threshold of the outage target depends only on the channel
constants, so ``ChannelParams`` computes it once, beside the noise density.

Granted bandwidth is quantized upward to physical resource blocks (PRBs).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, InfeasibleError, InputError
from .schema import POSITIVE, check_fields, spec

_INV_E = math.exp(-1.0)
_STANDARD_NORMAL = statistics.NormalDist()


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


@dataclass(frozen=True)
class LinkBudget:
    """Sized uplink for one scheduled sensor."""

    agent_id: int
    bandwidth_hz: float
    prbs: int
    theta: float
    fading_threshold: float
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
    return (
        params.system_gain
        * tx_power_w
        * fading
        / (distance_m**params.path_loss_exp * bandwidth_hz * params.noise_psd)
    )


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


def rician_power(rician_k: float, re_z, im_z):
    """Fading power from standard normal draws of the real and imaginary parts."""
    los = math.sqrt(rician_k / (rician_k + 1.0))
    sigma = math.sqrt(0.5 / (rician_k + 1.0))  # per real dimension
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


def lambert_w_lower(x: float, rel_tol: float = 1e-12) -> float:
    """Lower real branch W_{-1} by Halley iteration: w <= -1 with w e^w = x, for -1/e <= x < 0."""
    if not math.isfinite(x):
        raise DomainError("argument must be finite")
    if x < -_INV_E - 1e-15:
        raise DomainError("no real solution below -1/e")
    if not (x < 0.0):
        raise DomainError("lower branch requires x in [-1/e, 0)")
    x = max(x, -_INV_E)
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
        delta = fw / (ew * wp1 - (w + 2.0) * fw / (2.0 * wp1))
        w -= delta
        if abs(delta) <= rel_tol * (abs(w) + 1e-300):
            break
    if abs(w * math.exp(w) - x) > 1e-9 * max(abs(x), 1e-12):
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
    return LinkBudget(
        agent_id=agent_id,
        bandwidth_hz=bandwidth,
        prbs=int(math.ceil(prbs)),
        theta=theta,
        fading_threshold=y,
        tx_power_w=tx_power_w,
        distance_m=distance_m,
    )


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
