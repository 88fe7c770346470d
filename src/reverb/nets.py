"""Minimal dense networks with reverse-mode gradients, no framework.

Hidden layers use tanh; the output layer is linear. ``backward`` implements
the exact chain rule for an upstream gradient on the outputs, so analytic
gradients can be checked against finite differences in the tests.

A net's parameters live in one contiguous vector, ``flat``: each layer's
weights, row-major, then its biases, layer by layer (w0, b0, w1, b1, ...);
each ``weights[i]`` and ``biases[i]`` is a reshaped view into it. An
optimizer steps ``flat`` with one call per array operation instead of one
per layer, and a forward pass sees the update through the views.
"""

from __future__ import annotations

import operator

import numpy as np

Array = np.ndarray

ADAM_LR = 1e-3       # step size, the same for the actor and the critic
ADAM_BETA1 = 0.9     # decay of the running gradient mean
ADAM_BETA2 = 0.999   # decay of the running squared-gradient mean
ADAM_EPS = 1e-8      # added to the root of the second moment


def number_array(value) -> Array:
    """Nested lists of JSON numbers as a float array; a bool, a string or null is no number."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise TypeError(f"entries must be numbers, got {v!r}")
    return np.array(value, dtype=float)


def _size(value) -> int:
    """A layer width written as an integer: not a bool, a float or a string."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"sizes must be integers, got {value!r}")


class MLP:
    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        shapes = list(zip(self.sizes[:-1], self.sizes[1:]))
        weights = [rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)) for n_in, n_out in shapes]
        self._adopt(weights, [np.zeros(n_out) for _, n_out in shapes])

    def _adopt(self, weights: list[Array], biases: list[Array]) -> None:
        """Copy the layer arrays into one flat vector, (w0, b0, w1, b1, ...), and keep views into it."""
        if len(weights) != len(biases):
            raise ValueError(f"{len(weights)} weight matrices but {len(biases)} bias vectors")
        arrays = [a for pair in zip(weights, biases) for a in pair]
        self.flat = np.concatenate([a.ravel() for a in arrays]) if arrays else np.empty(0)
        views, start = [], 0
        for a in arrays:
            views.append(self.flat[start : start + a.size].reshape(a.shape))
            start += a.size
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: Array) -> Array:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: Array) -> tuple[Array, list[Array]]:
        """Returns outputs and the per-layer activations needed for backward.

        A 1-D input is one row: it gives a 1-D output with the bits of row 0 of
        the 2-D pass over that row alone. ``backward`` needs 2-D activations.

        Each layer adds its bias and applies tanh in place on the product, the
        same operations as ``tanh(h @ W + b)`` with one new array per layer
        instead of three.
        """
        h = np.asarray(x, dtype=float)
        if h.ndim != 1:
            h = np.atleast_2d(h)
        acts = [h]
        for i in range(self.n_layers):
            h = h @ self.weights[i]
            h += self.biases[i]
            if i < self.n_layers - 1:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[Array], grad_out: Array) -> list[Array]:
        """Gradients of sum(grad_out * outputs) w.r.t. the flat parameter list."""
        grads: list[Array] = [np.empty(0)] * (2 * self.n_layers)
        delta = np.atleast_2d(grad_out)
        for i in range(self.n_layers - 1, -1, -1):
            h_in, h_out = acts[i], acts[i + 1]
            if i < self.n_layers - 1:
                delta = delta * (1.0 - h_out * h_out)  # tanh'
            grads[2 * i] = h_in.T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
        return grads

    # --- parameter plumbing -------------------------------------------------

    def to_lists(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_lists(cls, data: dict) -> "MLP":
        """A net from ``to_lists``'s output; sizes must be integers and entries numbers."""
        net = cls.__new__(cls)
        net.sizes = tuple(_size(s) for s in data["sizes"])
        net._adopt(
            [number_array(w) for w in data["weights"]],
            [number_array(b) for b in data["biases"]],
        )
        return net


class Adam:
    def __init__(self) -> None:
        self.m: list[Array] | None = None
        self.v: list[Array] | None = None
        self.t = 0

    def step(self, params: list[Array], grads: list[Array]) -> None:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            # In place, the products, sums and quotients of
            #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            #   p -= lr * (m/b1c) / (sqrt(v/b2c) + eps)
            # in the same order, so the same bits, through two scratch arrays.
            tmp = np.multiply(g, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += tmp
            np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
            tmp *= g
            v *= ADAM_BETA2
            v += tmp
            np.divide(m, b1c, out=tmp)
            tmp *= ADAM_LR
            den = np.divide(v, b2c)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            tmp /= den
            p -= tmp
