"""Adaptive moment estimation over named parameter tensors.

Moments live in plain dicts keyed by parameter name so checkpoints can carry
them; updates rebind ``.data`` (tensors themselves are treated as immutable
values inside any one graph).
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params, lr=1e-4):
        self.params = list(params)
        for p in self.params:
            if p.name is None:
                raise ValueError("Adam needs named parameters for checkpointing")
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p in self.params:
            g = p.grad
            if g is None:       # not in this step's graph: parameter and moments stay
                continue
            m = self.m[p.name] = BETA1 * self.m[p.name] + (1 - BETA1) * g
            v = self.v[p.name] = BETA2 * self.v[p.name] + (1 - BETA2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def load_state(self, m, v, t):
        for p in self.params:
            if p.name in m:
                self.m[p.name] = m[p.name].copy()
                self.v[p.name] = v[p.name].copy()
        self.t = int(t)
