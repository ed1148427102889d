"""Plain references the tests check the program against, kept out of the
package because no program path runs them.

- the network forward pass as an autodiff graph (`ganids.nn.forward_var`
  over fresh leaves), and its parameter and input gradients by the engine's
  chain rule: the other side of every check on `nn`'s kernels;
- the GBDT's one-node helpers: a node's histogram and best split through
  the same scan the level grower runs, the second-order split gain that the
  brute-force searches score candidates by, and a tree's shape.
"""

from typing import NamedTuple

import numpy as np

from ganids import autodiff as ad
from ganids import nn


class Tape(NamedTuple):
    """Graph handles for one recorded forward pass."""

    input: ad.Var
    params: dict
    # the sign pattern at each leaky-ReLU input; finite-difference oracles
    # use it to reject probes that step across a kink
    relu_signs: list


def graph_forward(spec, params, batch, masks=None):
    """The network on `batch` as an autodiff graph over fresh leaves for the
    input and each parameter: (output Var flattened to (B, out), Tape).
    Dropout multiplies by `masks` (train mode), and is skipped when `masks`
    is None."""
    x = ad.Var(np.asarray(batch, dtype=np.float64), requires_grad=True)
    param_vars = {name: ad.leaf(arr) for name, arr in params.tensors.items()}
    out, relu_signs = nn.forward_var(spec, param_vars, x,
                                     train=masks is not None, masks=masks)
    return out, Tape(x, param_vars, relu_signs)


def grad_params(loss, tape, create_graph=False):
    """Gradients of a scalar with respect to the recorded parameters, by
    name."""
    names = list(tape.params)
    gs = ad.grad(loss, [tape.params[n] for n in names],
                 create_graph=create_graph)
    return dict(zip(names, gs))


def grad_input(scalar, tape, create_graph=False):
    """Gradient of a scalar with respect to the recorded input batch."""
    (g,) = ad.grad(scalar, [tape.input], create_graph=create_graph)
    return g


def histogram(ctx, rows, g, h):
    """(3, n_slots + 1) histogram of one node of a `gbdt._HistContext`."""
    return ctx.histograms(rows, g, h, [len(rows)])[0]


def best_split(ctx, rows, g, h, hist=None):
    """Best (gain, feature, bin) of one node, or None; hist, when given, is
    the histogram of rows."""
    if hist is None:
        hist = histogram(ctx, rows, g, h)
    return ctx.scan([hist], [len(rows)], [g.sum()], [h.sum()])[0]


def split_gain(gl, hl, gr, hr, lam):
    """Second-order gain of a candidate split."""
    g, h = gl + gr, hl + hr
    return gl * gl / (hl + lam) + gr * gr / (hr + lam) - g * g / (h + lam)


def structure(node):
    """A tree's shape: its splits, and its leaf values rounded to 12
    places."""
    if node.is_leaf:
        return ("leaf", round(node.value, 12))
    return ("split", node.feature, node.bin_threshold,
            structure(node.left), structure(node.right))
