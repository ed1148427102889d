"""Reverse-mode automatic differentiation on dense float64 arrays.

Gradients are built out of the same differentiable primitives as the forward
pass, so a gradient expression can itself be differentiated again. That is
what the gradient-penalty term needs: parameter gradients of a function of
input gradients (reverse-over-reverse).

No program path builds a graph: GAN training and synthesis run `nn`'s
layer-wise kernels on plain arrays, which use only the conv data helpers
below. This engine, through `nn.forward_var`, is their reference: the
finite-difference oracles, C1 and the critic- and generator-gradient tests
check the kernels against it. So it keeps generic primitives only, each
with one vjp made of primitives. A 1-D convolution is a composition,
`conv1d` (unfold, then one matmul), and `unfold1d` and `fold1d` are each
other's vjp, so the gradient penalty's double backward through a conv
layer comes from the chain rule alone, not from a copy of the kernels'
hand-written backward.

Graphs are acyclic, so reference counting frees a graph as soon as nothing
outside it holds a node, with no work for the cyclic garbage collector. No
node refers to itself: a vjp that needs its own node's output (`tanh`,
`sqrt`, `safe_recip`) reaches it through a weak reference, which is alive
whenever `grad` calls the vjp. And constants hold no history: a node that
requires no gradient keeps no parents and no vjp, so a forward pass on
constant parameters frees each layer's arrays once the next layer has used
them.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import ShapeMismatch

_F64 = np.dtype(np.float64)


class Var:
    """One node of the computation graph.

    `parents` are the input Vars and `vjp(g)` maps the incoming cotangent
    `g` (a Var) to a tuple of cotangents aligned with `parents`. A node that
    does not require a gradient keeps no history: its `parents` are () and
    its `vjp` is None.
    """

    __slots__ = ("data", "parents", "vjp", "requires_grad", "__weakref__")

    def __init__(self, data, parents=(), vjp=None, requires_grad=None):
        # every primitive hands over a float64 ndarray; converting only the
        # rest keeps node creation cheap
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        if requires_grad is None:
            requires_grad = False
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        if requires_grad:
            self.parents = parents
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None

    @property
    def shape(self):
        return self.data.shape

    def detach(self):
        return Var(self.data, requires_grad=False)

    def item(self):
        return float(self.data.reshape(()))

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, neg(asvar(other)))

    def __rsub__(self, other):
        return add(asvar(other), neg(self))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def asvar(x):
    if isinstance(x, Var):
        return x
    return Var(x, requires_grad=False)


def leaf(data, requires_grad=True):
    return Var(data, requires_grad=requires_grad)


def _zeros_like(v):
    return Var(np.zeros_like(v.data), requires_grad=False)


def grad(output, wrt, create_graph=False):
    """Gradients of a scalar `output` with respect to the Vars in `wrt`.

    With create_graph=True the returned gradients stay connected to the graph
    and can be differentiated again; otherwise they are detached constants.
    """
    if output.data.size != 1:
        raise ShapeMismatch("grad expects a scalar output")

    # topological order (parents first) over the subgraph that requires
    # gradients
    order = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    targets = {id(w) for w in wrt}
    grads = {id(output): Var(np.ones_like(output.data), requires_grad=False)}
    for node in reversed(order):
        # a cotangent is dropped once passed on, unless it is asked for
        g = grads.get(id(node)) if id(node) in targets else grads.pop(id(node), None)
        if g is None or node.vjp is None:
            continue
        for p, pg in zip(node.parents, node.vjp(g)):
            if not p.requires_grad:
                continue
            if not create_graph:
                pg = pg.detach()
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else add(acc, pg)

    out = []
    for w in wrt:
        g = grads.get(id(w))
        out.append(g if g is not None else _zeros_like(w))
    return out


# ---------------------------------------------------------------------------
# primitives


def _unbroadcast(g, shape):
    """Reduce a broadcasted cotangent back to `shape`."""
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.data.shape[i] != 1)
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    return g


def add(a, b):
    a, b = asvar(a), asvar(b)
    return Var(a.data + b.data, (a, b),
               lambda g: (_unbroadcast(g, a.data.shape),
                          _unbroadcast(g, b.data.shape)))


def neg(a):
    a = asvar(a)
    return Var(-a.data, (a,), lambda g: (neg(g),))


def mul(a, b):
    a, b = asvar(a), asvar(b)
    return Var(a.data * b.data, (a, b),
               lambda g: (_unbroadcast(mul(g, b), a.data.shape),
                          _unbroadcast(mul(g, a), b.data.shape)))


def matmul(a, b):
    a, b = asvar(a), asvar(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch("matmul expects 2-D operands")
    return Var(a.data @ b.data, (a, b),
               lambda g: (matmul(g, transpose(b)), matmul(transpose(a), g)))


def transpose(a, axes=None):
    a = asvar(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    return Var(np.transpose(a.data, axes), (a,),
               lambda g: (transpose(g, tuple(np.argsort(axes))),))


def reshape(a, shape):
    a = asvar(a)
    old = a.data.shape
    return Var(a.data.reshape(shape), (a,), lambda g: (reshape(g, old),))


def sum_(a, axis=None, keepdims=False):
    a = asvar(a)
    shape = a.data.shape

    def vjp(g):
        gd = g
        if axis is not None and not keepdims:
            ax = axis if isinstance(axis, tuple) else (axis,)
            kshape = list(g.data.shape)
            for i in sorted(a2 % len(shape) for a2 in ax):
                kshape.insert(i, 1)
            gd = reshape(g, tuple(kshape))
        return (broadcast_to(gd, shape),)

    return Var(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


def broadcast_to(a, shape):
    a = asvar(a)
    return Var(np.broadcast_to(a.data, shape), (a,),
               lambda g: (_unbroadcast(g, a.data.shape),))


def mean(a, axis=None):
    a = asvar(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis), 1.0 / n)


def tanh(a):
    a = asvar(a)

    def vjp(g):
        y = ref()
        return (mul(g, 1.0 - mul(y, y)),)

    out = Var(np.tanh(a.data), (a,), vjp)
    ref = weakref.ref(out)
    return out


def leaky_relu(a, slope=0.2, *, pos=None):
    """max(a, slope * a) as a product with a constant mask.

    `pos` is the mask `a.data > 0` for a caller that has already built it.
    """
    a = asvar(a)
    if pos is None:
        pos = a.data > 0
    # (not pos) * slope + pos is exactly np.where(a > 0, 1, slope) for every
    # finite slope, NaN inputs included, and takes a third of np.where's time
    mask = np.multiply(~pos, slope, dtype=np.float64)
    mask += pos
    return mul(a, mask)


def square(a):
    a = asvar(a)
    return mul(a, a)


def safe_recip(a):
    """1/x with 0 mapped to 0 (all derivatives 0 there as well)."""
    a = asvar(a)
    nz = a.data != 0

    def vjp(g):
        y = ref()
        return (neg(mul(g, mul(y, y))),)

    out = Var(np.where(nz, 1.0 / np.where(nz, a.data, 1.0), 0.0), (a,), vjp)
    ref = weakref.ref(out)
    return out


def sqrt(a):
    """Square root whose derivative is defined as 0 at 0.

    The zero case is what a gradient norm of exactly zero produces; the
    penalty there is a constant with respect to the parameters.
    """
    a = asvar(a)

    def vjp(g):
        return (mul(g, mul(safe_recip(ref()), 0.5)),)

    out = Var(np.sqrt(a.data), (a,), vjp)
    ref = weakref.ref(out)
    return out


# ---------------------------------------------------------------------------
# 1-D convolution: stride 1, odd kernel width k, zero same-padding of
# (k - 1) // 2 on each side. The data helpers unfold a (B, C, L) array into
# (B, L, C*k) windows and fold windows back (the exact adjoint), each in
# the dtype of the array it is given.


def _shifts(k, pad, length):
    """Per kernel tap j: its offset s = j - pad and the output positions
    [lo, hi) whose input position l + s lies inside [0, length)."""
    for j in range(k):
        s = j - pad
        lo, hi = max(0, -s), min(length, length - s)
        if lo < hi:
            yield j, s, lo, hi


def _unfold_data(x, k, pad):
    b, c, length = x.shape
    xt = x.transpose(0, 2, 1)                       # (B, L, C)
    cols = np.empty((b, length, c, k), x.dtype)
    for j in range(k):
        # positions [lo, hi) read input l + s; the rest are padding, all of
        # them when the tap lies wholly outside the input (length <= |s|)
        s = j - pad
        lo = min(length, max(0, -s))
        hi = max(lo, min(length, length - s))
        if lo:
            cols[:, :lo, :, j] = 0.0
        if hi < length:
            cols[:, hi:, :, j] = 0.0
        if lo < hi:
            cols[:, lo:hi, :, j] = xt[:, lo + s:hi + s]
    return cols.reshape(b, length, c * k)


def _fold_data(g, k, pad, c, length):
    b = g.shape[0]
    gc = g.reshape(b, length, c, k)
    out = np.zeros((b, length, c), g.dtype)
    # taps in descending order add each position's terms in the order of
    # increasing window start
    for j, s, lo, hi in reversed(list(_shifts(k, pad, length))):
        out[:, lo + s:hi + s] += gc[:, lo:hi, :, j]
    return out.transpose(0, 2, 1)                   # (B, C, L)


def unfold1d(a, k, pad):
    """(B, C, L) -> (B, L, C*k) sliding windows with zero padding."""
    a = asvar(a)
    b, c, length = a.data.shape
    return Var(_unfold_data(a.data, k, pad), (a,),
               lambda g: (fold1d(g, k, pad, c, length),))


def fold1d(a, k, pad, c, length):
    """Adjoint of unfold1d: scatter-add windows back to (B, C, L)."""
    a = asvar(a)
    return Var(_fold_data(a.data, k, pad, c, length), (a,),
               lambda g: (unfold1d(g, k, pad),))


def conv1d(x, w, b=None):
    """(B, C, L) * (O, C, k) [+ (O,)] -> (B, O, L), stride 1, odd k, zero
    same-padding: the unfolded windows (B*L, C*k) times the kernel's rows
    (O, C*k) transposed, plus the bias, back to channels first."""
    x, w = asvar(x), asvar(w)
    if x.data.ndim != 3 or w.data.ndim != 3 or x.data.shape[1] != w.data.shape[1] \
            or w.data.shape[2] % 2 == 0:
        raise ShapeMismatch(f"conv1d cannot take input {x.data.shape} with "
                            f"kernel {w.data.shape}")
    bsz, c, length = x.data.shape
    o, _, k = w.data.shape
    cols = reshape(unfold1d(x, k, (k - 1) // 2), (bsz * length, c * k))
    y = matmul(cols, transpose(reshape(w, (o, c * k))))
    if b is not None:
        y = add(y, b)
    return transpose(reshape(y, (bsz, length, o)), (0, 2, 1))
