"""Leading-axis-batched ensemble programs (tape v2's batched replay).

A :class:`repro.core.ensemble.RobustEnsemble` fits N independent members
whose training graphs are *structurally identical* whenever their specs
match — same architecture, same shapes, different seeds.  Fitting them as N
python fits (even thread-parallel ones) leaves most of the arithmetic
serialised behind the GIL and the interpreter.  This module stacks the M
members of such a group along a new leading axis — parameters ``(M, ...)``,
activations ``(M, C, L)``, gradients ``(M, ...)`` — so one training epoch of
the whole group executes as a handful of batched GEMMs, and the tape then
replays that single batched program per epoch.

Bit-identity to the serial member fits is a hard contract (the ensemble's
``compile="batched"`` mode must change wall-clock, never results).  Every
batched op here is constructed so its member slice runs the exact
floating-point operation sequence of the serial op:

* ``np.matmul`` on ``(M, a, b) @ (M, b, c)`` stacks computes each slice
  exactly like the serial 2D GEMM (measured, and guarded by the ensemble
  contract test);
* reductions are taken per member (``sum(axis=(1, 2))``, per-member
  ``np.dot`` norms) over the same contiguous memory order the serial fit
  reduces, so pairwise summation splits identically;
* the loss scales by ``1 / (D * C)`` — each member's *own* element count —
  so gradients match the serial per-member ``mse_loss`` bit for bit;
* gradient clipping and Adam run per member slice (elementwise ops on the
  stacked arrays), with the optimiser's shared step counter in lockstep
  with every still-active member's serial counter.

Stacked *inference* programs (this PR).  Training batching stacks M copies
of one spec fitted together; serving wants the transpose — M **already
fitted** detectors of the same spec, each with its own weights, scoring M
independent window slices in one pass.  :func:`stacked_score_plan` flattens
the members' stable score forwards into one shared step plan, and
:class:`StackedScoreProgram` compiles that plan into persistent buffers
whose conv steps run the *exact* length-stable arithmetic of the serial
serving kernel per member slice (the same per-position channel dot, the
same tap order, the same in-place accumulation), so slice ``m`` of the
stacked output is bit-identical to member ``m``'s solo stable forward.  A
:class:`WeightBank` keeps one stacked copy of every member's conv weights
per architecture; a program does not depend on which members a drain
contains and loads its rows from the bank with one ``take`` per conv
buffer before it replays.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import functional as F
from . import tape as nn_tape
from .layers import (
    Conv1d,
    MaxPool1d,
    Module,
    Parameter,
    ReLU,
    parameter_generation,
    weights_token,
)
from .tensor import Tensor, _record, as_tensor, no_grad

__all__ = [
    "BatchedConvSeriesAE",
    "StackedScoreProgram",
    "WeightBank",
    "bconv1d",
    "batched_mse_loss",
    "batched_clip_grad_norm",
    "batched_train_reconstruction",
    "stacked_score_plan",
]


def bconv1d(x, weight, bias, padding=0):
    """Member-batched 1D convolution (stride 1).

    Parameters
    ----------
    x: Tensor ``(M, C_in, L)`` — one sample per member.
    weight: Tensor ``(M, C_out, C_in, K)`` — stacked member kernels.
    bias: Tensor ``(M, C_out)``.
    padding: symmetric zero padding on the length axis.

    Slice ``m`` of the output reproduces ``conv1d(x[m:m+1], weight[m],
    bias[m])`` bit for bit: the multi-channel path runs the same per-tap
    GEMM accumulation in the same tap order (batched matmul computes each
    member slice exactly like the serial 2D GEMM), and the single-channel
    path runs the serial im2col einsum per member slice.
    """
    x = F.pad1d(as_tensor(x), padding)
    weight = as_tensor(weight)
    bias = as_tensor(bias)
    m, c_in, length = x.shape
    m_w, c_out, c_in_w, k = weight.shape
    if m != m_w or c_in != c_in_w:
        raise ValueError(
            "batched shape mismatch: x %s vs weight %s"
            % ((m, c_in, length), weight.shape)
        )
    if length < k:
        raise ValueError("input length %d shorter than kernel %d" % (length, k))
    l_out = length - k + 1
    scratch = [None]

    def forward(out=None):
        if out is None:
            out = np.empty((m, c_out, l_out))
        if c_in == 1:
            # Serial conv1d takes the im2col einsum for single-channel
            # inputs; run it per member slice so the bits match.
            cols = sliding_window_view(x.data, k, axis=2)
            for i in range(m):
                np.einsum(  # repro: lint-ok[einsum-order] training-only batched kernel; per-member slice of the serial eager einsum, never under stable_kernels()
                    "nclk,fck->nfl", cols[i : i + 1], weight.data[i],
                    optimize=True, out=out[i : i + 1])
        else:
            np.matmul(weight.data[:, :, :, 0], x.data[:, :, 0:l_out], out=out)
            tmp = scratch[0]
            if k > 1 and (tmp is None or tmp.shape != out.shape):
                tmp = scratch[0] = np.empty_like(out)
            for tap in range(1, k):
                np.matmul(weight.data[:, :, :, tap],
                          x.data[:, :, tap : tap + l_out], out=tmp)
                np.add(out, tmp, out=out)
        out += bias.data[:, :, None]
        return out

    gx_buf = [None]
    gtmp_buf = [None]

    def backward(grad):
        # grad: (M, C_out, L_out)
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for tap in range(k):
                xt = x.data[:, :, tap : tap + l_out]
                # Slice m: grad[m] @ xt[m].T — the serial n==1 branch.
                np.matmul(grad, xt.transpose(0, 2, 1), out=gw[:, :, :, tap])
            weight._accumulate_owned(gw)
        if bias.requires_grad:
            # Slice m equals the serial grad.sum(axis=(0, 2)) over (1, F, L).
            bias._accumulate(grad.sum(axis=2))
        if x.requires_grad:
            gx = gx_buf[0]
            if gx is None or gx.shape != x.data.shape:
                gx = gx_buf[0] = np.zeros_like(x.data)
            else:
                gx.fill(0.0)
            tmp = gtmp_buf[0]
            if tmp is None or tmp.shape != (m, c_in, l_out):
                tmp = gtmp_buf[0] = np.empty((m, c_in, l_out))
            for tap in range(k):
                np.matmul(weight.data[:, :, :, tap].transpose(0, 2, 1), grad,
                          out=tmp)
                target = gx[:, :, tap : tap + l_out]
                np.add(target, tmp, out=target)
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), (x, weight, bias), backward)
    _record(out, forward)
    return out


class BatchedConvSeriesAE(Module):
    """M identical-shape :class:`~repro.core.autoencoders.ConvSeriesAE`
    members stacked into one leading-axis-batched module.

    Construction copies every member's parameters into stacked ``(M, ...)``
    Parameters; the forward mirrors ``ConvSeriesAE.forward`` with
    :func:`bconv1d` in place of the per-member convs (pooling, upsampling
    and activations are per-sample ops, so the stacked batch axis rides
    their existing batch axis unchanged).
    """

    # Pure structured primitives with shape-only branching — a recorded
    # batched training tape replays the whole group faithfully.
    tape_safe = True

    def __init__(self, models):
        super().__init__()
        if len(models) < 2:
            raise ValueError("need at least two members to batch")
        stacks = []
        for position in zip(*(model.named_parameters() for model in models)):
            names = {name for name, __ in position}
            if len(names) != 1:
                raise ValueError("member parameter orders diverge: %s" % names)
            stacks.append(Parameter(np.stack([p.data for __, p in position])))
        # Registered parameter list, in member named_parameters order (the
        # list registers each Parameter item; the structural pair lists
        # below hold tuples, which parameter registration skips).
        self.params = stacks
        pairs = [(stacks[2 * j], stacks[2 * j + 1])
                 for j in range(len(stacks) // 2)]
        num_layers = (len(pairs) - 1) // 2
        self._enc = pairs[:num_layers]
        self._dec = pairs[num_layers : 2 * num_layers]
        self._head = [pairs[2 * num_layers]]
        self.n_members = len(models)
        kernel_size = int(stacks[0].shape[3])
        self.padding = kernel_size // 2

    def forward(self, x):
        # Mirrors ConvSeriesAE.forward with the member axis riding the
        # batch axis of the pooling/upsampling/activation primitives.
        length = x.shape[2]
        h = x
        for w, b in self._enc:
            h = bconv1d(h, w, b, padding=self.padding).relu()
        h = F.max_pool1d(h, 2)
        h = F.upsample1d(h, 2, size=length)
        for w, b in self._dec:
            h = bconv1d(h, w, b, padding=self.padding).relu()
        w, b = self._head[0]
        return bconv1d(h, w, b, padding=self.padding)

    def snapshot_member(self, index):
        """Copies of member ``index``'s parameter slices, in the member's
        ``named_parameters`` order (used to freeze a converged member while
        the rest of the group keeps training its slice as dead weight)."""
        return [p.data[index].copy() for p in self.params]


def batched_mse_loss(prediction, target):
    """Sum over members of each member's own ``mse_loss``.

    The per-element gradient is ``2 * diff / (D * C)`` — each member's own
    element count, exactly the serial ``mse_loss`` scaling — and the
    per-member reduction sums the same contiguous ``(D, C)`` block the
    serial loss sums, so both values and gradients match bit for bit.
    """
    diff = prediction - Tensor(target)
    sq = diff * diff
    per_member = sq.sum(axis=(1, 2))
    numel = float(target.shape[1] * target.shape[2])
    return (per_member * (1.0 / numel)).sum()


def batched_clip_grad_norm(parameters, max_norm, n_members):
    """Per-member-slice gradient clipping matching serial ``clip_grad_norm``.

    Each member's norm accumulates ``np.dot`` products over its parameter
    slices in the same parameter order (and the same contiguous memory
    order) as the serial clip, and only clipped members are rescaled —
    unclipped slices are multiplied by exactly 1.0, a bitwise identity.
    Returns the per-member pre-clip norms.
    """
    parameters = [p for p in parameters if p.grad is not None]
    totals = np.zeros(n_members)
    for p in parameters:
        rows = p.grad.reshape(n_members, -1)
        for i in range(n_members):
            row = rows[i]
            totals[i] += np.dot(row, row)
    norms = np.sqrt(totals)
    clipped = (norms > max_norm) if max_norm > 0 else np.zeros(n_members, bool)
    if clipped.any():
        scales = np.ones(n_members)
        scales[clipped] = max_norm / (norms[clipped] + 1e-12)
        for p in parameters:
            p.grad *= scales.reshape((n_members,) + (1,) * (p.grad.ndim - 1))
    return norms


def batched_train_reconstruction(model, optimizer, inputs, epochs, n_members):
    """Full-batch reconstruction training of a stacked member group.

    The batched counterpart of
    :func:`repro.core.autoencoders.train_reconstruction`: minimises each
    member's own reconstruction loss for ``epochs`` Adam steps and returns
    the final stacked reconstruction ``(M, D, C)`` as a plain array.  The
    first step records a tape of the whole batched program; later epochs —
    and later calls from the ensemble's ADMM iterations — replay it.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    epochs = max(int(epochs), 1)

    def loss_fn(x):
        prediction = model(x)
        return batched_mse_loss(prediction, x.data), prediction

    done = 0
    tape = nn_tape.training_tape(model, inputs, None, loss_fn=loss_fn)
    if tape is not None:
        for __ in range(epochs):
            optimizer.zero_grad()
            tape.step(inputs, None)
            batched_clip_grad_norm(model.params, 5.0, n_members)
            optimizer.step()
            done += 1
            if tape.failed:
                break
        if not tape.failed:
            return np.array(tape.forward(inputs))
    output = None
    for __ in range(epochs - done):
        optimizer.zero_grad()
        loss, __prediction = loss_fn(Tensor(inputs))
        loss.backward()
        batched_clip_grad_norm(model.params, 5.0, n_members)
        optimizer.step()
    with no_grad():
        output = model(Tensor(inputs)).data
    return output


# --------------------------------------------------------------------- #
# stacked inference programs (cross-detector batched score forwards)
# --------------------------------------------------------------------- #

#: Plan marker for :class:`repro.core.autoencoders.ConvSeriesAE`'s
#: functional decode-side upsampling (it is called in ``forward``, not
#: registered as a child module, so the layer chain needs a stand-in).
_UPSAMPLE = object()


def _score_layer_chain(module):
    """The flat layer chain ``module``'s stable score forward executes.

    Only architectures whose serving forward is a straight pipeline of
    Conv1d/ReLU/MaxPool1d/upsample steps have a stacked-inference
    template; anything else returns None (the caller falls back to solo
    tapes or eager forwards).  Matching is by type name + structural
    validation in :func:`stacked_score_plan` — ``repro.nn`` cannot import
    ``repro.core``, and the architecture fingerprints that group members
    guarantee homogeneous types anyway.
    """
    name = type(module).__name__
    if name == "ConvSeriesAE":
        return (list(module.encoder) + [_UPSAMPLE]
                + list(module.decoder_convs) + [module.readout])
    if name == "ConvTransform1d":
        return list(module.net)
    return None


def stacked_score_plan(modules):
    """Shared step plan for same-architecture members, or None.

    ``modules`` holds one serving module per batch row (the same object
    may appear on several rows).  Returns a list of steps —
    ``("conv", member_layers, padding)`` / ``("relu",)`` /
    ``("pool", kernel)`` / ``("upsample", factor)`` — when every member
    runs the identical pipeline with identically-shaped weights, and None
    when the group cannot stack (unknown architecture, diverging layer
    counts, or mismatched weight shapes after a botched hot-swap).
    """
    modules = list(modules)
    if not modules:
        return None
    first_type = type(modules[0])
    if any(type(module) is not first_type for module in modules):
        return None
    chains = []
    for module in modules:
        try:
            chain = _score_layer_chain(module)
        except (AttributeError, TypeError):
            return None
        if chain is None:
            return None
        chains.append(chain)
    if len({len(chain) for chain in chains}) != 1:
        return None
    steps = []
    for position in zip(*chains):
        lead = position[0]
        if lead is _UPSAMPLE:
            if any(layer is not _UPSAMPLE for layer in position):
                return None
            steps.append(("upsample", 2))
        elif isinstance(lead, Conv1d):
            shape = lead.weight.data.shape
            padding = lead.padding
            ok = all(
                isinstance(layer, Conv1d)
                and layer.weight.data.shape == shape
                and layer.padding == padding
                and layer.bias is not None
                for layer in position
            )
            if not ok:
                return None
            steps.append(("conv", position, int(padding)))
        elif isinstance(lead, ReLU):
            if any(not isinstance(layer, ReLU) for layer in position):
                return None
            steps.append(("relu",))
        elif isinstance(lead, MaxPool1d):
            kernel = lead.kernel
            if any(not isinstance(layer, MaxPool1d) or layer.kernel != kernel
                   for layer in position):
                return None
            steps.append(("pool", int(kernel)))
        else:
            return None
    if not any(step[0] == "conv" for step in steps):
        return None
    return steps


def _member_plan(module):
    """``(plan, signature)`` of one module's stacked score forward, or
    ``(None, None)``.  The signature is the plan's structure without its
    layers — module type, step kinds, conv weight and bias shapes,
    paddings — so two modules with equal signatures stack."""
    plan = stacked_score_plan([module])
    if plan is None:
        return None, None
    return plan, (type(module),) + tuple(
        ("conv", step[1][0].weight.data.shape, step[1][0].bias.data.shape,
         step[2])
        if step[0] == "conv" else step
        for step in plan
    )


def _plan_convs(plan):
    """The first member's conv layers, in plan order."""
    return [step[1][0] for step in plan if step[0] == "conv"]


class WeightBank:
    """Stacked conv weights of every module seen for one architecture.

    One row per member module: ``weights[i][row]`` and ``biases[i][row]``
    hold copies of that module's ``i``-th conv weight and bias.  A module
    gets its row, after a :func:`stacked_score_plan` check against the
    bank's plan, the first time :meth:`rows` sees it; later lookups at the
    same :func:`repro.nn.layers.parameter_generation` are one dict read.
    When the generation moves each member is re-checked once: a module
    whose parameters were rebound (its :func:`weights_token` changed) is
    re-planned and its row re-copied.  In-place writes to a member's
    weights are therefore *not* seen — hot-swap by rebinding ``.data``.

    Rows are keyed by the module object through weak references: a dead
    module's row is reused, never aliased to a new module through ``id``
    reuse, and the bank keeps no member alive.
    """

    #: Stacked parameter buffers the programs gather from; mutating them
    #: outside this class is flagged by ``repro lint``.
    _STACKED_BUFFERS = ("weights", "biases")

    #: Lock discipline, machine-checked by ``repro lint`` (lock-guarded).
    _GUARDED_BY = {"_rows": "_lock", "_size": "_lock"}

    def __init__(self, module):
        plan, self.signature = _member_plan(module)
        if plan is None:
            raise ValueError("%s has no stacked score plan"
                             % type(module).__name__)
        convs = _plan_convs(plan)
        self.weights = [np.empty((0,) + layer.weight.data.shape)
                        for layer in convs]
        self.biases = [np.empty((0,) + layer.bias.data.shape)
                       for layer in convs]
        #: Bumped on every row write; a program skips its gather when
        #: neither this nor its row selection changed since its last load.
        self.version = 0
        self._rows = weakref.WeakKeyDictionary()  # module -> entry
        self._size = 0
        self._lock = threading.Lock()

    def rows(self, modules):
        """``(rows, rebound)`` for ``modules`` (one row per entry; a
        module may repeat).

        ``rebound`` counts banked members whose parameters were rebound
        since their row was copied.  ``rows`` is None when a member does
        not fit the bank's plan (e.g. a weight swapped to a different
        shape): the caller falls back to eager forwards.
        """
        generation = parameter_generation()
        rows, rebound = [], 0
        with self._lock:
            for module in modules:
                entry = self._rows.get(module)
                if entry is None or entry[2] != generation:
                    if not self._admit_locked(module, entry, generation):
                        rebound += entry is not None
                    entry = self._rows[module]
                if not entry[3]:
                    return None, rebound
                rows.append(entry[0])
        return tuple(rows), rebound

    def _admit_locked(self, module, entry, generation):
        """Validate ``module``'s row at ``generation``; returns whether its
        banked weights were already current.

        An entry is ``[row, weights token, generation, accepted]``.
        """
        token = weights_token(module)
        if entry is not None and entry[1] is token:
            entry[2] = generation
            return True
        plan, signature = _member_plan(module)
        accepted = signature == self.signature
        row = None if entry is None else entry[0]
        if accepted:
            if row is None:
                row = self._free_row_locked()
            for w, b, layer in zip(self.weights, self.biases, _plan_convs(plan)):
                np.copyto(w[row], layer.weight.data)
                np.copyto(b[row], layer.bias.data)
            self.version += 1
        self._rows[module] = [row, token, generation, accepted]
        return False

    def _free_row_locked(self):
        capacity = self.weights[0].shape[0]
        if self._size == capacity:
            used = {entry[0] for entry in self._rows.values()}
            for row in range(self._size):
                if row not in used:  # its module was collected
                    return row
            capacity = max(8, 2 * capacity)
            for stack in (self.weights, self.biases):
                for i, old in enumerate(stack):
                    grown = np.empty((capacity,) + old.shape[1:])
                    grown[: self._size] = old
                    stack[i] = grown
        self._size += 1
        return self._size - 1

    def gather(self, rows, weights, biases):
        """Copy bank ``rows`` into a program's stacked ``weights`` and
        ``biases`` (one ``take`` per buffer); returns the bank version the
        copy reflects."""
        index = np.asarray(rows, dtype=np.intp)
        with self._lock:
            for source, out in zip(self.weights + self.biases,
                                   list(weights) + list(biases)):
                source.take(index, axis=0, out=out, mode="clip")
            return self.version

    def __len__(self):
        """Live member modules with an entry in the bank."""
        with self._lock:
            return len(self._rows)

    def __repr__(self):
        return "WeightBank(modules=%d, convs=%d)" % (
            len(self), len(self.weights))


class StackedScoreProgram:
    """Compiled stacked score forward: M members, one replayable pipeline.

    Built from a :func:`stacked_score_plan` for a fixed stacked input
    shape ``(M, C_in, L)`` — row ``m`` is one window slice owned by member
    ``m``.  Member weights are stacked along a leading axis once at build
    time, every intermediate activation gets a persistent buffer, and
    :meth:`run` just executes the step closures.  Each conv step runs the
    serving kernel's length-stable arithmetic per member slice — the same
    per-position channel dot (``einsum("mfc,mcl->mfl")`` computes slice
    ``m`` exactly like the serial ``einsum("fc,ncl->nfl")``), the same tap
    order, the same in-place tap accumulation and bias add — so the
    stacked output is bit-identical to M solo stable forwards.

    The stacked parameter copies are replay state: mutating them outside
    this class desynchronises the program from its members silently (the
    ``stacked-weight-mutation`` lint rule flags it).  A program cached for
    a whole architecture replays different members on every drain:
    :meth:`run` with a :class:`WeightBank` and a row selection gathers
    those members' weights first (skipped when neither changed since the
    last load).
    """

    #: Stacked parameter buffers owned by the recorded program; mutating
    #: them outside this class is flagged by ``repro lint``.
    _STACKED_BUFFERS = ("weights", "biases")

    def __init__(self, plan, shape):
        m, dims, length = (int(d) for d in shape)
        self.n_members = m
        self.replays = 0
        self.weights = []  # one stacked (M, F, C_in, K) array per conv step
        self.biases = []   # one stacked (M, F) array per conv step
        self._steps = []
        self._loaded = None  # (bank, bank version, rows) last gathered
        self._lock = threading.Lock()
        self.x = np.empty((m, dims, length))
        cur, channels, l_cur = self.x, dims, length
        for step in plan:
            op = step[0]
            if op == "conv":
                cur, channels, l_cur = self._build_conv(
                    step[1], step[2], cur, channels, l_cur
                )
            elif op == "relu":
                buf = np.empty_like(cur)
                self._steps.append(self._relu_step(cur, buf))
                cur = buf
            elif op == "pool":
                kernel = step[1]
                l_out = l_cur // kernel
                buf = np.empty((m, channels, l_out))
                self._steps.append(
                    self._pool_step(cur, buf, channels, l_out, kernel)
                )
                cur, l_cur = buf, l_out
            elif op == "upsample":
                # ConvSeriesAE upsamples back to the *input* length
                # (forward passes size=length to the functional op).
                index = np.minimum(np.arange(length) // step[1], l_cur - 1)
                buf = np.empty((m, channels, length))
                self._steps.append(self._upsample_step(cur, buf, index))
                cur, l_cur = buf, length
            else:  # pragma: no cover - plan and builder ship together
                raise ValueError("unknown plan step %r" % (op,))
        self.out = cur

    def _build_conv(self, members, padding, src, c_in, l_cur):
        if len(members) != self.n_members:
            raise ValueError(
                "plan has %d members but the batch stacks %d rows"
                % (len(members), self.n_members)
            )
        w = np.stack([layer.weight.data for layer in members])
        b = np.stack([layer.bias.data for layer in members])
        self.weights.append(w)
        self.biases.append(b)
        f, k = int(w.shape[1]), int(w.shape[3])
        l_in = l_cur + 2 * padding
        if l_in < k:
            raise ValueError(
                "input length %d shorter than kernel %d" % (l_in, k)
            )
        l_out = l_in - k + 1
        # The pad buffer is zeroed once; replays rewrite only the interior
        # (the padding columns stay zero), exactly like the solo pad1d
        # closure replaying into its reused buffer.
        padded = np.zeros((self.n_members, c_in, l_in)) if padding else None
        out = np.empty((self.n_members, f, l_out))
        tmp = np.empty_like(out) if k > 1 else None

        def step(src=src, padded=padded, w=w, b=b, out=out, tmp=tmp,
                 c_in=c_in, k=k, l_out=l_out, padding=padding, l_raw=l_cur):
            if padded is not None:
                padded[:, :, padding : padding + l_raw] = src
                xp = padded
            else:
                xp = src
            # Mirror the solo stable kernel tap by tap: fixed-order
            # accumulation, per-position channel dot, broadcast multiply
            # for the degenerate single-channel case.
            if c_in == 1:
                np.multiply(xp[:, :, 0:l_out],
                            w[:, :, 0, 0][:, :, None], out=out)
            else:
                np.einsum("mfc,mcl->mfl", w[:, :, :, 0],
                          xp[:, :, 0:l_out], optimize=False, out=out)
            for tap in range(1, k):
                if c_in == 1:
                    np.multiply(xp[:, :, tap : tap + l_out],
                                w[:, :, 0, tap][:, :, None], out=tmp)
                else:
                    np.einsum("mfc,mcl->mfl", w[:, :, :, tap],
                              xp[:, :, tap : tap + l_out],
                              optimize=False, out=tmp)
                np.add(out, tmp, out=out)
            out += b[:, :, None]

        self._steps.append(step)
        return out, f, l_out

    @staticmethod
    def _relu_step(src, out):
        def step(src=src, out=out):
            np.multiply(src, src > 0, out=out)

        return step

    @staticmethod
    def _pool_step(src, out, channels, l_out, kernel):
        def step(src=src, out=out, c=channels, l_out=l_out, kernel=kernel):
            m = src.shape[0]
            trimmed = src[:, :, : l_out * kernel].reshape(m, c, l_out, kernel)
            arg = trimmed.argmax(axis=3)
            np.copyto(
                out, np.take_along_axis(trimmed, arg[..., None], axis=3)[..., 0]
            )

        return step

    @staticmethod
    def _upsample_step(src, out, index):
        def step(src=src, out=out, index=index):
            np.take(src, index, axis=2, out=out)

        return step

    def run(self, batch, bank=None, rows=None):
        """The stacked reconstruction of ``batch`` (shape ``(M, C_in, L)``).

        With a ``bank``, row ``m`` replays with the weights of bank row
        ``rows[m]``.  Returns the persistent output buffer — consume it
        before the next ``run``.  Replays are serialised by an internal
        lock (the buffers are shared mutable state).
        """
        with self._lock:
            if bank is not None:
                loaded = self._loaded
                if (loaded is None or loaded[0] is not bank
                        or loaded[1] != bank.version or loaded[2] != rows):
                    version = bank.gather(rows, self.weights, self.biases)
                    self._loaded = (bank, version, rows)
            if batch is not self.x:
                np.copyto(self.x, batch)
            for step in self._steps:
                step()
            self.replays += 1
            return self.out

    def __repr__(self):
        return "StackedScoreProgram(members=%d, convs=%d, replays=%d)" % (
            self.n_members, len(self.weights), self.replays
        )
