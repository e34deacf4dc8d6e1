"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (explicit loops, direct
formulas) and shares no code with the package: these are the second route
in every dual-route test.  The conv and pool oracles take and return NCHW
maps; ``to_nhwc``/``to_nchw`` convert to and from the library's
channels-last layout.
"""

import numpy as np


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.result_type(a, b))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def to_nhwc(x):
    """[B, C, H, W] -> [B, H, W, C], the library's map layout."""
    return np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)))


def to_nchw(x):
    """[B, H, W, C] -> [B, C, H, W], the layout of the loop oracles here."""
    return np.ascontiguousarray(np.transpose(x, (0, 3, 1, 2)))


def conv2d_loops(x, w, bias=None, stride=1, padding=0, groups=1):
    b, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, cout, ho, wo), dtype=x.dtype)
    cin_g = cin // groups
    cout_g = cout // groups
    for n in range(b):
        for oc in range(cout):
            g = oc // cout_g
            for i in range(ho):
                for j in range(wo):
                    s = 0.0
                    for ic in range(cin_g):
                        for u in range(kh):
                            for v in range(kw):
                                s += (xp[n, g * cin_g + ic, i * stride + u,
                                         j * stride + v]
                                      * w[oc, ic, u, v])
                    out[n, oc, i, j] = s + (bias[oc] if bias is not None else 0.0)
    return out


def depthwise_loops(x, w, bias=None, padding=1):
    c = x.shape[1]
    return conv2d_loops(x, w, bias, stride=1, padding=padding, groups=c)


def pool_bins(extent: int, target: int):
    """Bin i covers [floor(i*extent/target), ceil((i+1)*extent/target))."""
    import math
    return [(math.floor(i * extent / target), math.ceil((i + 1) * extent / target))
            for i in range(target)]


def avg_pool_loops(x, oh, ow):
    b, c, h, w = x.shape
    rows, cols = pool_bins(h, oh), pool_bins(w, ow)
    out = np.zeros((b, c, oh, ow), dtype=np.float64)
    for n in range(b):
        for ch in range(c):
            for i, (r0, r1) in enumerate(rows):
                for j, (c0, c1) in enumerate(cols):
                    acc, cnt = 0.0, 0
                    for r in range(r0, r1):
                        for cc in range(c0, c1):
                            acc += x[n, ch, r, cc]
                            cnt += 1
                    out[n, ch, i, j] = acc / cnt
    return out


def max_pool_loops(x, oh, ow):
    b, c, h, w = x.shape
    rows, cols = pool_bins(h, oh), pool_bins(w, ow)
    out = np.zeros((b, c, oh, ow), dtype=np.float64)
    for n in range(b):
        for ch in range(c):
            for i, (r0, r1) in enumerate(rows):
                for j, (c0, c1) in enumerate(cols):
                    best = -np.inf
                    for r in range(r0, r1):
                        for cc in range(c0, c1):
                            best = max(best, x[n, ch, r, cc])
                    out[n, ch, i, j] = best
    return out


def layer_norm_loops(x, gamma, beta, eps=1e-6):
    """Normalize the last axis with explicit per-vector statistics."""
    flat = x.reshape(-1, x.shape[-1]).astype(np.float64)
    out = np.zeros_like(flat)
    for i in range(flat.shape[0]):
        v = flat[i]
        mu = sum(v) / len(v)
        var = sum((e - mu) ** 2 for e in v) / len(v)
        out[i] = (v - mu) / np.sqrt(var + eps) * gamma + beta
    return out.reshape(x.shape)


def softmax_longdouble(row):
    """Row softmax in extended precision, direct formula."""
    z = np.asarray(row, dtype=np.longdouble)
    e = np.exp(z - z.max())
    return (e / e.sum()).astype(np.float64)


def vanilla_mhsa(x, wq, bq, wk, bk, wv, bv, wo, bo, kv_gamma, kv_beta, heads,
                 eps=1e-6):
    """Standard multi-head attention, computed head by head from loops.

    Keys and values come from the layer-normalized input (the layer being
    checked normalizes its pooled key/value sequence; at pooling ratio 1
    that sequence is the input itself, so the oracle applies the same
    normalization, recomputed independently here).
    """
    b, n, c = x.shape
    d = c // heads
    out = np.zeros((b, n, c), dtype=np.float64)
    kv_in = layer_norm_loops(x, kv_gamma, kv_beta, eps)
    for bi in range(b):
        q = x[bi] @ wq + bq
        k = kv_in[bi] @ wk + bk
        v = kv_in[bi] @ wv + bv
        ctx = np.zeros((n, c), dtype=np.float64)
        for h in range(heads):
            qs = q[:, h * d:(h + 1) * d]
            ks = k[:, h * d:(h + 1) * d]
            vs = v[:, h * d:(h + 1) * d]
            scores = qs @ ks.T / np.sqrt(d)
            for i in range(n):
                probs = softmax_longdouble(scores[i])
                ctx[i, h * d:(h + 1) * d] = probs @ vs
        out[bi] = ctx @ wo + bo
    return out


def adamw_hand(x0, grad_fn, lr_fn, weight_decay, steps,
               beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-stepped decoupled-weight-decay Adam trajectory."""
    x = np.array(x0, dtype=np.float64)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trajectory = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr_fn(t) * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * x)
        trajectory.append(x.copy())
    return trajectory


def adamw_loop(params, grads, m, v, lr, weight_decay, step,
               beta1=0.9, beta2=0.999, eps=1e-8):
    """One AdamW step, one parameter at a time, in place on every array.

    The operations of the textbook formula in its order, applied to each
    parameter's own arrays: the loop the chunked optimizer replaces, and
    the bits it must reproduce.
    """
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * g * g
        update = mi / c1
        denom = vi / c2
        np.sqrt(denom, out=denom)
        denom += eps
        update /= denom
        update += weight_decay * p
        update *= lr
        p -= update


def backward_sweep(loss, seed=None):
    """The first reverse sweep of a ``ppvit.tensor`` graph, as it was written.

    A post-order DFS from the loss keyed by ``id``, then interior gradients
    summed per node in the reverse of that order: the order every fan-in sum
    must keep for gradients to keep their bits.  It reads only the graph's
    attributes (a node's ``inputs`` and ``backward_fn``; a leaf has no
    ``backward_fn`` and receives ``grad``) and does not free the graph.
    """
    root = loss.creator or loss
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            topo.append(entry)
            continue
        if id(entry) in visited:
            continue
        visited.add(id(entry))
        stack.append((entry, True))
        if hasattr(entry, "backward_fn"):
            stack.extend((inp, False) for inp in entry.inputs
                         if inp is not None and id(inp) not in visited)
    grads = {id(root): np.ones_like(loss.data) if seed is None else seed}
    while topo:
        entry = topo.pop()
        grad = grads.pop(id(entry), None)
        if grad is None:
            continue
        if not hasattr(entry, "backward_fn"):
            entry.grad = grad.copy() if entry.grad is None else entry.grad + grad
            continue
        for inp, g in zip(entry.inputs, entry.backward_fn(grad)):
            if g is None or inp is None:
                continue
            key = id(inp)
            grads[key] = g if key not in grads else grads[key] + g
