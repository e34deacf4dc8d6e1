"""Block-level layers: inverted-bottleneck FFN, transformer block, patch embed.

Every layer maps a channels-last token map [B, H, W, C] to another.  The FFN
is convolutional: tokens are expanded 1x1, filtered by a 3x3 depthwise conv
(which injects spatial locality into the feed-forward path), and projected
back.  A plain token-MLP variant is kept for ablation.  Blocks are post-norm:
each residual sum is followed by a layer norm.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .attention import PMHSAState, pmhsa_forward
from .tensor import Tensor


@dataclass
class IRBState:
    """Inverted-bottleneck FFN parameters.

    The 1x1 convs are stored as token-space linears ([C, E*C] and [E*C, C]);
    a 1x1 conv over a [B, H, W, C] map is exactly a per-token linear map.
    ``dw`` is the depthwise 3x3 [E*C, 1, 3, 3], ``None`` for the token-MLP
    variant.
    """

    act: str
    expand: T.Affine
    dw: T.Affine | None
    project: T.Affine


def irb_forward(x: Tensor, state: IRBState) -> Tensor:
    """Expand, (depthwise filter,) activate, project.  [B, H, W, C] -> same.

    With ``dw`` it activates after both the expansion and the depthwise
    conv; without it, once between the two linears.  Each activation runs
    inside the op that reads it (``act=``), so the graph keeps only the
    pre-activation maps.
    """
    hdn = T.matmul(x, state.expand.weight, state.expand.bias)
    if state.dw is not None:
        hdn = T.conv2d(hdn, state.dw.weight, state.dw.bias, padding=1,
                       groups=hdn.shape[-1], act=state.act)
    return T.matmul(hdn, state.project.weight, state.project.bias, act=state.act)


@dataclass
class BlockState:
    """One block's parameters; ``ln1`` follows the attention residual and
    ``ln2`` the FFN residual."""

    attn: PMHSAState
    ln1: T.Norm
    ffn: IRBState
    ln2: T.Norm


def block_forward(x: Tensor, state: BlockState) -> Tensor:
    """Post-norm block: norm(x + attn(x)) then norm(. + ffn(.)), each sum in its norm."""
    att = T.layer_norm(x, state.ln1.gamma, state.ln1.beta, residual=pmhsa_forward(x, state.attn))
    return T.layer_norm(att, state.ln2.gamma, state.ln2.beta, residual=irb_forward(att, state.ffn))


@dataclass
class PatchEmbedState:
    """Overlapped patch embedding: strided conv then layer norm per token.

    The stem uses a 7x7/4 kernel (pad 3); stage transitions use 3x3/2
    (pad 1).  Both halve-or-quarter the grid while letting neighboring
    patches overlap.  ``conv.weight`` is [C_out, C_in, k, k].
    """

    conv: T.Affine
    ln: T.Norm
    stride: int
    padding: int


def patch_embed(x_img: Tensor, state: PatchEmbedState) -> Tensor:
    """[B, H, W, C_in] map -> layer-normed [B, H', W', C_out] map."""
    y = T.conv2d(x_img, state.conv.weight, state.conv.bias,
                 stride=state.stride, padding=state.padding)
    return T.layer_norm(y, state.ln.gamma, state.ln.beta)
