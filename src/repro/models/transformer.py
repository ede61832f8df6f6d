"""Transformer model builders: GPT-3, Bloom, BERT, T5.

Work profiles follow the standard FLOP accounting for Transformer training
(e.g., Megatron-LM's appendix): per microbatch of ``b`` sequences of length
``s`` with hidden size ``h``, attention dim ``d_attn`` and FFN dim ``d_ff``:

* self-attention projections: ``2*b*s*h*d_attn * 4`` FLOPs (Q, K, V, out)
* attention scores + context:  ``4*b*s*s*d_attn`` FLOPs
* FFN:                        ``4*b*s*h*d_ff`` FLOPs
* cross-attention (T5 decoder) adds another attention block
* LM head:                    ``2*b*s*h*V`` FLOPs

Memory traffic per layer counts one weight read plus a constant number of
activation sweeps; the exact constant only shifts the compute/memory balance
slightly and is calibrated so that large-model stages are strongly
compute-bound (as on real A100s).

The vocabulary head is what breaks perfect balance for GPT-3 (V=50k), Bloom
(V=251k) and BERT (V=31k) -- Appendix B.1 -- and these builders reproduce
exactly that structure: the head is a pinned tail on the last stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import ConfigurationError
from ..gpu.energy_model import WorkProfile
from .layers import BACKWARD_MULTIPLIER_RECOMPUTE, LayerSpec, ModelSpec

BYTES_PER_PARAM = 2  # fp16/bf16 weights
ACTIVATION_SWEEPS = 18  # activation bytes moved per layer ~= sweeps * b*s*h
#: Achieved fraction of peak FLOP/s: Transformer blocks interleave dense
#: GEMMs with mem-bound layernorm/softmax/dropout, landing near half of
#: peak on A100-class hardware; the lone wide vocabulary GEMM runs close
#: to peak.  These two constants calibrate the head-vs-layer latency
#: balance that determines Table 1's imbalance ratios.
TRANSFORMER_EFFICIENCY = 0.52
LM_HEAD_EFFICIENCY = 0.95


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyper-parameters of one Transformer variant."""

    name: str
    num_layers: int  # total Transformer blocks (enc + dec for T5)
    hidden: int
    num_heads: int
    vocab_size: int
    seq_len: int
    d_attn: Optional[int] = None  # inner attention dim (T5-3B uses 4096)
    d_ff: Optional[int] = None  # FFN dim, default 4*hidden
    num_decoder_layers: int = 0  # >0 marks an encoder-decoder model
    tie_embeddings: bool = True

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden <= 0:
            raise ConfigurationError("bad transformer dimensions")
        if self.num_decoder_layers > self.num_layers:
            raise ConfigurationError("decoder layers exceed total layers")

    @property
    def attn_dim(self) -> int:
        return self.d_attn if self.d_attn is not None else self.hidden

    @property
    def ffn_dim(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.hidden

    # -- parameter counting -------------------------------------------------
    def layer_params(self, cross_attention: bool) -> int:
        attn = 4 * self.hidden * self.attn_dim
        ffn = 2 * self.hidden * self.ffn_dim
        params = attn + ffn
        if cross_attention:
            params += attn
        return params

    @property
    def total_params(self) -> int:
        enc_layers = self.num_layers - self.num_decoder_layers
        params = enc_layers * self.layer_params(cross_attention=False)
        params += self.num_decoder_layers * self.layer_params(cross_attention=True)
        params += self.vocab_size * self.hidden  # embedding
        if not self.tie_embeddings:
            params += self.vocab_size * self.hidden
        return params


def _attention_flops(b: int, s: int, h: int, d_attn: int) -> float:
    projections = 8.0 * b * s * h * d_attn  # Q,K,V,out: 4 GEMMs of 2*s*h*d
    scores = 4.0 * b * s * s * d_attn  # QK^T and attn*V
    return projections + scores


def transformer_layer_work(
    cfg: TransformerConfig, microbatch: int, cross_attention: bool = False
) -> WorkProfile:
    """Forward work of one Transformer block over one microbatch."""
    b, s, h = microbatch, cfg.seq_len, cfg.hidden
    flops = _attention_flops(b, s, h, cfg.attn_dim)
    flops += 4.0 * b * s * h * cfg.ffn_dim
    if cross_attention:
        flops += _attention_flops(b, s, h, cfg.attn_dim)
    weight_bytes = cfg.layer_params(cross_attention) * BYTES_PER_PARAM
    activation_bytes = ACTIVATION_SWEEPS * b * s * h * BYTES_PER_PARAM
    return WorkProfile(
        flops=flops,
        mem_bytes=weight_bytes + activation_bytes,
        compute_efficiency=TRANSFORMER_EFFICIENCY,
    )


def embedding_work(cfg: TransformerConfig, microbatch: int) -> WorkProfile:
    """Forward work of the token(+position) embedding.

    Almost pure memory traffic: a gather over the embedding table plus the
    activation write.  Low power utilization (no dense math).
    """
    b, s, h = microbatch, cfg.seq_len, cfg.hidden
    flops = 2.0 * b * s * h  # additions of positional embeddings
    gather_bytes = b * s * h * BYTES_PER_PARAM * 2  # read row + write act
    return WorkProfile(flops=flops, mem_bytes=gather_bytes, utilization=0.35)


def lm_head_work(cfg: TransformerConfig, microbatch: int) -> WorkProfile:
    """Forward work of the vocabulary projection (the imbalance source)."""
    b, s, h = microbatch, cfg.seq_len, cfg.hidden
    flops = 2.0 * b * s * h * cfg.vocab_size
    weight_bytes = cfg.vocab_size * h * BYTES_PER_PARAM
    logit_bytes = b * s * cfg.vocab_size * BYTES_PER_PARAM
    return WorkProfile(
        flops=flops,
        mem_bytes=weight_bytes + logit_bytes,
        compute_efficiency=LM_HEAD_EFFICIENCY,
    )


def build_transformer(
    cfg: TransformerConfig,
    microbatch_size: int,
    recompute_activations: bool = True,
) -> ModelSpec:
    """Materialize a :class:`ModelSpec` for this architecture.

    Layer list = ``[embedding] + blocks``; the LM head is a pinned tail on
    the final stage (Appendix B.1).  With ``recompute_activations`` the
    backward multiplier is 3x (forward re-run inside backward, §5).
    """
    if microbatch_size <= 0:
        raise ConfigurationError("microbatch size must be positive")
    bwd = BACKWARD_MULTIPLIER_RECOMPUTE if recompute_activations else 2.0
    layers = [
        LayerSpec(
            name="embedding",
            kind="embedding",
            forward=embedding_work(cfg, microbatch_size),
            backward_multiplier=1.0,  # the gather's backward is a scatter
        )
    ]
    # Every block of one shape shares one frozen work value: built once,
    # and its store-key text is written once.
    enc_layers = cfg.num_layers - cfg.num_decoder_layers
    work = transformer_layer_work(cfg, microbatch_size, False)
    for i in range(enc_layers):
        layers.append(
            LayerSpec(
                name=f"encoder.{i}" if cfg.num_decoder_layers else f"layer.{i}",
                kind="transformer",
                forward=work,
                backward_multiplier=bwd,
            )
        )
    if cfg.num_decoder_layers:
        work = transformer_layer_work(cfg, microbatch_size, True)
    for i in range(cfg.num_decoder_layers):
        layers.append(
            LayerSpec(
                name=f"decoder.{i}",
                kind="transformer",
                forward=work,
                backward_multiplier=bwd,
            )
        )
    tail = LayerSpec(
        name="lm_head",
        kind="lm_head",
        forward=lm_head_work(cfg, microbatch_size),
        backward_multiplier=2.0,  # logits are not recomputed
    )
    return ModelSpec(
        name=cfg.name,
        layers=tuple(layers),
        tail=tail,
        params=cfg.total_params,
        microbatch_size=microbatch_size,
        seq_len=cfg.seq_len,
        extra={"config": cfg},
    )
