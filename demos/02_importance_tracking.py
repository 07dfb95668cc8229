"""Layer importance from channel-statistic drift.

Embeds feature batches as interleaved channel (mean, variance) vectors,
scores drift with Gaussian KL divergence against a tracked history, and
shows the exponential history absorbing a persistent shift. A chain of
layers is one stacked embedding, scored layer by layer in one call.
"""

import numpy as np

from ttasched import (
    Embedding,
    EmbeddingHistory,
    adaptation_loss,
    embed,
    layer_divergences,
    layer_importance,
    update_history,
)

rng = np.random.default_rng(0)

# one layer, four channels, 256 samples per channel
clean = embed(rng.normal(0.0, 1.0, size=(4, 256)))
print("clean batch embedding (mean, var interleaved):")
print(" ", np.round(clean.values, 3))

# the same distribution again: divergence sits at the sampling-noise floor
again = embed(rng.normal(0.0, 1.0, size=(4, 256)))
print(f"\nclean vs clean divergence: {layer_importance(clean, again):.5f} nats")

# a two-sigma mean shift on every channel is unmistakable
shifted = embed(rng.normal(2.0, 1.0, size=(4, 256)))
print(f"clean vs shifted divergence: {layer_importance(clean, shifted):.3f} nats")
print("(a unit Gaussian moved by two sigmas carries KL = 2.0 per channel)")

# the history is a convex blend, weight alpha on the new environment
history = EmbeddingHistory.seed([clean], alpha=0.1)
print("\ntracking a persistent shift with alpha = 0.1:")
current = shifted
for step in range(8):
    a = layer_importance(history.embeddings[0], current)
    print(f"  step {step}: importance {a:7.3f}")
    history = update_history(history, [current])
print("the shift stops looking novel as the history absorbs it.")

# a chain stacks its layers into one embedding; every layer is scored in
# one pass, and the adaptation objective sums those per-layer divergences
hs = Embedding.concat([clean, clean])
cs = Embedding.concat([shifted, again])
print(f"\ntwo-layer chain, widths {hs.widths}")
print(f"  per-layer divergences: {layer_divergences(hs, cs).round(5).tolist()}")
print(f"  adaptation loss: {adaptation_loss(hs, cs):.3f} nats")
