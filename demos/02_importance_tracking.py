"""Layer importance from channel-statistic drift.

Embeds feature batches as their channels' means and variances, scores
drift with Gaussian KL divergence against a tracked history, and
shows the exponential history absorbing a persistent shift. A chain of
layers is one stacked embedding, scored layer by layer in one call.
"""

import numpy as np

from ttasched import (
    Embedding,
    EmbeddingHistory,
    adaptation_loss,
    layer_divergences,
    update_history,
)

rng = np.random.default_rng(0)


def embed(samples, widths=None):
    """The embedding of a (channels x samples) array: its channel means and
    population variances (divide by N)."""
    return Embedding(samples.mean(axis=1), samples.var(axis=1), widths)


# one layer, four channels, 256 samples per channel
clean_samples = rng.normal(0.0, 1.0, size=(4, 256))
clean = embed(clean_samples)
print("clean batch embedding:")
print("  means:    ", np.round(clean.means, 3))
print("  variances:", np.round(clean.variances, 3))

# the same distribution again: divergence sits at the sampling-noise floor;
# a one-layer chain has one divergence
again_samples = rng.normal(0.0, 1.0, size=(4, 256))
again = embed(again_samples)
print(f"\nclean vs clean divergence: {layer_divergences(clean, again)[0]:.5f} nats")

# a two-sigma mean shift on every channel is unmistakable
shifted_samples = rng.normal(2.0, 1.0, size=(4, 256))
shifted = embed(shifted_samples)
print(f"clean vs shifted divergence: {layer_divergences(clean, shifted)[0]:.3f} nats")
print("(a unit Gaussian moved by two sigmas carries KL = 2.0 per channel)")

# the history is a convex blend, weight alpha on the new environment
history = EmbeddingHistory.seed(clean, alpha=0.1)
print("\ntracking a persistent shift with alpha = 0.1:")
current = shifted
for step in range(8):
    a = layer_divergences(history.embeddings, current)[0]
    print(f"  step {step}: importance {a:7.3f}")
    history = update_history(history, current)
print("the shift stops looking novel as the history absorbs it.")

# a chain stacks its layers' channels into one embedding; every layer is
# scored in one pass, and the adaptation objective sums those per-layer
# divergences
hs = embed(np.vstack([clean_samples, clean_samples]), widths=(4, 4))
cs = embed(np.vstack([shifted_samples, again_samples]), widths=(4, 4))
print(f"\ntwo-layer chain, widths {hs.widths}")
print(f"  per-layer divergences: {layer_divergences(hs, cs).round(5).tolist()}")
print(f"  adaptation loss: {adaptation_loss(hs, cs):.3f} nats")
