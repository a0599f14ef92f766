"""From raw descriptors to a weighted bag of words.

Simulates per-image local descriptors around a few latent directions,
clusters them into a codebook with spherical k-means, quantizes each image
against it, and applies tf-idf weighting. Words shared by every image end
up down-weighted relative to distinctive ones.
"""

import numpy as np

from vwsim import Dataset, kmeans_quantize, smin_similarity, tfidf_weights
from vwsim.core import unit_rows

rng = np.random.RandomState(21)
d = 16
latent = unit_rows(rng.standard_normal((6, d)))  # six underlying "visual themes"


def descriptors(theme_ids, per_theme=12, noise=0.15):
    rows = []
    for t in theme_ids:
        rows.append(latent[t] + noise * rng.standard_normal((per_theme, d)))
    return np.vstack(rows)


# Three images share theme 0; each has private themes of its own. Their
# descriptors form one raw dataset, as ``load_images`` returns a features file.
feature_sets = [
    descriptors([0, 1, 2]),
    descriptors([0, 1, 3]),
    descriptors([0, 4, 5]),
]
lengths = [f.shape[0] for f in feature_sets]
raw = Dataset(["street_day", "street_dusk", "harbor"], np.cumsum([0] + lengths),
              np.ones(sum(lengths)), vectors=np.concatenate(feature_sets))

vocab, dataset = kmeans_quantize(raw, k=6, seed=3)
print(f"codebook: {vocab.size} words from {raw.vectors.shape[0]} descriptors")
print(f"word frequencies: {vocab.frequencies.tolist()}")

weighted = tfidf_weights(dataset)
print("\nper-image words (id: weight) after tf-idf:")
for img in weighted.images:
    words = ", ".join(f"{int(w)}:{x:.2f}" for w, x in zip(img.word_ids, img.weights))
    print(f"  {img.image_id:<12} [{words}]")

print("\npairwise similarity (threshold 0.75):")
for a in weighted.images:
    row = "  ".join(f"{smin_similarity(a, b, 0.75):.3f}" for b in weighted.images)
    print(f"  {a.image_id:<12} {row}")
print("\nthe two street scenes share more words, so they score higher with "
      "each other than with the harbor image")
