"""Near-duplicate retrieval on a synthetic benchmark.

Generates a seeded dataset with ground-truth duplicates, then measures how
often a perturbed copy retrieves its source as the top-ranked image. Hit
rate decays as the perturbation level grows, down to chance when every
word has been replaced.
"""

import tempfile
from pathlib import Path

from vwsim import Dataset, GeneratorConfig, generate_synthetic
from vwsim.bench import HitRateConfig, run_hitrate
from vwsim.io import save_images, save_truth, save_vocabulary

config = GeneratorConfig(seed=7, vocab_size=256, dimension=32, image_count=200,
                         words_per_image=20, zipf_exponent=1.1,
                         duplicate_fraction=0.25, perturbation=0.1)
dataset, queries, truth = generate_synthetic(config)
print(f"dataset: {len(dataset)} images over {dataset.vocab.size} words, "
      f"{len(truth)} ground-truth duplicates")

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    save_vocabulary(dataset.vocab, root / "vocabulary.jsonl")
    save_images(dataset, root / "images.jsonl")
    save_images(Dataset.from_images(queries, vocab=dataset.vocab), root / "queries.jsonl")
    save_truth(truth, root / "truth.json")

    rows = run_hitrate(HitRateConfig(
        data_dir=str(root), query_count=40,
        rho_grid=(0.0, 0.1, 0.2, 0.4, 0.8, 1.0),
        top_k=1, mu0=0.7, seed=11, algorithm="psmi"))

print("\nperturbation level -> top-1 hit rate:")
for row in rows:
    bar = "#" * int(row["hit_rate"] * 40)
    print(f"  rho={row['rho']:<4} {row['hit_rate']:>5.2f}  {bar}")
print("\nexact copies always retrieve their source; fully rewritten queries "
      "land at chance level")
