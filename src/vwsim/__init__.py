"""vwsim: similarity measurement for weighted bag-of-visual-word images.

The similarity of two images is built from their similar word pairs: each
query word is matched to its best partner in the target image by clamped
cosine, pairs below a threshold are dropped, and the retained pair mass is
normalized against total and unmatched weight. Three matchers compute the
same outcome at different speeds:

* ``smin_match``, the exhaustive double loop;
* ``smii_match``, a per-call exact top-1 index over the target image;
* ``psmi_match``, a reusable offline index of potential similar words per
  vocabulary entry, stored as CSR arrays.

The matchers agree exactly (bit-identical outcomes), which the test suite
treats as a load-bearing contract.
"""

from .baseline import mean_vector_similarity
from .bench import BenchConfig, HitRateConfig, run_bench, run_hitrate
from .core import (
    ImageObject,
    MatchOutcome,
    VisualWord,
    Vocabulary,
    image_similarity,
    normalize_weights,
)
from .errors import (
    CompatibilityError,
    ContractError,
    DomainError,
    FormatError,
    PreconditionError,
    UnknownWordError,
    ValidationError,
    VwsimError,
)
from .io import (
    Dataset,
    load_images,
    load_psmi,
    load_truth,
    load_vocabulary,
    save_images,
    save_psmi,
    save_truth,
    save_vocabulary,
)
from .matching import best_match, cosine, smin_match, smin_similarity
from .psmi import (
    HuffmanNode,
    PsimIndex,
    build_huffman_tree,
    build_psmi_index,
    huffman_depths,
    huffman_search,
    psmi_match,
    psmi_similarity,
    weighted_code_length,
)
from .quantize import assign_words, kmeans_quantize, tfidf_weights
from .synth import GeneratorConfig, generate_synthetic, perturb_image, zipf_probabilities
from .temp_index import TempIndex, build_temp_index, query_top1, smii_match, smii_similarity

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "CompatibilityError",
    "ContractError",
    "Dataset",
    "DomainError",
    "FormatError",
    "GeneratorConfig",
    "HitRateConfig",
    "HuffmanNode",
    "ImageObject",
    "MatchOutcome",
    "PreconditionError",
    "PsimIndex",
    "TempIndex",
    "UnknownWordError",
    "ValidationError",
    "VisualWord",
    "Vocabulary",
    "VwsimError",
    "assign_words",
    "best_match",
    "build_huffman_tree",
    "build_psmi_index",
    "build_temp_index",
    "cosine",
    "generate_synthetic",
    "huffman_depths",
    "huffman_search",
    "image_similarity",
    "kmeans_quantize",
    "load_images",
    "load_psmi",
    "load_truth",
    "load_vocabulary",
    "mean_vector_similarity",
    "normalize_weights",
    "perturb_image",
    "psmi_match",
    "psmi_similarity",
    "query_top1",
    "run_bench",
    "run_hitrate",
    "save_images",
    "save_psmi",
    "save_truth",
    "save_vocabulary",
    "smii_match",
    "smii_similarity",
    "smin_match",
    "smin_similarity",
    "tfidf_weights",
    "weighted_code_length",
    "zipf_probabilities",
]
