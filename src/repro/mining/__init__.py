"""Generic mining substrate used by the Query Miner.

* :mod:`repro.mining.similarity` — similarity/distance measures over queries
  (text, feature sets, weighted features, parse trees, output samples),
* :mod:`repro.mining.knn` — k-nearest-neighbour search over arbitrary items,
* :mod:`repro.mining.clustering` — k-medoids and agglomerative clustering over
  a pairwise distance function,
* :mod:`repro.mining.association_rules` — Apriori frequent itemsets and rules.
"""

from repro.mining.association_rules import (
    AssociationRule,
    Itemset,
    RuleIndex,
    apriori,
    mine_rules,
)
from repro.mining.clustering import ClusteringResult, agglomerative, k_medoids, silhouette_score
from repro.mining.knn import KNNIndex, Neighbor
from repro.mining.similarity import (
    jaccard_similarity,
    overlap_coefficient,
    weighted_feature_similarity,
    text_trigram_similarity,
    edit_distance,
)

__all__ = [
    "AssociationRule",
    "Itemset",
    "RuleIndex",
    "apriori",
    "mine_rules",
    "ClusteringResult",
    "agglomerative",
    "k_medoids",
    "silhouette_score",
    "KNNIndex",
    "Neighbor",
    "jaccard_similarity",
    "overlap_coefficient",
    "weighted_feature_similarity",
    "text_trigram_similarity",
    "edit_distance",
]
