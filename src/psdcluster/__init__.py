"""Clustering of stationary random-process observations by PSD distance.

The package estimates power spectral densities from finite observations,
measures dissimilarity as the L1 distance between the estimates, and offers
two clustering routes on top: a nearest-neighbor graph partitioned by
normalized spectral clustering, and a single-pass k-means with farthest-point
seeding. Synthetic ARMA generators, the computable quantities behind the
performance guarantees, and label-permutation-invariant quality metrics round
out the toolkit.
"""

from .distances import distance_matrix, l1_distance
from .generators import (
    FINE_GRID,
    GenerativeModel,
    LabeledDataset,
    arma_psd,
    benchmark_models,
    make_benchmark_dataset,
    make_model,
    normalize_model,
    simulate,
    true_acf,
)
from .km import assign_to_centers, farthest_point_centers, km_cluster
from .metrics import clustering_error, confusion_entropy, confusion_matrix
from .nnpc import (
    LaplacianSpectrum,
    NnpcResult,
    build_adjacency,
    estimate_cluster_count,
    laplacian_spectrum,
    nearest_neighbor_sets,
    nnpc_cluster,
    normalized_laplacian,
    spectral_cluster,
)
from .numerics import (
    EigenDecomposition,
    RngStream,
    eig_symmetric,
    kmeans,
    min_cost_assignment,
)
from .spectra import (
    WindowSpec,
    bt_psd,
    estimate_acf,
    estimate_dataset_psds,
    make_window,
    next_pow2,
    normalize_unit_power,
    weighted_spectra,
)
from .theory import (
    ConditionReport,
    SeparationReport,
    acf_moment,
    check_condition,
    check_nfc,
    check_separation,
    h_sequence,
    mu_max,
    nfc_probability_bound,
    noise_term,
    true_model_distance,
)

__version__ = "0.1.0"
