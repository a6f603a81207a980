"""Executable machinery for Turan-type problems on uniformly dense 3-uniform
hypergraphs: exact palette densities, representability certificates, seeded
probabilistic constructions with density audits, and reduced-hypergraph
transformations.
"""

__version__ = "0.1.0"

from .hypergraph import (
    Embedding,
    Hypergraph3,
    HypergraphError,
    clique,
    clique_minus4,
    cone,
    cycle5,
    fano,
    find_embedding,
    make,
    named,
    star,
)
from .palette import (
    Palette,
    PaletteError,
    RepresentabilityCertificate,
    RepresentabilityResult,
    WeightedColorSet,
    builtin,
    check_certificate,
    representable,
    symmetric_closure,
    zero_density_certificate,
)
from .construct import (
    PairColoring,
    PartitionedColoring,
    build_H,
    lift_reduced,
    random_pair_coloring,
    roedl_hypergraph,
    tournament_hypergraph,
)
from .density import (
    DensityReport,
    audit_star_dense,
    audit_uniform_dense,
    count_ee,
    count_ev,
    count_vvv,
)
from .reduced import (
    ReducedHypergraph,
    ReducedMap,
    check_dense,
    check_eta_dense,
    find_reduced_map,
    from_palette,
    project_random,
    purge_ev,
    tetrahedron_greedy,
    validate_reduced_map,
)
from .quasirandom import (
    BipartiteGraph,
    TripartiteGraph,
    audit_quasirandom,
    check_counting_lemma,
    relative_density,
    triangle_count,
)
