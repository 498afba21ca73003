"""Regularity decompositions and edit-distance bounds for complete
edge-colored graphs and partially oriented digraphs.

The package covers the pipeline end to end: seeded samplers and file
formats for the two graph kinds, density vectors and pair-regularity
certificates, the index-driven refinement loop and its two-level
decomposition, spanning-copy counts with their guarantee constants, and
set-labeled templates with the expected-edit-fraction bound plus exact
small-instance edit distance.
"""

from types import ModuleType as _ModuleType

from .errors import RegracutError
from .graphs import (
    DIGRAPH_STATES,
    P0,
    P1,
    P2,
    P3,
    P4,
    PALETTES,
    STATE_BACK,
    STATE_BI,
    STATE_FWD,
    STATE_NONE,
    ColoredGraph,
    Digraph,
    Palette,
    dumps_graph,
    flip_state,
    loads_graph,
    new_digraph,
    new_rgraph,
    palette,
    read_graph,
    sample_digraph,
    sample_rgraph,
    validate_arrow_distribution,
    validate_color_distribution,
    write_graph,
)
from .partitions import (
    Equipartition,
    equipartition,
    is_refinement,
    load_partition,
    refine_equipartition,
)
from .density import (
    IRREGULAR,
    REGULAR,
    UNKNOWN,
    CorollaryCheck,
    DefectCheck,
    RegularityReport,
    RegularityWitness,
    certify,
    channel_labels,
    corollary_cs_check,
    defect_cs_check,
    density_vector,
    pair_density_tensor,
    partition_index,
)
from .decomposition import (
    DecompositionResult,
    EpsilonFunction,
    PairStats,
    RegularizeResult,
    SlicingReport,
    SubclusterSelection,
    decompose,
    regularize,
    select_subclusters,
    verify_slicing,
)
from .embedding import (
    CopyCount,
    EmbeddingConstants,
    EmbeddingReport,
    bad_vertices,
    check_embedding_lemma,
    count_spanning_copies,
    embedding_constants,
)
from .typegraphs import (
    BoundReport,
    ForbiddenFamily,
    TypeFamily,
    TypeGraph,
    canonical_key,
    dirtype,
    edit_distance_lower_bound,
    embeds,
    enumerate_types,
    expected_edit_fraction,
    rtype,
    theorem_error_terms,
    type_from_json,
    type_to_json,
    validate_type,
)
from .editdist import (
    ConstructResult,
    FitResult,
    construct_type_from_partition,
    distance_to_property,
    edit_distance,
    find_induced_copy,
    fit_to_type,
    has_induced_copy,
)

__version__ = "0.1.0"

# the submodules stay reachable as attributes, but `import *` binds none
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
