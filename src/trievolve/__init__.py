"""trievolve: tricluster mining from 3D expression data.

Finds coherent subtensors (gene x condition x time triclusters) with a
seeded genetic algorithm.  Candidate quality combines a three-way mean
squared residue and a least-squares-line parallelism measure with size and
novelty rewards; a sequential-covering outer loop archives one solution per
run, filtered by an LSL threshold.
"""

__version__ = "0.1.0"

from .engine import (
    Archive,
    ArchiveEntry,
    Chromosome,
    GAConfig,
    GenerationRecord,
    GenerationTrace,
    crossover,
    decode,
    encode,
    evolve_one_tricluster,
    init_population,
    mutate,
    repair,
    run_triea,
)
from .quality import (
    FitnessBreakdown,
    QualityWeights,
    SizePreconditionError,
    TriclusterCoords,
    distinction_term,
    fitness,
    jaccard_cells,
    lsl,
    msr3d,
    residual,
    view_slopes,
    weights_term,
)
from .tensor_io import (
    DatasetFormatError,
    ExpressionTensor,
    RegionOverlapError,
    SyntheticSpec,
    export_csv,
    generate_synthetic,
    impute_missing,
    limit_genes,
    load_dataset,
    normalize_minmax,
)

__all__ = [
    "__version__",
    "Archive",
    "ArchiveEntry",
    "Chromosome",
    "DatasetFormatError",
    "ExpressionTensor",
    "FitnessBreakdown",
    "GAConfig",
    "GenerationRecord",
    "GenerationTrace",
    "QualityWeights",
    "RegionOverlapError",
    "SizePreconditionError",
    "SyntheticSpec",
    "TriclusterCoords",
    "crossover",
    "decode",
    "distinction_term",
    "encode",
    "evolve_one_tricluster",
    "export_csv",
    "fitness",
    "generate_synthetic",
    "impute_missing",
    "init_population",
    "jaccard_cells",
    "limit_genes",
    "load_dataset",
    "lsl",
    "msr3d",
    "mutate",
    "normalize_minmax",
    "repair",
    "residual",
    "run_triea",
    "view_slopes",
    "weights_term",
]
