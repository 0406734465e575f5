"""Finite-scale witnesses for dynamic asymptotic dimension.

Exact symbolic models of minimal Z-systems, finite etale groupoids,
single-scale coarse covers, the skeleton cover of a simplicial complex and
the groupoid witness of an almost-equivariant map into one,
almost-invariant partitions of unity, and the cut-down decomposition of
finite groupoid convolution algebras -- with every certificate verifiable
in exact arithmetic where the mathematics allows it.

The package exports what the command line, the pipeline and the corpus
call.  Its one group is Z/n rotating residues.  Brute-force oracles,
general finite groups and their actions, and the conversions between
almost-equivariant maps and equivariant covers of X x Gamma live with the
tests (``tests/helpers.py``), which check the library against them.
"""

from .coarse import (
    AsdimWitness,
    FiniteMetricSpace,
    Grid1dSpace,
    Grid2dSpace,
    GroupBallSpace,
    TableMetricSpace,
    bridge_to_groupoid,
    construct_grid_witness,
    verify_asdim_witness,
)
from .convolution import (
    BlockDecomposition,
    ConvElement,
    block_decompose,
    commutator_report,
    decompose_via_pou,
    reduced_norm,
    regular_representation,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidDadWitness,
    TransformationGroupoid,
    TubePairGroupoid,
    generate_subgroupoid,
    pair_groupoid,
    transformation_groupoid,
    verify_groupoid_dad,
)
from .nerve import (
    SimplicialComplex,
    SimplicialPoint,
    check_equivariance,
    dad_witness_from_blr,
    l1_distance,
    nice_cover_assign,
)
from .pipeline import corpus_check, run_pipeline
from .pou import (
    NestedColorTower,
    PartitionOfUnity,
    build_pou,
    build_tower,
    enlarge_cover,
    pou_from_group_action,
    verify_pou,
)
from .symbolic import (
    ClopenSet,
    ForbiddenWordSubshift,
    Odometer,
    ReturnTimeReport,
    SubstitutionSubshift,
    SymbolicSystem,
    disjoint_translates_radius,
    return_time_report,
)
from .witness import DadWitness, construct_minimal_z_witness, verify_dad_witness

__version__ = "0.1.0"
