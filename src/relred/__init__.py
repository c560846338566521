"""relred: an algebra of attributed relations on finite domains, with
constructive reductions, bond explication, and ternarity accounting."""

from .caps import Caps, using
from .core import (
    Domain,
    Relation,
    bond_eval,
    cartesian,
    complement,
    dump_relation,
    equal_relations,
    false_relation,
    join,
    load_relation,
    project,
    projoin,
    relative_product,
    rename,
    select,
    standard,
    true_relation,
)
from .dependencies import (
    DependencyReport,
    admits_key,
    find_keys,
    functional_dep,
    is_cartesian_over,
    is_key,
    mvd_holds,
)
from .errors import (
    BondabilityError,
    CapExceededError,
    ParseError,
    PreconditionError,
    ReductionRefused,
    RelredError,
    VerificationError,
)
from .formula import (
    Atom,
    ClassifyResult,
    Conj,
    Exists,
    ReductionCertificate,
    check_certificate,
    classify,
    evaluate,
    load_certificate,
    normalize,
    parse,
    render,
    save_certificate,
)
from .analysis import (
    CensusRow,
    IrreducibilityReport,
    boolean_rank_at_most,
    bipartition_matrix,
    census,
    census_sampled,
    finest_factorization,
    irreducibility_tests,
    is_degenerate,
    is_join_reducible,
    one_param_ternary_projoin,
    rel_prod_reducible2,
    ternary_oracle_suite,
)
from .diagrams import (
    BondGraph,
    BondingDiagram,
    ProjoinGraph,
    TernarityReport,
    bond_graph_stats,
    build_projoin_graph,
    de_explicate,
    emit_dot,
    explicate,
    explicate_certificate,
    merge_complete,
    ternarity_bounds,
    to_bonding_diagram,
)
from .reducers import (
    fagin_decompose,
    hypostatic_abstraction,
    identity_chain,
    key_reduction,
    neg_join_projoin,
    union_to_projoin,
)

__version__ = "0.1.0"
