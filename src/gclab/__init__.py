"""gclab: an exact-arithmetic laboratory for generic-case complexity.

Finite alphabets and words, one-tape machines with bounded
nondeterministic search, spherical ensembles of exact-rational
probability measures with transfers and conditionals, control sequences
of partial decision algorithms, change-of-size and change-of-measure
reductions, and the full verified reduction chain into the bounded
halting problem of an interpreter-backed universal machine.
"""

from .words import (
    Alphabet,
    AlphabetMismatchError,
    BINARY,
    SphereRangeError,
    Word,
    rank_in_sphere,
    unrank,
)
from .machine import (
    Configuration,
    RunResult,
    TuringMachine,
    VirtualMachine,
    halts_within,
    load_machine,
    min_halting_steps,
    run_deterministic,
    step,
)
from .measure import (
    CheckReport,
    DBHNuEnsemble,
    HorizonError,
    InducedEnsemble,
    SphericalEnsemble,
    TableEnsemble,
    TransferredEnsemble,
    UniformEnsemble,
    ensemble_from_spec,
    subset_mass,
    verify_induced,
    verify_transfer,
)
from .genericity import (
    DensitySequence,
    Polynomial,
    control_sequence,
    density_sequence,
    parse_polynomial,
    sample_sphere,
)
from .reductions import (
    DistributionalProblem,
    Reduction,
    check_control_transfer,
    example41_image_member,
    example41_reduction,
    identity_reduction,
    to_binary,
    verify_cm,
    verify_cs,
    verify_size_invariance,
)
from .bhp import (
    GuardError,
    LongevityGuard,
    adequate_guard,
    bh_member,
    c_of_g,
    completeness_pipeline,
    encode_instance,
    invert_mu_star,
    machine_code,
    numeral,
    nu_g,
    red2bh,
    red2bhu,
    universal_machine,
    verify_measure_decrease,
    verify_red2bhu_measure,
    verify_red2bhu_membership,
    x_double_prime,
    x_prime,
)

__version__ = "0.1.0"
