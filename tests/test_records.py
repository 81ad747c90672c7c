"""The record classes: their constructors, their immutability and their caches.

The records are plain classes; each ``__init__`` keeps the parameter names,
order and defaults listed in :data:`SIGNATURES`, and every record refuses
assignment and deletion of its fields.
"""

import inspect

import numpy as np
import pytest

from thermoevo import (
    BACKWARD_EULER,
    DiscreteSpatialOperator,
    EvolutionProblem,
    Forcing,
    Grid1D,
    MaterialLaw,
    ModelFamily,
    ModelSpec,
    RationalFunction,
    StateSpaceRealization,
    WeightedSignal,
    WellPosednessReport,
    Witness,
    assemble_material_law,
    build_operators,
    canonical_spec,
    certify_wellposedness,
    realize_state_space,
    time_grid,
)
from thermoevo.cli import RunConfig
from thermoevo.evolution import BoundCheckResult, CausalityResult, _AuxChain, _Congruence
from thermoevo.oracle import ComparisonResult

#: each record's constructor parameters, in order, with their defaults
SIGNATURES = {
    WeightedSignal: "t, samples, rho=1.0",
    RationalFunction: "num, den",
    StateSpaceRealization: "d, a, b, c",
    Grid1D: "length, n_cells",
    DiscreteSpatialOperator: "grid",
    Forcing: "amplitudes, profiles",
    ModelSpec: "family, coefficients",
    MaterialLaw: "family, rho0, C, Gamma, nu, zeta0, a0, n0, a1, a1_index, a2, a2_index",
    Witness: "cell, eigenvalue, eigenvector",
    WellPosednessReport: "verdict, c_estimate, rho_min, classification, witnesses, checks_run",
    _AuxChain: "poles, gain_in, gain_out, owner",
    _Congruence: "half_gamma, half_zeta, diagonal, sigma, theta, q",
    EvolutionProblem: "law, op, forcing, scheme='backward_euler'",
    CausalityResult: "leakage, skipped=False, reason=''",
    BoundCheckResult: "lhs, rhs, c_used, tail_ratio, slack=0.05",
    ComparisonResult: "per_field, overall",
    RunConfig: "mode, payload, spec=None, grid=None, time=None, forcing=None, output=None, "
               "tolerances=None, all_families=False",
}

#: fields a record derives in its constructor rather than takes
DERIVED = {
    WeightedSignal: ("dt",),
    DiscreteSpatialOperator: ("block_sizes",),
    MaterialLaw: ("classification",),
}


def rendered(cls) -> str:
    return ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in inspect.signature(cls).parameters.values())


@pytest.fixture(scope="module")
def built() -> dict:
    """One instance of each record, made the README's way where it shows one."""
    law = assemble_material_law(canonical_spec(ModelFamily.DPL_I))  # coupled, with memory
    op = build_operators(Grid1D(1.0, 16))
    t = time_grid(0.25, 2**-6)
    field = np.zeros((t.size, op.n_dof))
    forcing = Forcing(WeightedSignal(t, field, 1.0), np.eye(op.n_dof))
    problem = EvolutionProblem(law, op, forcing)
    records = [
        forcing.amplitudes, law.a2[0], realize_state_space([law.a2[0]])[0], op.grid, op,
        forcing, canonical_spec(ModelFamily.DPL_I), law, Witness(0, -1.0, np.eye(4)[0]),
        certify_wellposedness(law), problem.aux_chain, problem._congruence, problem,
        CausalityResult(0.0), BoundCheckResult(1.0, 2.0, 0.5, 0.0),
        ComparisonResult({"v": 0.0}, 0.0), RunConfig("patterns", {}),
    ]
    return {type(record): record for record in records}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_record_contract(cls, built):
    assert rendered(cls) == SIGNATURES[cls]
    record = built[cls]
    names = [*inspect.signature(cls).parameters, *DERIVED.get(cls, ())]
    for name in names:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.unknown = 1.0
    assert not hasattr(record, "unknown")


def test_cached_properties_still_cache(built):
    law, congruence, problem = built[MaterialLaw], built[_Congruence], built[EvolutionProblem]
    assert law.mass is law.mass and "mass" in vars(law)
    assert problem.mass_band is problem.mass_band and "mass_band" in vars(problem)
    assert congruence.identity is False and "identity" in vars(congruence)


def test_readme_constructions_and_defaults(built):
    op = built[DiscreteSpatialOperator]
    assert (op.grid.length, op.grid.n_cells) == (1.0, 16)
    forcing = built[Forcing]
    assert forcing.profiles.shape == (op.n_dof, op.n_dof)
    assert forcing.amplitudes.rho == 1.0 and forcing.amplitudes.dt == 2**-6
    problem = built[EvolutionProblem]
    assert problem.scheme == BACKWARD_EULER
    assert Grid1D(length=1.0, n_cells=16).h == 1.0 / 16
    assert EvolutionProblem(law=problem.law, op=op, forcing=forcing).scheme == BACKWARD_EULER
    result = CausalityResult(0.0)
    assert (result.leakage, result.skipped, result.reason) == (0.0, False, "")
    assert BoundCheckResult(1.0, 2.0, 0.5, 0.0).slack == 0.05
    assert BoundCheckResult(2.09, 2.0, 0.5, 0.0).ok is True
    assert BoundCheckResult(2.09, 2.0, 0.5, 0.0, slack=0.01).ok is False


def test_causality_results_compare_by_value():
    assert CausalityResult(0.5) == CausalityResult(0.5, False, "")
    assert CausalityResult(0.5) != CausalityResult(0.25)
    assert CausalityResult(0.0) != CausalityResult(0.0, skipped=True)
    assert CausalityResult(0.0) != 0.0
