"""The finite-input contract of the package's public names: every callable in
``expandiff.__all__`` that takes numbers rejects a NaN argument with a
ValueError that names it, or says in its docstring that NaN propagates."""

import inspect
import math
import re

import pytest

import expandiff as ex

nan = math.nan


def _spec(**changes):
    fields = dict(alpha=0.5, final_time=1.0, coefficient=ex.CoefficientLaw.constant(1.0),
                  initial=ex.PiecewiseFn.sine(1), source=ex.SourceTerm.zero())
    return ex.ProblemSpec(**{**fields, **changes})


PROPAGATES = "propagates"  # the docstring says that NaN propagates
NO_NUMBERS = "no numbers"  # every argument is a checked object, a path or a list of them

# per public callable: calls with one NaN argument and the start of their
# ValueError, PROPAGATES or NO_NUMBERS
CONTRACT = {
    "CQWeights": [PROPAGATES],
    "generate_weights": [(lambda: ex.generate_weights(nan, 4), "alpha must"),
                         (lambda: ex.generate_weights(0.5, nan), "count must")],
    "Mesh1D": [PROPAGATES],
    "PiecewiseFn": [(lambda: ex.PiecewiseFn([0.0, 1.0], [nan]), "values must")],
    "basis_integrals": [NO_NUMBERS],
    "build_mesh": [(lambda: ex.build_mesh(nan), "n_cells must")],
    "l2_norm": [PROPAGATES],
    "l2_project": [NO_NUMBERS],
    "prolong": [PROPAGATES],
    "ritz_project": [NO_NUMBERS],
    "exact_solution": [(lambda: ex.exact_solution(0.5, nan, 1, 0.5, 1.0), "kappa must"),
                       (lambda: ex.exact_solution(0.5, 1.0, 1, 0.5, nan), "t must"),
                       PROPAGATES],  # in x
    "mittag_leffler": [(lambda: ex.mittag_leffler(0.5, nan), "z must")],
    "CoefficientLaw": [(lambda: ex.CoefficientLaw(nan), "scale must")],
    "DiscreteRun": [PROPAGATES],
    "ProblemSpec": [(lambda: _spec(alpha=nan), "alpha must")],
    "SourceTerm": [(lambda: ex.SourceTerm(time_exponent=nan), "time exponent must")],
    "project_initial": [NO_NUMBERS],
    "solve": [(lambda: ex.solve(_spec(), 4, nan), "n_steps must")],
    "RateTable": [(lambda: ex.RateTable("", "temporal", [0.5], [nan]), "errors must")],
    "mode_error": [(lambda: ex.mode_error(ex.build_mesh(2), [0.0], 0.5, nan, 1, 1.0),
                    "kappa must"),
                   (lambda: ex.mode_error(ex.build_mesh(2), [0.0], 0.5, 1.0, 1, nan), "t must")],
    "observed_rates": [PROPAGATES],
    "oracle_study": [(lambda: ex.oracle_study(nan, 1.0, 1, final_time=1.0, n_cells=4,
                                              tau_list=[0.5]), "alpha must")],
    "spatial_study": [(lambda: ex.spatial_study(_spec(), 0.25, [nan]), "n_cells must")],
    "temporal_study": [(lambda: ex.temporal_study(_spec(), nan, [0.25]), "n_cells must")],
    "write_csv": [NO_NUMBERS],
}


@pytest.mark.parametrize("name", [name for name in ex.__all__ if callable(getattr(ex, name))])
def test_public_callables_reject_or_document_nan(name):
    # a public callable added without a row fails here
    assert name in CONTRACT, f"{name} has no row in CONTRACT"
    obj = getattr(ex, name)
    for row in CONTRACT[name]:
        if row == PROPAGATES:
            assert re.search(r"NaN\b[^.]*\bpropagates", inspect.getdoc(obj), re.S), name
        elif row == NO_NUMBERS:
            hints = [p.annotation for p in inspect.signature(obj).parameters.values()]
            assert not {"float", "int"} & set(hints), name
        else:
            call, message = row
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                call()
