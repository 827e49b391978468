"""The integer contract of every exported callable, by fuzzing.

Each row of ``ARGS`` names, for one name that ``bpsing`` exports, every
integer parameter of it and of its methods, as a call with that one
argument left open and the range of values it takes.  Drawn in every
form, a value must behave as the contract says: a bool or a float
raises ``TypeError``, a plain int outside the range raises
``ValueError``, a plain int inside it gives an answer or a
``ValueError`` of another check, and a numpy integer gives what the
plain int gives, or ``TypeError`` where a value type stores exact ints.
"""

import types
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bpsing
from bpsing import (
    GradedMF,
    GradedModule,
    GradeElement,
    GroupEmbedding,
    IntPolynomial,
    Ladder,
    StableObject,
    U,
    WeightSystem,
    adjunction_check,
    check_recollement,
    dynkin_path_algebra,
    family,
    gamma_quiver,
    glue,
    hom_profile,
    insert,
    lambda_q,
    make_E,
    mf_of,
    nakayama,
    normalize,
    oracle_hom,
    predict_projective_image,
    rank1_mf,
    reduce,
    replicated,
    rho_k,
    stable_hom_dim_oracle,
    verify_tilting,
)
from bpsing.linalg import is_prime

W34 = WeightSystem((3, 4))
W22 = WeightSystem((2, 2))
ZERO = W34.zero()
E22 = make_E(W34, (2, 2))
OBJ = U(W34, (1, 2))
# split (2, 2) of the last weight 3: both reduced systems are (3, 2),
# so every j takes the same object
LAD33 = Ladder(WeightSystem((3, 3)), 2)
RED = U(LAD33.emb1.source, (1, 1))
# the smallest ladder and families, for the checks that sweep windows
LAD23 = Ladder(WeightSystem((2, 3)), 2)
FAM22 = family(W22, "cuboid")
MF22 = mf_of(U(W22, (1, 1)))
MF34 = rank1_mf(W34, 1, 1)


@dataclass(frozen=True)
class Arg:
    """One integer parameter: the call with it left open, and its range
    lo..hi (None is an open end; ``prime`` restricts it to primes)."""

    call: Callable
    lo: int | None = None
    hi: int | None = None
    base: int = 1  # an inside value, where the range is open
    prime: bool = False

    def value(self, offset: int) -> int:
        """lo + offset for offset <= 0, hi - 1 + offset above: so offsets
        0 and 1 are inside, -1 and 2 just outside a closed end."""
        if offset <= 0:
            return (self.base if self.lo is None else self.lo) + offset
        return (self.base if self.hi is None else self.hi) - 1 + offset

    def inside(self, v: int) -> bool:
        return (self.lo is None or v >= self.lo) and (self.hi is None or v <= self.hi) and (not self.prime or is_prime(v))


def _modulus(call):
    return Arg(call, 2, 2**31 - 1, prime=True)


# every exported callable; () where it takes no integer argument
ARGS = {
    "AlgebraPresentation": (),  # its Cartan is a matrix, read by linalg.integer_matrix
    "Dichotomy": (),
    "GradeElement": (
        Arg(lambda v: GradeElement(W34, (v, 0), 0), 0, 2),
        Arg(lambda v: GradeElement(W34, (0, 0), v)),
        Arg(lambda v: W34.x(0) * v),
        Arg(lambda v: v * W34.x(0)),
    ),
    "GradedMF": (
        Arg(lambda v: GradedMF(W34, MF34.even, MF34.odd, MF34.d0, MF34.d1, frozenset({v})), 0, 1),
        Arg(lambda v: MF34.shift(v)),
    ),
    "GradedModule": (
        Arg(lambda v: GradedModule(W34, {ZERO: v}, {}), 0),
        Arg(lambda v: GradedModule(W34, {ZERO: 1, W34.x(1): 1}, {(v, ZERO): [[1]]}), 0, 1),
        Arg(lambda v: E22.act(v, ZERO), 0, 1),
        Arg(lambda v: E22.power_act(v, ZERO, 0), 0, 1),
        Arg(lambda v: E22.power_act(0, ZERO, v), 0),
    ),
    "GroupEmbedding": (
        Arg(lambda v: GroupEmbedding(W34, v, (3, 2)), 1, 2),
        Arg(lambda v: GroupEmbedding(W34, 1, (v, 2)), 2),
        Arg(lambda v: GroupEmbedding(W34, 1, (3, v)), 2),
    ),
    "IntPolynomial": (Arg(lambda v: IntPolynomial((1, v))),),
    "Ladder": (Arg(lambda v: Ladder(W34, v), 2, 3), Arg(lambda v: LAD33.emb(v), 1, 2)),
    "NotInImageError": (),
    "StableObject": (
        Arg(lambda v: StableObject(W34, (v, 2), ZERO, 0), 1, 2),
        Arg(lambda v: StableObject(W34, (1, 2), ZERO, v)),
        Arg(lambda v: OBJ.reflect(v), 0, 1),
        Arg(lambda v: OBJ.suspend(v)),
    ),
    "TiltingFamily": (),
    "U": (Arg(lambda v: U(W34, (v, 2)), 1, 2), Arg(lambda v: U(W34, (1, 2), shift=v))),
    "UnknownHomError": (),
    "WeightSystem": (
        Arg(lambda v: WeightSystem((3, v)), 2),
        Arg(lambda v: W34.x(v), 0, 1),
        Arg(lambda v: W34.element((0, v))),
        Arg(lambda v: W34.element((0, 0), v)),
    ),
    "adjunction_check": (Arg(lambda v: adjunction_check(LAD33.emb1, [make_E(LAD33.weights, (2, 2))], [make_E(RED.weights, (1, 1))], v), 0),),
    "check_recollement": (Arg(lambda v: check_recollement(LAD23, v), 0, base=0),),
    "coxeter_polynomial": (),
    "cuboid_objects": (),
    "dichotomy": (),
    "dynkin_path_algebra": (Arg(lambda v: dynkin_path_algebra("A", v), 1),),
    "family": (
        Arg(lambda v: family(W34, "replicated", t=v), 0, 1),
        Arg(lambda v: family(W34, "extended", subset=(v,)), 0, 1),
    ),
    "gamma_quiver": (Arg(lambda v: gamma_quiver(W34, v), 0, 1),),
    "glue": (
        Arg(lambda v: glue(LAD23, FAM22, FAM22, v, 0, (-1, 1))),
        Arg(lambda v: glue(LAD23, FAM22, FAM22, 0, v, (-1, 1))),
        Arg(lambda v: glue(LAD23, FAM22, FAM22, 0, 0, (v, 1)), None, 0, base=-1),
        Arg(lambda v: glue(LAD23, FAM22, FAM22, 0, 0, (-1, v)), 0),
    ),
    "hom_dim": (),
    "hom_series": (),
    "hom_table": (),  # it takes lists of objects
    "hom_matrix": (),
    "hom_profile": (_modulus(lambda v: hom_profile(MF22, v)),),
    "insert": (Arg(lambda v: insert(LAD33, v, 0, RED), 1, 2), Arg(lambda v: insert(LAD33, 1, v, RED))),
    "knorrer_transport": (),
    "lambda_q": (Arg(lambda v: lambda_q(W34, (v, 2)), 1, 2),),
    "make_E": (Arg(lambda v: make_E(W34, (v, 2)), 1, 2),),
    "make_simple": (),
    "mf_of": (),
    "module_hom_dim": (),  # exact is a flag
    "nakayama": (Arg(lambda v: nakayama(v, 2), 1), Arg(lambda v: nakayama(3, v), 1)),
    "normalize": (Arg(lambda v: normalize(W34, (v, 1))), Arg(lambda v: normalize(W34, (0, 1), v))),
    "oracle_hom": (
        Arg(lambda v: oracle_hom(U(W22, (1, 1)), U(W22, (1, 1)), v)),
        _modulus(lambda v: oracle_hom(U(W22, (1, 1)), U(W22, (1, 1)), 0, v)),
    ),
    "parse_object": (),
    "phi0_module": (),
    "predicted_cartan": (),
    "predict_projective_image": (
        Arg(lambda v: predict_projective_image(LAD33, "insert", v, 1, RED.twist), 1, 2),
        Arg(lambda v: predict_projective_image(LAD33, "insert", 1, v, RED.twist)),
        Arg(lambda v: predict_projective_image(LAD33, "reduce", 1, v, LAD33.weights.zero())),
    ),
    "psi0_module": (),
    "rank1_mf": (Arg(lambda v: rank1_mf(W34, v, 1), 0, 1), Arg(lambda v: rank1_mf(W34, 0, v), 1, 2)),
    "reduce": (
        Arg(lambda v: reduce(LAD33, v, 0, U(LAD33.weights, (1, 2))), 1, 2),
        Arg(lambda v: reduce(LAD33, 1, v, U(LAD33.weights, (1, 2)))),
    ),
    "replicated": (Arg(lambda v: replicated(nakayama(2, 2), v), 0),),
    "rho_k": (Arg(lambda v: rho_k(W34, shift=v)),),
    "stable_hom_dim_oracle": (
        Arg(lambda v: stable_hom_dim_oracle(MF22, MF22, v)),
        _modulus(lambda v: stable_hom_dim_oracle(MF22, MF22, 0, v)),
    ),
    "tensor_mf": (),
    "verify_tilting": (
        Arg(lambda v: verify_tilting(FAM22, (v, 1)), None, 0, base=-1),
        Arg(lambda v: verify_tilting(FAM22, (-1, v)), 0),
    ),
    "zero_object": (),
}

EXPORTED = sorted(name for name, value in vars(bpsing).items() if not name.startswith("_") and callable(value) and not isinstance(value, types.ModuleType))

FORMS = {
    "int": int,
    "numpy": np.int64,
    "float": float,
    "half": lambda v: v + 0.5,
    "bool": lambda v: v % 2 == 1,
    "numpy bool": lambda v: np.bool_(v % 2),
}


def _outcome(call, value):
    """The exception type raised, or a fingerprint of the answer that
    tells 1 from True and from np.int64(1)."""
    try:
        result = call(value)
    except (TypeError, ValueError) as exc:
        return type(exc)
    return repr(result.to_json()) if isinstance(result, GradedModule) else repr(result)


def test_table_names_every_export():
    assert sorted(ARGS) == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(offset=st.integers(-3, 3), form=st.sampled_from(sorted(FORMS)))
@example(offset=-1, form="int")
@example(offset=2, form="int")
@example(offset=0, form="numpy")
@example(offset=1, form="bool")
@example(offset=0, form="bool")
@example(offset=1, form="float")
def test_integer_arguments(name, offset, form):
    for arg in ARGS[name]:
        v = arg.value(offset)
        got = _outcome(arg.call, FORMS[form](v))
        if form not in ("int", "numpy"):
            assert got is TypeError, (name, form, v, got)
        elif not arg.inside(v):
            assert got is ValueError or (form != "int" and got is TypeError), (name, form, v, got)
        elif form == "int":
            assert got is not TypeError, (name, v)
        else:
            assert got is TypeError or got == _outcome(arg.call, v), (name, form, v, got)
