"""The public API is ``hlsmm.__all__``: every name in it once, each resolving."""

import pytest

import hlsmm
from hlsmm import kkt, linalg, solver

# Entry points and members that only tests called, with the module that held
# them; the kernel blocks, numpy and the factors' arrays cover what they did.
REMOVED = [(solver, "update_w"), (solver, "update_z"), (solver, "update_b"),
           (solver, "_one_lane"), (linalg, "fro_inner"), (kkt, "apply_operator"),
           (hlsmm.SvdFactors, "u_gamma"), (hlsmm.SvdFactors, "v_gamma"),
           (hlsmm.SvdFactors, "reconstruct"), (hlsmm.Hyperparams, "validate_for_shape"),
           (solver._Lanes, "alone")]


def test_every_exported_name_is_unique_and_resolves():
    assert len(hlsmm.__all__) == len(set(hlsmm.__all__))
    for name in hlsmm.__all__:
        assert hasattr(hlsmm, name), name


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[name for _, name in REMOVED])
def test_removed_name_stays_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in hlsmm.__all__
    assert not hasattr(hlsmm, name)
