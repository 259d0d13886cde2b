"""The public API is ``hlsmm.__all__``: every name in it once, each resolving."""

import dataclasses
import re
from pathlib import Path

import pytest

import hlsmm
from hlsmm import kkt, linalg, solver

# Entry points and members that only tests called, with the module that held
# them; the kernel blocks, numpy and the factors' arrays cover what they did.
REMOVED = [(solver, "update_w"), (solver, "update_z"), (solver, "update_b"),
           (solver, "_one_lane"), (linalg, "fro_inner"), (kkt, "apply_operator"),
           (hlsmm.SvdFactors, "u_gamma"), (hlsmm.SvdFactors, "v_gamma"),
           (hlsmm.SvdFactors, "reconstruct"), (hlsmm.Hyperparams, "validate_for_shape"),
           (solver._Lanes, "alone"), (kkt, "apply_adjoint"), (kkt, "_multiplier"),
           (linalg, "_ambiguous"), (hlsmm.SvdFactors, "u_gamma_perp"),
           (hlsmm.SvdFactors, "v_gamma_perp"), (kkt, "estimate_multiplier"),
           (kkt, "w_stationarity"), (linalg, "projection_ambiguous"),
           (linalg, "AMBIGUITY_TOL_REL"), (hlsmm.Dataset, "replace_xs"),
           (hlsmm.FitResult, "wall_time")]

README = Path(__file__).parent.parent / "README.md"


def test_every_exported_name_is_unique_and_resolves():
    assert len(hlsmm.__all__) == len(set(hlsmm.__all__))
    for name in hlsmm.__all__:
        assert hasattr(hlsmm, name), name


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[name for _, name in REMOVED])
def test_removed_name_stays_gone(owner, name):
    assert not hasattr(owner, name)
    if dataclasses.is_dataclass(owner):
        assert name not in {field.name for field in dataclasses.fields(owner)}
    assert name not in hlsmm.__all__
    assert not hasattr(hlsmm, name)


def test_readme_names_no_removed_name():
    # Every word inside a backticked span or a fenced block of the README.
    text = README.read_text(encoding="utf-8")
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    words = set(re.findall(r"\w+", " ".join(fenced + inline)))
    assert sorted(words & {name for _, name in REMOVED}) == []
