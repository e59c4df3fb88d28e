"""The functions whose call counts the benchmark harness and CI's traced steps read.

The harness traces the functions listed in each module's ``__all__`` and
reads the count of a name it did not trace as 0 calls, so a function that
left its module's ``__all__`` would pass a check such as "no ``rank``
calls per operation" without being checked at all.
"""

import importlib
import inspect

import pytest

KEYED_ON = [
    ("operator_algebra", "rank"),
    ("operator_algebra", "eigenvalues"),
    ("operator_algebra", "expm"),
    ("operator_algebra", "minimal_polynomial"),
    ("lindblad", "build_generator"),
    ("analysis", "spectral_report"),
]


@pytest.mark.parametrize("layer, name", KEYED_ON, ids=[f"{layer}.{name}" for layer, name in KEYED_ON])
def test_keyed_name_is_a_public_function_of_its_module(layer, name):
    module = importlib.import_module(f"strobe_tomo.{layer}")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__ and name in module.__all__, (
        f"strobe_tomo.{layer}.{name} must stay a function defined in its module and listed in its "
        "__all__: the benchmark harness and CI's traced steps count its calls, and read an untraced "
        "name as 0 calls. Move them off the name first (ROADMAP item 4)."
    )
