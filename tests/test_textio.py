import errno

import pytest

from mtjbist.textio import reworded


def test_reworded_prefixes_the_reason_and_drops_the_chain():
    with pytest.raises(ValueError) as err:
        reworded("run.conf:3", int, "x")
    assert str(err.value) == "run.conf:3: invalid literal for int() with base 10: 'x'"
    assert err.value.__cause__ is None and err.value.__suppress_context__


@pytest.mark.parametrize("exc", [OSError(errno.ENOENT, "No such file or directory", "cells.txt"), KeyError("seed")],
                         ids=["OSError", "KeyError"])
def test_reworded_passes_any_other_error_through_untouched(exc):
    def fail():
        raise exc
    with pytest.raises(type(exc)) as err:
        reworded("attack inject: --array", fail)
    assert err.value is exc


def test_reworded_passes_a_keyword_named_like_its_own_parameters_to_make():
    # config passes an object's field names as keywords
    assert reworded("run.conf:1", dict, prefix="p", make="m") == {"prefix": "p", "make": "m"}

