import subprocess
import sys
from pathlib import Path

import pytest

import brauersplit


def test_import_loads_neither_numpy_nor_process_pool():
    src = str(Path(brauersplit.__file__).resolve().parent.parent)
    # the CLI entry point loads no logging either, nor dataclasses, whose
    # inspect and ast took about 1 MB of every process's memory
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import brauersplit.cli; "
        "print(sorted({'numpy', 'concurrent.futures.process', 'logging', 'dataclasses', 'inspect'}"
        " & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_records_keep_their_dataclass_semantics():
    from brauersplit import (
        CyclotomicInt,
        Place,
        PowerCharValue,
        QuaternionAlgebra,
        RamifiedPrimeError,
        SymbolAlgebraQuery,
    )
    from brauersplit.quaternion import Representation

    # _replace and _make build through the class, so its checks run
    query = SymbolAlgebraQuery(2, 7, 3, 1)
    assert query._replace(p=11) == SymbolAlgebraQuery(2, 11, 3, 1)
    with pytest.raises(RamifiedPrimeError):
        query._replace(p=3)
    with pytest.raises(ValueError):
        QuaternionAlgebra(1, 2)._replace(a=0)
    with pytest.raises(ValueError):
        CyclotomicInt._make((3, (1, 2, 3)))
    # equal only within a class: neither another record nor a plain tuple
    assert QuaternionAlgebra(3, 5) == QuaternionAlgebra(3, 5)
    assert QuaternionAlgebra(3, 5) != Representation(3, 5)
    assert PowerCharValue(3, 1) != (3, 1) and (3, 1) != PowerCharValue(3, 1)
    assert len({QuaternionAlgebra(3, 5), QuaternionAlgebra(3, 5), Representation(3, 5)}) == 2
    # no concatenation or repetition
    zeta = CyclotomicInt.zeta(3)
    algebra = QuaternionAlgebra(3, 5)
    for op in (lambda: 2 * zeta, lambda: algebra + (1,), lambda: (1,) + algebra, lambda: algebra * 2):
        with pytest.raises(TypeError):
            op()
    # no order across classes or against a plain tuple; a Place orders against a Place only
    assert Place.infinite() < Place(2) <= Place(2) < Place(3) and Place(3) >= Place(3) > Place(2)
    for op in (lambda: QuaternionAlgebra(3, 5) < Representation(3, 6), lambda: Place(2) < (3,),
               lambda: sorted([Place(3), (2,)]), lambda: algebra >= algebra, lambda: (3, 5) > algebra):
        with pytest.raises(TypeError):
            op()
