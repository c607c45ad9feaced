"""The facade paths emit no deprecation warnings.

The whole module runs under ``-W error::DeprecationWarning``
(``filterwarnings`` mark): any deprecation warning — e.g. from an
import, or from a facade call routed through a legacy path — fails the
test.
"""

import warnings

import pytest

import repro
from repro.apps.hpccg import KernelBenchConfig
from repro.scenarios import Scenario

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

TINY_KB = KernelBenchConfig(nx=8, ny=8, nz=8, reps=1)
TINY = Scenario(app="hpccg_kernels", config=TINY_KB, n_logical=2,
                mode="native")


def test_facade_paths_never_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        repro.run(TINY)
        repro.sweep([TINY])
        repro.compare(TINY, modes=("native",))
        repro.experiments.fig5a(n_logical=2, base=TINY_KB)
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]

