"""Persisted fingerprints keep the exact bytes earlier releases wrote.

The solver and engine used to be configurable, and their names were folded
into every fingerprint that guards a file on disk: the serving layer's
journal/snapshot header, and the sim, sweep and experiment checkpoint
journals.  They are now fixed (Dinic, the columnar path), and the code
writes the literals ``"dinic"`` / ``"columnar"`` in their place.  These
pins are the values the configurable releases computed for the default
configuration, so a journal, snapshot or checkpoint written by one of them
still loads and resumes.
"""

from repro.analysis.parallel import sweep_fingerprint
from repro.engine import EngineContext, EngineSpec
from repro.experiments.registry import _suite_fingerprint
from repro.graphs import ring
from repro.serve import durability_fingerprint
from repro.sim import Scenario
from repro.sim.runner import scenario_fingerprint


def test_durability_fingerprint_bytes():
    assert durability_fingerprint(EngineSpec()) == (
        '{"backend":"float","durability_format":1,"engine":"columnar",'
        '"protocol":"repro-serve/1","solver":"dinic","zero_tol":0.0}'
    )


def test_sim_checkpoint_fingerprint():
    scenario = Scenario(name="pin", strategies=("adaptive",), adversaries=1,
                        n0=6, n_min=4, n_max=8, epochs=2)
    assert scenario_fingerprint(scenario, EngineSpec()) == "dfbad056d3af9ea3"
    assert scenario_fingerprint(scenario, None) == "77fb1ec75f1249b1"


def test_sweep_checkpoint_fingerprint():
    cells = [(ring([1.0, 2.0, 3.0, 4.0]), 0), (ring([0.5, 1.5, 2.5]), 2)]
    assert sweep_fingerprint(cells, 16, EngineSpec()) == "66a8db36fe70e30e"


def test_experiment_checkpoint_fingerprint():
    assert _suite_fingerprint(0, "smoke", EngineContext()) == "ab52313ed6d56272"
