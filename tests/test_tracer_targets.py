"""The benchmark's layer tracer (bench/layertrace.py) patches names in the
package's module namespaces.  Installing and uninstalling it here, against
the package under test, fails this suite when a refactor drops or renames
one of those names, instead of only the separate benchmark suite."""
import importlib.util
import inspect
import pathlib

import rnlab
import rnlab.local
import rnlab.partitions

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every rnlab module and of the classes they define."""
    owners = [m for m in vars(rnlab).values() if inspect.ismodule(m) and m.__name__.startswith("rnlab")]
    owners += [
        c for m in list(owners) for c in vars(m).values()
        if inspect.isclass(c) and c.__module__ == m.__name__
    ]
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_binding():
    # loading the tracer imports every module it patches, rnlab.cli included
    tracer = _load_layertrace().Tracer()
    before = _bindings()
    assert ("rnlab.cli", "main") in before
    tracer.install()
    try:
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._patches}
        # the partition ladder is traced through local's own binding
        assert ("rnlab.local", "find_weighted_partition") in patched
        assert ("rnlab.partitions", "verify_weighted_partition") in patched
        # ball indexes, which type the roots of exact sweeps and sampled
        # lookups alike, extract through oracles' own binding, and
        # truncation_stability through statistics' own binding: the tracer
        # must wrap both names to count every extraction
        assert ("rnlab.oracles", "extract_ball") in patched
        assert ("rnlab.statistics", "extract_ball") in patched
        # ball indexes canonicalize through the balls module's own name
        assert ("rnlab.balls", "canonicalize") in patched
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert rnlab.local.find_weighted_partition is rnlab.partitions.find_weighted_partition


def test_tracer_sees_the_canonicalizations_of_a_profile():
    """A profile's index fills are timed as tree and cyclic canonicalizations:
    the grid's radius-1 balls are stars and its radius-2 balls hold squares."""
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        rnlab.stats_profile(rnlab.gen_grid(4, 4), 2, 1)
    finally:
        tracer.uninstall()
    assert tracer.calls["balls.canonicalize_tree"] > 0
    assert tracer.calls["balls.canonicalize_cyclic"] > 0
