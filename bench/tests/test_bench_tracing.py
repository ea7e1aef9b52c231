"""Span recording and self-time arithmetic on synthetic trees."""
import types

import numpy as np
import pytest

from fraclap_bench.tracing import Tracer, descendant_totals, self_times


def test_self_time_subtracts_nested_children():
    #   0: root [0, 10]
    #   1:   a [1, 4]      2: grandchild of root [2, 3]
    #   3:   b [5, 7]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_takes_union_of_overlapping_children():
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 4.0, 6.0, 12.0]  # the last child runs past its parent and is clipped
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_descendant_totals():
    parent = [-1, 0, 1, 1, -1]
    values = [0.0, 1.0, 2.0, 4.0, 8.0]
    assert descendant_totals(parent, values).tolist() == [7.0, 6.0, 0.0, 0.0, 0.0]


def test_tracer_records_nesting_operations_sizes_and_restores():
    site = types.SimpleNamespace()
    site.inner = lambda t: np.asarray(t) * 2
    site.outer = lambda t: site.inner(t) + site.inner(t)

    def boom(t):
        raise ValueError("planted")

    site.boom = boom
    originals = dict(vars(site))
    tracer = Tracer()
    size = lambda args, kwargs: int(np.size(args[0]))  # noqa: E731
    sites = [(site, "outer", "L.outer", None), (site, "inner", "L.inner", size), (site, "boom", "L.boom", None)]
    with tracer.installed(sites):
        site.outer(np.ones(3))
        site.inner(np.ones(5))
        with pytest.raises(ValueError):
            site.boom(0)
    assert vars(site) == originals
    cols = tracer.arrays()
    names = [tracer.layers[i] for i in cols["layer"]]
    assert names == ["L.outer", "L.inner", "L.inner", "L.inner", "L.boom"]
    assert cols["parent"].tolist() == [-1, 0, 0, -1, -1]
    assert cols["operation"].tolist() == [0, 0, 0, 1, 2]
    assert cols["evals"].tolist() == [0, 3, 3, 5, 0]
    assert cols["raised"].tolist() == [False, False, False, False, True]
    assert np.all(cols["end"] >= cols["start"])
    own = self_times(cols["start"], cols["end"], cols["parent"])
    assert 0.0 <= own[0] <= cols["end"][0] - cols["start"][0]


def test_tracer_patches_class_methods():
    class Op:
        def apply(self, v):
            return v + 1

    tracer = Tracer()
    original = Op.__dict__["apply"]
    with tracer.installed([(Op, "apply", "L.apply", None)]):
        assert Op().apply(1) == 2
    assert Op.__dict__["apply"] is original
    assert len(tracer.spans) == 1
