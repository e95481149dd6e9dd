"""The built-in functions' closed forms and reference rates, pinned bitwise.

Each value is ``float.hex`` of what ``benchmark_eval`` returns at the three
points of ``POINTS`` (the first ``m`` coordinates of each; one holds ``-0.0``)
for every supported derivative order of total at most 2, and of
``optimal_rho`` at ``p`` in ``(1, 2, inf, 0.5)``.  A rewrite of the formulas
that keeps the order of the arithmetic keeps every bit.
"""
import math

import numpy as np
import pytest

from mvnewton.analysis import benchmark_eval, make_benchmark, optimal_rho
from mvnewton.multi_index import _lp_table

POINTS = [[0.5, -0.0, 0.25], [-0.75, 0.125, -1.0], [0.3, -0.6, 0.9]]

# label: function, dimension, parameters
CASES = {
    "runge": ("runge", 3, {}),
    "runge r=3": ("runge", 2, {"r": 3.0}),
    "f1": ("f1", 2, {}),
    "f3": ("f3", 3, {}),
    "f4": ("f4", 3, {}),
    "f5": ("f5", 2, {}),
}

RHO_CASES = {
    "runge": ("runge", 3, {}),
    "runge r=3": ("runge", 2, {"r": 3.0}),
    "runge s=0.7": ("runge", 4, {"s": 0.7, "r": 1.9}),
    "f1": ("f1", 2, {}),
    "f1 r=3.1": ("f1", 2, {"r": 3.1}),
    "f3": ("f3", 3, {}),
    "f4": ("f4", 2, {}),
    "f4 m=3": ("f4", 3, {}),
    "f5": ("f5", 2, {}),
}

# benchmark_eval at POINTS, per derivative order
VALUES = {
    "runge": {
        (0, 0, 0): ("0x1.8618618618618p-1", "0x1.8d3018d3018d3p-2", "0x1.c518eb9c518ecp-2"),
        (1, 0, 0): ("-0x1.293725bb804a5p-1", "0x1.ce2ea885d3429p-3", "-0x1.e12a528f58e03p-4"),
        (2, 0, 0): ("-0x1.1b0ff32c7a2e6p-2", "-0x1.39b94565b3160p-5", "-0x1.51197f50cb1a7p-2"),
        (0, 1, 0): ("0x0.0p+0", "-0x1.341f1b03e22c6p-5", "0x1.e12a528f58e03p-3"),
        (1, 1, 0): ("-0x0.0p+0", "-0x1.668a98743a623p-5", "-0x1.fef8d68aa2589p-4"),
        (0, 2, 0): ("-0x1.293725bb804a5p+0", "-0x1.2ca6e281764a5p-2", "-0x1.22f85db99c727p-3"),
        (0, 0, 1): ("-0x1.293725bb804a5p-2", "0x1.341f1b03e22c6p-2", "-0x1.68dfbdeb82a82p-2"),
        (1, 0, 1): ("0x1.c4e651e0c37d7p-2", "0x1.668a98743a623p-2", "0x1.7f3aa0e7f9c27p-3"),
        (0, 1, 1): ("-0x0.0p+0", "-0x1.de0e209af882ep-5", "-0x1.7f3aa0e7f9c27p-2"),
        (0, 0, 2): ("-0x1.e134b6fecfb54p-1", "0x1.53de0b2e2cad0p-3", "0x1.5bbeae73ae7c4p-3"),
    },
    "runge r=3": {
        (0, 0): ("0x1.3b13b13b13b14p-2", "0x1.4a27fad76014ap-3", "0x1.958b67ebb907ap-3"),
        (1, 0): ("-0x1.b442a6a0916b9p-1", "0x1.67435d0be5013p-2", "-0x1.b1a6cf70a7701p-3"),
        (2, 0): ("0x1.81ec30f080a42p+1", "0x1.0f2e8c856e866p+0", "-0x1.030bc71c6e28cp-2"),
        (0, 1): ("0x0.0p+0", "-0x1.df047c0fdc019p-5", "0x1.b1a6cf70a7701p-2"),
        (1, 1): ("-0x0.0p+0", "-0x1.049fc7b0ee59dp-2", "-0x1.cfb4e7f4a8e76p-1"),
        (0, 2): ("-0x1.b442a6a0916b9p+0", "-0x1.b39485725ef29p-2", "0x1.1b04bc3063236p+0"),
    },
    "f1": {
        (0, 0): ("0x1.c71c71c71c71cp+0", "0x1.fe01fe01fe020p-3", "0x1.958b67ebb907ap-1"),
        (1, 0): ("0x1.2f684bda12f68p+2", "0x1.fc05f809f40dfp-3", "0x1.3129887eaeb73p+0"),
        (2, 0): ("0x1.2f684bda12f68p+4", "0x1.7b0a6e1b59344p-2", "0x1.2aa4719174276p+1"),
        (0, 1): ("0x0.0p+0", "-0x1.fc05f809f40dfp-7", "0x1.8177d4d5ea2acp-1"),
        (1, 1): ("0x0.0p+0", "-0x1.fa0bec1dd637cp-6", "0x1.220e216bbce0cp+1"),
        (0, 2): ("-0x1.948b0fcd6e9e0p+2", "-0x1.f41dc8597cb51p-4", "0x1.694bfcb79a6d0p-3"),
    },
    "f3": {
        (0, 0, 0): ("0x1.11aa073e75a55p-3", "0x1.01fc12610a5dfp-4", "0x1.7fc00aa8e3da1p-2"),
    },
    "f4": {
        (0, 0, 0): ("0x1.47ae147ae147bp-2", "0x1.8c9644f01efbcp-4", "0x1.cc7bc14256a0ep-3"),
    },
    "f5": {
        (0, 0): ("0x1.0000000000000p+0", "-0x1.4e7ae9144f0fcp+0", "-0x1.c51525c8a6928p-3"),
        (1, 0): ("-0x1.921fb54442d18p+1", "0x1.b3417778d01aep+0", "0x1.18d8005902da4p+2"),
        (2, 0): ("-0x1.3bd3cc9be45dep+3", "0x1.9ca5f76fb98cfp+3", "0x1.177bf00665b72p+1"),
        (0, 1): ("-0x1.921fb54442d18p+1", "0x1.b3417778d01aep+0", "0x1.18d8005902da4p+2"),
        (1, 1): ("-0x1.3bd3cc9be45dep+3", "0x1.9ca5f76fb98cfp+3", "0x1.177bf00665b72p+1"),
        (0, 2): ("-0x1.3bd3cc9be45dep+3", "0x1.9ca5f76fb98cfp+3", "0x1.177bf00665b72p+1"),
    },
}

# optimal_rho at p = 1, 2, inf, 0.5
RHO = {
    "runge": ("0x1.bb67ae8584cabp+0", "0x1.3504f333f9de6p+1", "0x1.3504f333f9de6p+1", None),
    "runge r=3": ("0x1.435ad29b9e388p+0", "0x1.632e57c919237p+0", "0x1.632e57c919237p+0", None),
    "runge s=0.7": ("0x1.3377140e96138p+0", "0x1.6f231910d0842p+0", "0x1.6f231910d0842p+0", None),
    "f1": ("0x1.4000000000000p+0", "0x1.47e0f66afed07p+0", "0x1.47e0f66afed07p+0", None),
    "f1 r=3.1": ("0x1.8cccccccccccdp+1", "0x1.1b429ca7d6a66p+2", "0x1.1b429ca7d6a66p+2", None),
    "f3": (None, "0x1.3845118db5992p+0", "0x1.3845118db5992p+0", None),
    "f4": (None, "0x1.06a161e4f7660p+1", "0x1.1398c7e28240bp+1", None),
    "f4 m=3": (None, None, None, None),
    "f5": (None, None, None, None),
}


@pytest.mark.parametrize("case", CASES)
def test_benchmark_eval_is_pinned_bitwise(case):
    kind, dim, params = CASES[case]
    f = make_benchmark(kind, dim, **params)
    pts = np.array(POINTS)[:, :dim]
    orders = [tuple(order) for order in _lp_table(dim, 2, 1).tolist()]
    assert [order for order in orders if f.supports_order(order)] == list(VALUES[case])
    for order in orders:
        if order in VALUES[case]:
            got = [float.hex(v) for v in benchmark_eval(f, pts, order).tolist()]
            assert got == list(VALUES[case][order]), order
        else:
            with pytest.raises(ValueError, match="does not support derivative order"):
                benchmark_eval(f, pts, order)


@pytest.mark.parametrize("case", RHO_CASES)
def test_optimal_rho_is_pinned_bitwise(case):
    kind, dim, params = RHO_CASES[case]
    f = make_benchmark(kind, dim, **params)
    got = [optimal_rho(f, p) for p in (1, 2, math.inf, 0.5)]
    assert [None if v is None else float.hex(v) for v in got] == list(RHO[case])
