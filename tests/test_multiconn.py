"""Multi-connectivity reliability algebra."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urllckit.multiconn import (
    ARCHITECTURES,
    Interface,
    ReliabilityChain,
    outage_sweep,
    reliability,
)

# two-interface baseline: a good link behind a good core, a weaker link
# behind a weaker core, one shared far leg
_BASELINE = ReliabilityChain(
    (Interface(0.99, 0.999), Interface(0.9, 0.99)), r_far=0.9999)


def test_reliability_baseline_values():
    assert reliability(_BASELINE, "single") == pytest.approx(0.988911099, rel=1e-12)
    assert reliability(_BASELINE, "dc") == pytest.approx(0.9979011999, rel=1e-12)
    assert reliability(_BASELINE, "ifd") == pytest.approx(0.998702209791, rel=1e-12)


def test_reliability_ordering():
    r = {a: reliability(_BASELINE, a) for a in ARCHITECTURES}
    assert r["single"] < r["dc"] < r["ifd"]


def test_single_interface_collapses_architectures():
    chain = ReliabilityChain((Interface(0.97, 0.995),), r_far=0.999)
    s = reliability(chain, "single")
    assert reliability(chain, "dc") == pytest.approx(s, rel=1e-15)
    assert reliability(chain, "ifd") == pytest.approx(s, rel=1e-15)


def test_perfect_chain():
    chain = ReliabilityChain((Interface(1.0, 1.0), Interface(1.0, 1.0)))
    for arch in ARCHITECTURES:
        assert reliability(chain, arch) == 1.0


def test_ifd_dc_gap_identity_two_interfaces():
    # with equal cores, the advantage of merging after the cores is exactly
    # r_far * r_core * (1 - r_core) * r_link1 * r_link2
    rng = np.random.default_rng(17)
    for _ in range(1000):
        l1, l2, c, f = rng.random(4)
        chain = ReliabilityChain((Interface(l1, c), Interface(l2, c)), r_far=f)
        gap = reliability(chain, "ifd") - reliability(chain, "dc")
        assert gap == pytest.approx(f * c * (1.0 - c) * l1 * l2, abs=1e-12)


def test_ifd_beats_dc_only_for_good_anchor_links():
    # with unequal cores the ordering flips once the anchor link degrades
    # past r_link1 = (c1 - c2) / (c1 * (1 - c2)); check both sides
    threshold = (0.999 - 0.99) / (0.999 * (1.0 - 0.99))
    good = ReliabilityChain(
        (Interface(threshold + 0.01, 0.999), Interface(0.9, 0.99)), r_far=0.9999)
    bad = ReliabilityChain(
        (Interface(threshold - 0.01, 0.999), Interface(0.9, 0.99)), r_far=0.9999)
    assert reliability(good, "ifd") > reliability(good, "dc")
    assert reliability(bad, "ifd") < reliability(bad, "dc")


def test_equal_ultra_reliable_cores_make_dc_and_ifd_close():
    # with both cores at 0.9999 the dc/ifd gap is negligible next to the
    # gain either brings over a single link
    chain = ReliabilityChain(
        (Interface(0.99, 0.9999), Interface(0.9, 0.9999)), r_far=0.9999)
    grid = np.geomspace(1e-4, 0.05, 50)
    rows = outage_sweep(chain, grid)
    outage = {}
    for q, arch, e2e in rows:
        outage[(q, arch)] = e2e
    gap_multi = max(abs(outage[(q, "dc")] - outage[(q, "ifd")]) for q in grid)
    gap_single = max(outage[(q, "single")] - outage[(q, "dc")] for q in grid)
    assert gap_multi < 0.05 * gap_single


def test_reliability_validation():
    with pytest.raises(ValueError):
        reliability(_BASELINE, "triple")
    with pytest.raises(ValueError):
        Interface(1.1, 0.5)
    with pytest.raises(ValueError):
        ReliabilityChain((), r_far=0.9)
    with pytest.raises(TypeError):
        ReliabilityChain(((0.9, 0.9),), r_far=0.9)
    with pytest.raises(ValueError):
        ReliabilityChain((Interface(0.9, 0.9),), r_far=-0.1)


def test_outage_sweep_shape_and_order():
    grid = [1e-3, 1e-2, 1e-1]
    rows = outage_sweep(_BASELINE, grid)
    assert len(rows) == len(grid) * len(ARCHITECTURES)
    # outer loop over outage, inner over architecture
    assert [r[0] for r in rows[:3]] == [1e-3] * 3
    assert [r[1] for r in rows[:3]] == list(ARCHITECTURES)


def test_outage_sweep_consistent_with_reliability():
    rows = outage_sweep(_BASELINE, [0.01], archs=("ifd",))
    patched = ReliabilityChain(
        (Interface(0.99, 0.999), _BASELINE.interfaces[1]), r_far=0.9999)
    assert rows[0][2] == pytest.approx(1.0 - reliability(patched, "ifd"), rel=1e-12)


def test_outage_sweep_varies_chosen_interface():
    rows = outage_sweep(_BASELINE, [0.5], archs=("single",), vary_index=1)
    # interface 0 untouched, so the single-interface outage stays put
    assert rows[0][2] == pytest.approx(1.0 - reliability(_BASELINE, "single"),
                                       rel=1e-12)


def test_outage_sweep_validation():
    with pytest.raises(ValueError):
        outage_sweep(_BASELINE, [0.1], vary_index=2)
    with pytest.raises(ValueError):
        outage_sweep(_BASELINE, [1.5])


def _exact_outage(links, cores, r_far, arch) -> Fraction:
    links = [Fraction(v) for v in links]
    cores = [Fraction(v) for v in cores]
    far = Fraction(r_far)
    if arch == "single":
        rel = links[0] * cores[0] * far
    elif arch == "dc":
        miss = Fraction(1)
        for rl in links:
            miss *= 1 - rl
        rel = (1 - miss) * cores[0] * far
    else:
        miss = Fraction(1)
        for rl, rc in zip(links, cores):
            miss *= 1 - rl * rc
        rel = (1 - miss) * far
    return 1 - rel


_TINY = st.floats(min_value=1e-18, max_value=1e-6)


@given(q=_TINY, q_links=st.tuples(_TINY, _TINY), q_cores=st.tuples(_TINY, _TINY),
       q_far=_TINY, arch=st.sampled_from(ARCHITECTURES), vary=st.sampled_from((0, 1)))
def test_outage_matches_exact_fractions(q, q_links, q_cores, q_far, arch, vary):
    # elements at 1 - q; 1 - q rounds for q < 1e-16, so the exact reference
    # takes the reliabilities as stored, and the swept outage q as it is
    links = [1.0 - v for v in q_links]
    cores = [1.0 - c for c in q_cores]
    chain = ReliabilityChain(tuple(map(Interface, links, cores)), r_far=1.0 - q_far)
    (row,) = outage_sweep(chain, [q], archs=(arch,), vary_index=vary)
    links[vary] = 1 - Fraction(q)
    exact = _exact_outage(links, cores, 1.0 - q_far, arch)
    assert row[2] == pytest.approx(float(exact), rel=1e-12, abs=0)


def test_outage_near_1e9_link_outage():
    # a 1e-9 link outage behind 1e-10 cores and a 1e-5 second link: the
    # product of reliabilities printed 1.09912e-14 here, 8e-4 off
    chain = ReliabilityChain(
        (Interface(0.99, 1 - 1e-10), Interface(0.99999, 1 - 1e-10)), r_far=1.0)
    (row,) = outage_sweep(chain, [1e-9], archs=("ifd",))
    exact = _exact_outage([1 - Fraction(1e-9), 0.99999], [1 - 1e-10] * 2, 1.0, "ifd")
    assert row[2] == pytest.approx(float(exact), rel=1e-12, abs=0)
