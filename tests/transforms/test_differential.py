"""Differential suite: logical analyses are invariant under layout and
schedule transforms.

Operation count and symbolic data movement depend only on *logical*
program content — what is computed and how many bytes each memlet
carries — so reordering loops, changing strides, padding them,
permuting an array's dimension order, moving a loop into a map or
fusing maps must not move either number.  Every seed app is checked
against every applicable match of every registered transform; the
tuner counts ops once per search on the strength of this.
"""

import pytest

from repro.analysis.movement import total_movement_bytes
from repro.analysis.opcount import program_ops
from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.transforms import (
    ChangeStrides,
    MapFusionTransform,
    MoveLoopIntoMap,
    PadStrides,
    PermuteArrayLayout,
    ReorderMap,
)
from repro.transforms.protocol import default_transforms

APPS = [
    pytest.param(hdiff.build_sdfg, id="hdiff"),
    pytest.param(conv.build_conv, id="conv"),
    pytest.param(bert.build_sdfg, id="bert"),
    pytest.param(linalg.build_matmul, id="matmul"),
    pytest.param(cloudsc.build_sdfg, id="cloudsc"),
]

#: ``(transform, keeps movement)``: every registered transform keeps the
#: op count; all but map fusion — which deletes an intermediate's
#: traffic — also keep the symbolic movement.
TRANSFORMS = [
    pytest.param(ReorderMap(), True, id="reorder_map"),
    pytest.param(ChangeStrides(), True, id="change_strides"),
    pytest.param(PermuteArrayLayout(), True, id="permute_array_layout"),
    pytest.param(PadStrides(), True, id="pad_strides_to_multiple"),
    pytest.param(MoveLoopIntoMap(), True, id="move_loop_into_map"),
    pytest.param(MapFusionTransform(), False, id="map_fusion"),
]


def test_every_registered_transform_is_checked():
    checked = {param.values[0].name for param in TRANSFORMS}
    assert checked == {t.name for t in default_transforms()}


def _env(sdfg) -> dict[str, int]:
    """One concrete size per free symbol of the program's analyses."""
    names = (
        program_ops(sdfg).free_symbols()
        | total_movement_bytes(sdfg).free_symbols()
    )
    return {name: 8 for name in names}


def _measure(sdfg, env):
    return (
        program_ops(sdfg).evaluate(env),
        total_movement_bytes(sdfg).evaluate(env),
    )


@pytest.mark.parametrize("build", APPS)
@pytest.mark.parametrize("transform, keeps_movement", TRANSFORMS)
def test_logical_analyses_invariant(build, transform, keeps_movement):
    base = build()
    env = _env(base)
    ops, movement = _measure(base, env)
    matches = transform.enumerate_matches(base)
    for match in matches:
        variant = base.copy()
        transform.apply(variant, match)
        variant.validate()
        variant_ops, variant_movement = _measure(variant, env)
        where = f"{transform.name} match {match.descriptor}"
        assert variant_ops == ops, f"{where} changed the op count"
        if keeps_movement:
            assert variant_movement == movement, f"{where} changed movement"
        else:
            assert variant_movement <= movement, f"{where} added movement"


@pytest.mark.parametrize("build", APPS)
def test_change_strides_reports_layout_only(build):
    """Stride changes never touch logical content — every report says so."""
    base = build()
    transform = ChangeStrides()
    for match in transform.enumerate_matches(base):
        variant = base.copy()
        report = transform.apply(variant, match)
        assert report.layout_only
        assert not report.modified_states


@pytest.mark.parametrize("build", APPS)
def test_permute_reports_logical_change(build):
    """Permutation rewrites memlets, so layout_only must be False."""
    base = build()
    transform = PermuteArrayLayout()
    for match in transform.enumerate_matches(base):
        variant = base.copy()
        report = transform.apply(variant, match)
        assert not report.layout_only


def test_sequences_compose_invariantly():
    """A whole tuned sequence preserves the logical analyses too."""
    base = hdiff.build_sdfg()
    env = _env(base)
    reference = _measure(base, env)
    variant = base.copy()
    for transform in (PermuteArrayLayout(), ReorderMap(), ChangeStrides()):
        match = transform.enumerate_matches(variant)[0]
        transform.apply(variant, match)
    variant.validate()
    assert _measure(variant, env) == reference
