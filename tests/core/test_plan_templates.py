"""Compiled plan templates equal the protocols' reference plans.

The lock manager compiles one template per request shape (op, access,
role, id value present, target level, children and affected counts) and
instantiates it for every request of that shape.  The domain is finite,
so this checks it exhaustively: every protocol, lock depth 0-7, meta op,
target level 0-9 and access kind, the four roles of the edge ops, 0-3
children for READ_LEVEL and 0-2 affected nodes for inserts and deletes.
Each template is compiled from one request and then instantiated for two
*other* requests of the same shape -- different labels, overflow
divisions, a different id value -- and must give exactly ``plan()``'s
steps and flags.
"""

import random

import pytest

from repro.core import Access, EdgeRole, MetaOp, MetaRequest, get_protocol
from repro.core import protocol_names
from repro.locking import LockManager
from repro.splid import Splid

DEPTHS = range(8)
LEVELS = range(10)
ACCESSES = ((Access.NAVIGATION, None), (Access.JUMP, None))
EDGE_OPS = (MetaOp.READ_EDGE, MetaOp.WRITE_EDGE)
STRUCTURAL_OPS = (MetaOp.INSERT_CHILD, MetaOp.DELETE_SUBTREE)


def _label(rng: random.Random, level: int) -> Splid:
    """A label at ``level``; roughly every third step has overflow divisions."""
    divisions = [1]
    for _ in range(level):
        if rng.random() < 0.3:
            divisions.append(2 * rng.randint(1, 3))
        divisions.append(2 * rng.randint(1, 20) + 1)
    return Splid(divisions)


def _variant(seed: int, level: int, realistic: bool):
    """One target with its children (0-3) and affected nodes (0-2).

    A realistic variant lists the target's parent among the affected
    nodes, as the node manager does; the other takes unrelated labels.
    """
    rng = random.Random(seed * 100 + level)
    target = _label(rng, level)
    children = [target.child(3), target.with_suffix((4, 5)), target.child(9)]
    if realistic and target.parent is not None:
        affected = [target.parent.child(2 * rng.randint(30, 40) + 1),
                    target.parent]
    else:
        affected = [_label(rng, rng.randint(1, 9)) for _ in range(2)]
    return target, children, affected, f"id{seed}"


def _requests(variant):
    """Every request shape over one variant, in a fixed order."""
    target, children, affected, id_value = variant
    for access, with_id in ACCESSES + ((Access.JUMP, True),):
        id_arg = id_value if with_id else None
        for op in MetaOp:
            if op in EDGE_OPS:
                for role in EdgeRole:
                    yield MetaRequest(op, target, access, role,
                                      id_value=id_arg)
            elif op is MetaOp.READ_LEVEL:
                for count in range(4):
                    yield MetaRequest(op, target, access,
                                      children=tuple(children[:count]),
                                      id_value=id_arg)
            elif op in STRUCTURAL_OPS:
                for count in range(3):
                    yield MetaRequest(op, target, access,
                                      affected=tuple(affected[:count]),
                                      id_value=id_arg)
            else:
                yield MetaRequest(op, target, access, id_value=id_arg)


def _instantiated(manager: LockManager, request: MetaRequest):
    template, prepared = manager._plan_for(request)
    steps = [(space, key, table.modes[midx])
             for (space, key), table, midx in prepared.steps]
    scan_ids = request.target if template.scan_ids else None
    return steps, template.traverse_individually, scan_ids


def _reference(protocol, request: MetaRequest, depth: int):
    plan = protocol.plan(request, depth)
    steps = [(step.space, step.key, step.mode) for step in plan.steps]
    return steps, plan.traverse_individually, plan.scan_ids


@pytest.mark.parametrize("name", protocol_names())
def test_templates_match_reference_plans(name):
    protocol = get_protocol(name)
    variants = [
        [list(_requests(_variant(seed, level, realistic)))
         for level in LEVELS]
        for seed, realistic in ((1, True), (2, True), (3, False))
    ]
    checks = 0
    for depth in DEPTHS:
        manager = LockManager(protocol, lock_depth=depth)
        for level in LEVELS:
            source, *others = (variant[level] for variant in variants)
            for request in source:
                manager._plan_for(request)  # compiles the shape's template
            for requests in others:
                for request in requests:
                    assert (_instantiated(manager, request)
                            == _reference(protocol, request, depth)), (
                        name, depth, request)
                    checks += 1
        # One template per shape, however many requests it served.
        assert len(manager._templates) == len(source) * len(LEVELS)
    assert checks == 2 * 72 * len(LEVELS) * len(DEPTHS)


def test_template_holds_no_labels():
    """Templates name slots, never labels, so they pin no SPLID."""
    manager = LockManager(get_protocol("taDOM3+"), lock_depth=2)
    request = MetaRequest(MetaOp.WRITE_CONTENT, Splid.parse("1.3.5.7"))
    template, _prepared = manager._plan_for(request)
    fields = [getattr(template, name) for name in template.__slots__]
    items = fields + [item for step in template.steps for item in step]
    assert template.steps
    assert not any(isinstance(item, Splid) for item in items)
