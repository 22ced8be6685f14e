"""Path evaluation: declarative queries on the navigational access model.

The paper's premise (Section 1): to get fine-granular concurrency control,
XQuery/XPath operations must be *mapped to a navigational access model*.
This engine does exactly that -- every path step becomes DOM-style node
manager operations (child enumeration, subtree reads, attribute access),
so the active lock protocol automatically isolates declarative queries
with the same granularity as navigation.

Two evaluators share the step semantics:

* :class:`QueryProcessor` -- transactional: a generator per query, driven
  by the simulator / live server / ``Database.run``; acquires locks
  through the node manager.
* :func:`evaluate_raw` -- direct evaluation against the raw document, for
  single-user use and as the test oracle for the locked evaluator.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.dom.document import Document
from repro.dom.node_manager import NodeManager
from repro.query.ast import Axis, Path, Predicate, Step, TestKind
from repro.query.parser import parse_path
from repro.splid import Splid
from repro.storage.record import NodeKind
from repro.txn.transaction import Transaction

Result = Union[List[Splid], List[str]]


def _as_path(query: Union[str, Path]) -> Path:
    return parse_path(query) if isinstance(query, str) else query


# ---------------------------------------------------------------------------
# transactional evaluation (locked, generator-based)
# ---------------------------------------------------------------------------

class QueryProcessor:
    """Evaluates path expressions through the lock-guarded node manager."""

    def __init__(self, nodes: NodeManager):
        self.nodes = nodes
        self.document = nodes.document

    def evaluate(self, txn: Transaction, query: Union[str, Path]):
        """Generator: evaluate ``query``; returns nodes or strings."""
        path = _as_path(query)
        steps = list(path.steps)
        if path.id_start is not None:
            node = yield from self.nodes.get_element_by_id(txn, path.id_start)
            context: List[Splid] = [] if node is None else [node]
        elif steps and steps[0].axis is Axis.CHILD and (
            steps[0].test.kind is TestKind.NAME
            and self.document.name_of(self.document.root) == steps[0].test.name
        ):
            # An absolute '/name' step addresses the root element itself.
            context = yield from self._filter(
                txn, [self.document.root], steps[0].predicates
            )
            steps = steps[1:]
        else:
            context = [self.document.root]
        for step in steps:
            if step.axis is Axis.ATTRIBUTE:
                values: List[str] = []
                for node in context:
                    value = yield from self.nodes.get_attribute_value(
                        txn, node, step.test.name
                    )
                    if value is not None:
                        values.append(value)
                return values
            if step.test.kind is TestKind.TEXT:
                texts: List[str] = []
                for node in context:
                    children = yield from self.nodes.get_child_nodes(txn, node)
                    for child in children:
                        if self.document.kind(child) is NodeKind.TEXT:
                            text = yield from self.nodes.read_content(txn, child)
                            texts.append(text)
                return texts
            context = yield from self._element_step(txn, context, step)
        return context

    # -- internals -----------------------------------------------------------

    def _element_step(self, txn, context, step: Step):
        matches: List[Splid] = []
        for node in context:
            if step.axis is Axis.DESCENDANT:
                entries = yield from self.nodes.read_subtree(txn, node)
                for splid, record in entries:
                    if record.kind is NodeKind.ELEMENT and self._test(
                        splid, step
                    ):
                        matches.append(splid)
            else:
                children = yield from self.nodes.get_child_nodes(txn, node)
                for child in children:
                    if self.document.kind(child) is NodeKind.ELEMENT and (
                        self._test(child, step)
                    ):
                        matches.append(child)
        return (yield from self._filter(txn, matches, step.predicates))

    def _test(self, node: Splid, step: Step) -> bool:
        if step.test.kind is TestKind.ANY:
            return True
        return self.document.name_of(node) == step.test.name

    def _filter(self, txn, nodes: Sequence[Splid],
                predicates: Sequence[Predicate]):
        current = list(nodes)
        for predicate in predicates:
            if predicate.position is not None:
                index = predicate.position - 1
                current = [current[index]] if index < len(current) else []
                continue
            kept: List[Splid] = []
            for node in current:
                ok = yield from self._check(txn, node, predicate)
                if ok:
                    kept.append(node)
            current = kept
        return current

    def _check(self, txn, node: Splid, predicate: Predicate):
        if predicate.attribute is not None:
            value = yield from self.nodes.get_attribute_value(
                txn, node, predicate.attribute
            )
            if predicate.value is None:
                return value is not None
            return value == predicate.value
        children = yield from self.nodes.get_child_nodes(txn, node)
        for child in children:
            if self.document.kind(child) is not NodeKind.ELEMENT:
                continue
            if self.document.name_of(child) != predicate.child:
                continue
            if predicate.value is None:
                return True
            text = yield from self._element_text(txn, child)
            if text == predicate.value:
                return True
        return False

    def _element_text(self, txn, element: Splid):
        parts: List[str] = []
        children = yield from self.nodes.get_child_nodes(txn, element)
        for child in children:
            if self.document.kind(child) is NodeKind.TEXT:
                text = yield from self.nodes.read_content(txn, child)
                parts.append(text)
        return "".join(parts)


# ---------------------------------------------------------------------------
# raw evaluation (single-user oracle)
# ---------------------------------------------------------------------------

def evaluate_raw(document: Document, query: Union[str, Path]) -> Result:
    """Evaluate without locking (test oracle / single-user convenience)."""
    path = _as_path(query)
    steps = list(path.steps)
    if path.id_start is not None:
        node = document.element_by_id(path.id_start)
        context: List[Splid] = [] if node is None else [node]
    elif steps and steps[0].axis is Axis.CHILD and (
        steps[0].test.kind is TestKind.NAME
        and document.name_of(document.root) == steps[0].test.name
    ):
        context = _filter_raw(document, [document.root], steps[0].predicates)
        steps = steps[1:]
    else:
        context = [document.root]

    for step in steps:
        if step.axis is Axis.ATTRIBUTE:
            return [
                value for node in context
                if (value := document.attribute_value(node, step.test.name))
                is not None
            ]
        if step.test.kind is TestKind.TEXT:
            return [
                document.string_value(child)
                for node in context
                for child in document.store.children(node)
                if document.kind(child) is NodeKind.TEXT
            ]
        matches: List[Splid] = []
        for node in context:
            if step.axis is Axis.DESCENDANT:
                candidates = [
                    splid for splid, record in document.store.subtree(node)
                    if record.kind is NodeKind.ELEMENT
                ]
            else:
                candidates = [
                    child for child in document.store.children(node)
                    if document.kind(child) is NodeKind.ELEMENT
                ]
            for candidate in candidates:
                if step.test.kind is TestKind.ANY or (
                    document.name_of(candidate) == step.test.name
                ):
                    matches.append(candidate)
        context = _filter_raw(document, matches, step.predicates)
    return context


def _filter_raw(document: Document, nodes: List[Splid],
                predicates: Sequence[Predicate]) -> List[Splid]:
    current = nodes
    for predicate in predicates:
        if predicate.position is not None:
            index = predicate.position - 1
            current = [current[index]] if index < len(current) else []
            continue
        current = [
            node for node in current
            if _check_raw(document, node, predicate)
        ]
    return current


def _check_raw(document: Document, node: Splid, predicate: Predicate) -> bool:
    if predicate.attribute is not None:
        value = document.attribute_value(node, predicate.attribute)
        if predicate.value is None:
            return value is not None
        return value == predicate.value
    for child in document.store.children(node):
        if document.kind(child) is not NodeKind.ELEMENT:
            continue
        if document.name_of(child) != predicate.child:
            continue
        if predicate.value is None:
            return True
        if document.text_of_element(child) == predicate.value:
            return True
    return False
