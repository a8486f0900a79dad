"""Applying agent-requested edits to a domain and its object set.

``apply_edit`` is atomic: it either returns a new model that differs only by
the requested change, or it returns the inputs untouched together with a
rejection reason. An edit is checked by validating its result: the edited
domain with ``validate_domain``, the merged object set with
``validate_objects``. Malformed edits raise ``MalformedEditError`` instead of
rejecting, since they indicate a bug in the requesting agent rather than a
judgement call: empty provenance, an action replacement that replaces
nothing, an object addition with no objects, and an edited domain whose
report holds an ``unbound-variable`` violation. Every other violation
rejects the edit as ``type-conflict``, except a duplicated object, which
rejects as ``duplicate-object``.
"""
from __future__ import annotations

from typing import Union

from ..values import Value, replace
from .model import (
    AddObjects,
    AddOrModifyFluent,
    DomainEdit,
    DomainModel,
    ModifyAction,
    ObjectDecl,
)
from .validate import DUPLICATE_OBJECT, UNBOUND_VARIABLE, validate_domain, validate_objects


class MalformedEditError(ValueError):
    """The edit itself is ill-formed; nothing was applied."""


class Applied(Value):
    detail: str = ""


class Rejected(Value):
    reason: str  # duplicate-fluent | unknown-action | type-conflict | duplicate-object
    message: str


EditOutcome = Union[Applied, Rejected]


class EditResult(Value):
    domain: DomainModel
    objects: tuple[ObjectDecl, ...]
    outcome: EditOutcome

    @property
    def applied(self) -> bool:
        return isinstance(self.outcome, Applied)


def apply_edit(domain: DomainModel, objects: tuple[ObjectDecl, ...], edit: DomainEdit) -> EditResult:
    if not getattr(edit, "provenance", ""):
        raise MalformedEditError("edit has empty provenance")
    if isinstance(edit, AddOrModifyFluent):
        return _apply_fluent(domain, objects, edit)
    if isinstance(edit, ModifyAction):
        return _apply_action(domain, objects, edit)
    if isinstance(edit, AddObjects):
        return _apply_objects(domain, objects, edit)
    raise MalformedEditError(f"unknown edit variant {type(edit).__name__}")


def _reject(domain: DomainModel, objects: tuple[ObjectDecl, ...], reason: str, message: str) -> EditResult:
    return EditResult(domain, objects, Rejected(reason, message))


def _apply_fluent(domain: DomainModel, objects, edit: AddOrModifyFluent) -> EditResult:
    new = edit.fluent
    existing = domain.fluent_map().get(new.name)
    if existing is not None:
        if existing == new:
            return _reject(domain, objects, "duplicate-fluent", f"fluent {new.name} already declared identically")
        if existing.signature() != new.signature():
            return _reject(
                domain,
                objects,
                "type-conflict",
                f"fluent {new.name} exists with a different signature; use an explicit replacement to change it",
            )
        # Same signature, new documentation text: the one non-destructive modification.
        fluents = tuple(new if f.name == new.name else f for f in domain.fluents)
        return EditResult(replace(domain, fluents=fluents), objects, Applied(f"updated description of {new.name}"))
    updated = replace(domain, fluents=domain.fluents + (new,))
    return _finish(domain, updated, objects, f"added fluent {new.name}")


def _apply_action(domain: DomainModel, objects, edit: ModifyAction) -> EditResult:
    if edit.precondition is None and edit.effects is None:
        raise MalformedEditError(f"action modification for {edit.action} replaces nothing")
    schema = domain.action_map().get(edit.action)
    if schema is None:
        return _reject(domain, objects, "unknown-action", f"action {edit.action} is not declared")

    new_schema = schema
    if edit.precondition is not None:
        new_schema = replace(new_schema, precondition=edit.precondition)
    if edit.effects is not None:
        new_schema = replace(new_schema, effects=tuple(edit.effects))

    actions = tuple(new_schema if a.name == edit.action else a for a in domain.actions)
    return _finish(domain, replace(domain, actions=actions), objects, f"modified action {edit.action}")


def _apply_objects(domain: DomainModel, objects, edit: AddObjects) -> EditResult:
    if not edit.objects:
        raise MalformedEditError("object addition lists no objects")
    added = objects + tuple(edit.objects)
    problems = validate_objects(domain, added)
    if problems:
        first = problems[0]
        reason = DUPLICATE_OBJECT if first.code == DUPLICATE_OBJECT else "type-conflict"
        return _reject(domain, objects, reason, first.message)
    merged = tuple(sorted(added, key=lambda o: o.name))
    return EditResult(domain, merged, Applied(f"added objects {', '.join(o.name for o in edit.objects)}"))


def _finish(original: DomainModel, updated: DomainModel, objects, detail: str) -> EditResult:
    leftover = validate_domain(updated)
    unbound = [v for v in leftover if v.code == UNBOUND_VARIABLE]
    if unbound:
        raise MalformedEditError("; ".join(str(v) for v in unbound))
    if leftover:
        return _reject(original, objects, "type-conflict", "; ".join(str(v) for v in leftover))
    return EditResult(updated, objects, Applied(detail))
