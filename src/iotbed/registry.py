"""Element registry: id uniqueness, capability lookup, action validation."""

from __future__ import annotations

import threading

from .errors import RegistryError, ValidationError
from .model import Action, ElementDescriptor


class ElementRegistry:
    """Thread-safe mapping of element id -> descriptor.

    register() rejects duplicate ids; validate_action() checks that the
    target element exists, supports the command, and that the parameters
    satisfy the driver manifest for that command.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._elements: dict[str, ElementDescriptor] = {}

    def register(self, descriptor: ElementDescriptor) -> None:
        with self._lock:
            if descriptor.id in self._elements:
                raise RegistryError(f"duplicate element id {descriptor.id!r}")
            self._elements[descriptor.id] = descriptor

    def get(self, element_id: str) -> ElementDescriptor:
        with self._lock:
            try:
                return self._elements[element_id]
            except KeyError:
                raise RegistryError(f"unknown element id {element_id!r}") from None

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._elements)

    def validate_action(self, action: Action) -> None:
        """Raise ValidationError unless the action is executable as declared."""
        try:
            descriptor = self.get(action.element)
        except RegistryError as exc:
            raise ValidationError(str(exc)) from exc
        schema = descriptor.driver.get(action.command)
        if schema is None:
            raise ValidationError(
                f"element {action.element!r} does not support "
                f"{action.command.value}")
        try:
            schema.check(action.param_dict())
        except ValidationError as exc:
            raise ValidationError(
                f"{action.element}/{action.command.value}: {exc}") from exc
