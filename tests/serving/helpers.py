"""Shared helpers for the serving tests."""

from __future__ import annotations

from repro.serving import InferenceService, ModelRegistry


def one_tenant(classifier, n_features: int | None = None) -> ModelRegistry:
    """A registry holding ``classifier`` alone, under the default tenant."""
    registry = ModelRegistry()
    registry.publish(InferenceService.DEFAULT_TENANT, classifier, n_features=n_features)
    return registry
