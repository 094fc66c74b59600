"""Hypothesis profiles. ``pytest --hypothesis-profile=soak`` runs the
stateful model of ``test_stateful_model.py`` deep: its profile's example
and step counts replace the ones the model sets for the default run."""

from hypothesis import settings

settings.register_profile("soak", max_examples=500, stateful_step_count=50, deadline=None)
