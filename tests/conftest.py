"""Hypothesis profiles.  ``ci`` prints the blob that reproduces a failure
(for ``@reproduce_failure``) and runs three times the examples: 300 where
a test sets no count, else three times its own.  ``--hypothesis-profile=ci``
selects it, as the CI workflow does; without that flag the default profile
runs, unchanged."""

from hypothesis import settings

CI_EXAMPLES_FACTOR = 3
settings.register_profile("ci", max_examples=100 * CI_EXAMPLES_FACTOR, print_blob=True)


def pytest_collection_modifyitems(items):
    if settings.get_current_profile_name() != "ci":
        return
    scaled = set()  # the parametrized items of one test share its function
    for item in items:
        test = getattr(item, "obj", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and id(test) not in scaled:
            scaled.add(id(test))
            test._hypothesis_internal_use_settings = settings(own, max_examples=own.max_examples * CI_EXAMPLES_FACTOR)
