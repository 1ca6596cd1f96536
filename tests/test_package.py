"""The package namespace: flowmon.__all__ names what the package exports."""

import flowmon


def test_all_names_resolve_and_star_import_binds_exactly_them():
    assert len(set(flowmon.__all__)) == len(flowmon.__all__)
    assert [name for name in flowmon.__all__ if not hasattr(flowmon, name)] == []
    namespace: dict = {}
    exec("from flowmon import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(flowmon.__all__)
