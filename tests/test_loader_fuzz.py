"""Fuzzing of the document loaders: bad input raises, it never crashes.

Each case starts from a valid network, demand or traffic document and
replaces one field, at any depth, with an arbitrary JSON value.  A loader
must then either return or raise NetworkError/ValueError, the errors the
command line maps to exit code 1; any other exception would surface as a
traceback.
"""

import copy

from hypothesis import given, settings, strategies as st

from ddpp import NetworkError, load_demand, load_network, load_traffic

NETWORK_DOC = {
    "units": 4,
    "nodes": ["a", "b", "c"],
    "links": [
        {"id": 0, "ends": ["a", "b"], "cost": 3, "available": [[0, 2], [3, 4]]},
        {"id": 1, "ends": ["b", "c"], "cost": 1, "available": [[0, 4]]},
    ],
}
DEMAND_DOC = {"src": "a", "dst": "c", "units": 2}
TRAFFIC_DOC = {
    "events": [{"id": 0, "time": 0.5, "src": "a", "dst": "c", "units": 1, "hold": 2.0}],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8,
)


def field_paths(doc, prefix=()):
    """Every path to a value inside a document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from field_paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


LOADERS = [(load_network, NETWORK_DOC), (load_demand, DEMAND_DOC), (load_traffic, TRAFFIC_DOC)]
CASES = [(loader, doc, path) for loader, doc in LOADERS for path in field_paths(doc)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(CASES), json_values)
def test_loaders_reject_bad_fields_without_crashing(case, value):
    loader, doc, path = case
    try:
        loader(replaced(doc, path, value))
    except (NetworkError, ValueError):
        pass


def test_fuzz_starts_from_valid_documents():
    for loader, doc in LOADERS:
        loader(doc)
