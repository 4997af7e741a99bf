"""The package's public names: every name in ``coloredfans.__all__`` exists,
and the list is sorted and free of duplicates, so a stale export fails."""

import coloredfans


def test_all_names_resolve_sorted_and_distinct():
    names = coloredfans.__all__
    missing = [name for name in names if not hasattr(coloredfans, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
