import weightbounds


def test_every_exported_name_resolves_and_is_listed_once():
    names = weightbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(weightbounds, name), name
