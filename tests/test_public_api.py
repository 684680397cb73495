import svddpeak


def test_every_exported_name_resolves():
    assert len(set(svddpeak.__all__)) == len(svddpeak.__all__)
    missing = [name for name in svddpeak.__all__ if not hasattr(svddpeak, name)]
    assert missing == []
