import qmds


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted would break
    # ``from qmds import *`` for every user
    namespace = {}
    exec("from qmds import *", namespace)
    assert set(qmds.__all__) <= set(namespace)
    assert len(set(qmds.__all__)) == len(qmds.__all__)
