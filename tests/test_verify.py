import inspect
import types

import qosc.verify as verify


def _names(code: types.CodeType):
    """Global names a code object reads, nested functions included."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


def test_every_check_body_is_reachable():
    bodies = {name: fn for name, fn in vars(verify).items()
              if name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == verify.__name__}
    todo = [thunk for _, thunk in verify.default_checks(seed=0)]
    seen = set()
    while todo:
        fn = todo.pop()
        if fn.__name__ in bodies:
            seen.add(fn.__name__)
        for name in _names(fn.__code__):
            if name in bodies and name not in seen:
                seen.add(name)
                todo.append(bodies[name])
    assert sorted(set(bodies) - seen) == []
