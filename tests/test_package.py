import importlib
import pkgutil

import dofde


class TestExports:
    def test_no_name_exported_twice(self):
        assert len(dofde.__all__) == len(set(dofde.__all__))

    def test_each_name_is_its_modules_object(self):
        # every exported name is declared in exactly one module's __all__,
        # and the package hands out that module's object under it
        owners = {}
        for info in pkgutil.iter_modules(dofde.__path__):
            if info.name == "cli":  # the runner, not a library layer
                continue
            module = importlib.import_module(f"dofde.{info.name}")
            for name in module.__all__:
                owners.setdefault(name, []).append(module)
        assert sorted(owners) == sorted(dofde.__all__)
        for name in dofde.__all__:
            (module,) = owners[name]
            assert getattr(dofde, name) is getattr(module, name), name
