import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import dofde

ROOT = Path(__file__).resolve().parents[1]


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

    def test_every_export_is_used(self):
        # an exported name stays only while the package, the benchmark's
        # workloads or a per-layer metric of BENCHMARK.json refers to it;
        # test-only helpers live beside the oracles in conftest.py
        used = set()
        for path in [*ROOT.glob("src/dofde/*.py"), *ROOT.glob("perfbench/*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in bench["per_layer"]:
            parts = metric["name"].split(".")
            if len(parts) == 3:
                used.add(parts[1])
        assert sorted(set(dofde.__all__) - used) == []

    def test_every_parameter_is_set(self):
        # a defaulted parameter of an exported function or dataclass stays
        # only while a call in the package or the benchmark's workloads
        # passes it, by position or by keyword; one that only tests set
        # is a module constant.  Enums and other classes are skipped.
        passed = {}
        for path in [*ROOT.glob("src/dofde/*.py"), *ROOT.glob("perfbench/*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    given = passed.setdefault(name, set())
                    given.update(range(len(node.args)))
                    given.update(keyword.arg for keyword in node.keywords)
        unset = []
        for name in dofde.__all__:
            obj = getattr(dofde, name)
            if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
                continue
            given = passed.get(name, set())
            for index, param in enumerate(inspect.signature(obj).parameters.values()):
                if param.default is not param.empty and not {index, param.name} & given:
                    unset.append(f"{name}.{param.name}")
        assert unset == []


class TestLayers:
    def test_fft_called_only_in_the_transform_layers(self):
        # every FFT runs in toeplitz (the rfft convolution `_product` and
        # the coefficient sampling) or transforms (the algebra transforms)
        callers = set()
        for path in ROOT.glob("src/dofde/*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr == "fft"
                        and isinstance(node.value, ast.Name) and node.value.id == "np"):
                    callers.add(path.name)
        assert callers <= {"toeplitz.py", "transforms.py"}

    def test_long_double_only_in_the_rayleigh_quotients(self):
        # a second float type would mean a second P: every preconditioner
        # is its double spectrum, and only the printed quotients widen it
        tree = ast.parse((ROOT / "src/dofde/spectral.py").read_text())
        (quotients,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                        and node.name == "_rayleigh_quotients"]
        allowed = range(quotients.lineno, quotients.end_lineno + 1)
        found = []
        for path in ROOT.glob("src/dofde/*.py"):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if "longdouble" in line and not (path.name == "spectral.py" and number in allowed):
                    found.append(f"{path.name}:{number}")
        assert found == []

    def test_dense_eigensolves_only_in_the_spectral_layer(self):
        # every dense symmetric eigensolve, the dense spectra and the
        # Lanczos tridiagonal's alike, runs in spectral.py
        callers = set()
        for path in ROOT.glob("src/dofde/*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in {"eigvalsh", "eigh"}:
                    callers.add(path.name)
        assert callers == {"spectral.py"}

    def test_multigrid_builds_preconditioners_at_one_site(self):
        # a level builds and keeps its preconditioners in one place, which
        # its smoothers and its exact solve both draw on
        tree = ast.parse((ROOT / "src/dofde/multigrid.py").read_text())
        sites = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None))
                 == "build_preconditioner"]
        assert len(sites) == 1

    def test_each_result_type_is_made_at_one_site(self):
        # a SolveReport is made only where the one solve loop stops, and a
        # SpectrumReport or a RitzEnd only in the spectral layer, which
        # checks what it is made from; sites are (module, top-level
        # definition)
        sites = {"SolveReport": set(), "SpectrumReport": set(), "RitzEnd": set()}
        for path in ROOT.glob("src/dofde/*.py"):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    name = (getattr(node.func, "id", getattr(node.func, "attr", None))
                            if isinstance(node, ast.Call) else None)
                    if name in sites:
                        sites[name].add((path.name, getattr(top, "name", None)))
        assert sites["SolveReport"] == {("krylov.py", "_iterate")}
        assert {module for module, _ in sites["SpectrumReport"]} == {"spectral.py"}
        assert {module for module, _ in sites["RitzEnd"]} == {"spectral.py"}

    def test_cli_formats_floats_at_one_site(self):
        # `_run_one` turns every runner value into its cell and writes it;
        # no other float format or output helper exists beside it
        tree = ast.parse((ROOT / "src/dofde/cli.py").read_text())
        formats = [node for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value == "%.10e"]
        assert len(formats) == 1
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"_fmt", "_csv_text", "_json_text", "_emit"}
