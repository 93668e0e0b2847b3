"""Documentation consistency: files, tables and claims stay in sync."""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name: str) -> str:
    with open(os.path.join(REPO, name)) as handle:
        return handle.read()


class TestDeliverablesExist:
    @pytest.mark.parametrize("path", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml",
        "docs/modeling.md", "docs/architecture.md", "docs/policies.md",
        "examples/quickstart.py", "examples/leaky_dma_aggregation.py",
        "examples/latent_contender_slicing.py",
        "examples/nfv_service_chain.py", "examples/tenants.example.txt",
    ])
    def test_file_present(self, path):
        assert os.path.exists(os.path.join(REPO, path)), path


class TestDesignExperimentIndex:
    def test_every_figure_module_listed_exists(self):
        design = read("DESIGN.md")
        for module in re.findall(r"fig\d\d_\w+", design):
            path = os.path.join(REPO, "src", "repro", "experiments",
                                module + ".py")
            assert os.path.exists(path), module

    def test_all_eval_figures_covered(self):
        design = read("DESIGN.md")
        for figure in ("Fig. 3", "Fig. 4", "Fig. 8", "Fig. 9", "Fig. 10",
                       "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14",
                       "Fig. 15"):
            assert figure in design, figure
        assert "Tab. I" in design and "Tab. II" in design

    def test_benchmarks_exist_per_figure(self):
        for n in (3, 4, 8, 9, 10, 11, 12, 13, 14, 15):
            path = os.path.join(REPO, "benchmarks", f"test_fig{n:02d}.py")
            assert os.path.exists(path), path


class TestExperimentsDoc:
    def test_mentions_every_figure(self):
        text = read("EXPERIMENTS.md")
        for n in (3, 4, 8, 9, 10, 11, 12, 13, 14, 15):
            assert re.search(rf"Figs?\.[^\n]*\b{n}\b", text), f"Fig {n}"

    def test_documents_known_gap(self):
        # The honest-gaps section must survive edits.
        assert "Fig. 14" in read("docs/modeling.md")


class TestReadmeSnippets:
    def test_python_snippet_names_exist(self):
        """Every `from repro.* import ...` line in README and docs/*.md
        resolves: the module imports and has every name it imports."""
        import importlib
        docs = ["README.md"] + sorted(
            os.path.join("docs", name)
            for name in os.listdir(os.path.join(REPO, "docs"))
            if name.endswith(".md"))
        imports = re.compile(
            r"from (repro(?:\.\w+)*) import (\([^)]*\)|[^\n]*)")
        for doc in docs:
            for module, names in imports.findall(read(doc)):
                mod = importlib.import_module(module)
                names = names.split("#")[0].strip("() \n")
                for name in names.split(","):
                    name = name.split(" as ")[0].strip()
                    if name:
                        assert hasattr(mod, name), \
                            f"{doc}: {module} has no {name}"

    def test_cli_commands_mentioned_exist(self):
        from repro.cli import build_parser
        parser = build_parser()
        readme = read("README.md")
        # The README points at examples and pytest invocations.
        assert "pytest benchmarks/ --benchmark-only" in readme
        assert "examples/quickstart.py" in readme
