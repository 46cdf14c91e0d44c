"""Documentation is executable: the README's Python examples must run.

Doc rot is a real failure mode for reproduction repos; this test extracts
every fenced ``python`` block from README.md and executes it.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
DESIGN = Path(__file__).parent.parent / "DESIGN.md"
EXPERIMENTS = Path(__file__).parent.parent / "EXPERIMENTS.md"


def _python_blocks(path: Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, re.DOTALL)


class TestReadmeExamples:
    def test_blocks_exist(self):
        assert len(_python_blocks(README)) >= 2

    @pytest.mark.parametrize("index,block",
                             list(enumerate(_python_blocks(README))))
    def test_block_executes(self, index, block):
        namespace: dict = {}
        exec(compile(block, f"README.md#block{index}", "exec"), namespace)

    def test_quickstart_output_claim(self):
        """The README claims a specific summary line; verify it."""
        from repro.core import SemanticAnalyzer
        from repro.x86 import assemble

        code = assemble("""
        decode:
            mov ebx, 31h
            add ebx, 64h
            xor byte ptr [eax], bl
            add eax, 1
            loop decode
        """)
        summary = SemanticAnalyzer().analyze_frame(code).summary()
        assert "xor_decrypt_loop" in summary
        assert "KEY=0x95" in summary
        assert "PTR=eax" in summary


class TestDocsConsistency:
    def test_design_mentions_every_package(self):
        import repro
        from pathlib import Path as P

        design = DESIGN.read_text()
        src = P(repro.__file__).parent
        for package in sorted(p.name for p in src.iterdir()
                              if p.is_dir() and not p.name.startswith("_")):
            assert f"repro.{package}" in design or package in design, package

    def test_experiments_covers_every_table_and_figure(self):
        text = EXPERIMENTS.read_text()
        for artifact in ("Figure 1", "Table 1", "Table 2", "Table 3",
                         "§5.1", "§5.4"):
            assert artifact in text, artifact

    def test_every_benchmark_file_referenced_in_docs(self):
        docs = EXPERIMENTS.read_text() + DESIGN.read_text()
        bench_dir = Path(__file__).parent.parent / "benchmarks"
        for bench in bench_dir.glob("bench_*.py"):
            assert bench.name in docs, f"{bench.name} not documented"

    def test_readme_example_scripts_exist(self):
        readme = README.read_text()
        examples = Path(__file__).parent.parent / "examples"
        for match in re.findall(r"`(\w+\.py)`", readme):
            if (examples / match).exists():
                continue
            # scripts referenced as examples must exist
            assert match in ("setup.py",), f"README references missing {match}"

    def test_template_doc_matches_node_catalogue(self):
        """docs/templates.md's node table must cover every exported node."""
        doc = (Path(__file__).parent.parent / "docs" / "templates.md").read_text()
        import repro.core.template as template_module

        for name in template_module.__all__:
            obj = getattr(template_module, name)
            if isinstance(obj, type) and issubclass(obj, template_module.Node) \
                    and obj is not template_module.Node:
                assert name in doc, f"node {name} missing from docs/templates.md"


class TestDocsChecker:
    """tools/check_docs.py is the CI docs gate; prove it passes on the
    current tree AND that each check can actually fail."""

    @pytest.fixture()
    def checker(self):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "check_docs",
            Path(__file__).parent.parent / "tools" / "check_docs.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_current_docs_pass(self, checker, capsys):
        assert checker.main() == 0

    def test_detects_broken_link(self, checker):
        errors = []
        checker.check_links(README, "[x](no/such/file.md)", errors)
        assert errors

    def test_detects_broken_anchor(self, checker):
        errors = []
        checker.check_links(README, "[x](../README.md#no-such-heading)",
                            errors)
        assert errors

    def test_detects_missing_file_path(self, checker):
        errors = []
        checker.check_file_paths(README, "see `benchmarks/bench_gone.py`",
                                 errors)
        assert errors

    def test_detects_stale_module_ref(self, checker):
        errors = []
        checker.check_dotted_refs(README, "uses repro.nids.vanished", errors)
        assert errors

    def test_detects_stale_attribute_ref(self, checker):
        errors = []
        checker.check_dotted_refs(
            README, "calls repro.obs.read_spans and repro.obs.gone_fn",
            errors)
        assert errors == [
            f"{README.name}: repro.obs.gone_fn is stale "
            "(repro.obs has no 'gone_fn')"]

    def test_detects_unknown_flag(self, checker):
        errors = []
        checker.check_flags(README, "run with `--no-such-flag`", errors,
                            checker.cli_flags())
        assert errors

    def test_known_flag_accepted(self, checker):
        errors = []
        checker.check_flags(README, "`--metrics-out` and `--benchmark-only`",
                            errors, checker.cli_flags())
        assert errors == []

    def test_detects_metric_table_drift(self, checker, tmp_path, monkeypatch):
        """A row whose kind moved, a series the catalog does not hold and
        a catalog row left undocumented: one error each, and the missing
        one carries the row to paste."""
        doc = (README.parent / "docs" / "observability.md").read_text()
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "observability.md").write_text(
            doc.replace("| `repro_packets_total` | counter |",
                        "| `repro_packets_total` | gauge |")
               .replace("| `repro_alerts_total` |", "| `repro_alarms_total` |"))
        monkeypatch.setattr(checker, "REPO", tmp_path)
        errors = []
        checker.check_metric_catalog(errors)
        assert len(errors) == 3
        assert "'repro_alarms_total' which has no row" in errors[0]
        assert "'repro_packets_total' is stale" in errors[1]
        assert errors[2].endswith(
            "'repro_alerts_total' is missing; the catalog says: "
            "| `repro_alerts_total` | counter | alerts | Alerts raised. |")
