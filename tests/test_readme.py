import re
from pathlib import Path

from newtonpoly import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_examples_run_in_order(capsys):
    # The blocks share one namespace, as a reader pasting them in turn would.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "x^2 + 1 / 2 x\n"


def test_cli_examples_exit_zero(capsys, monkeypatch, tmp_path):
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE).group(1)
    # Run where --audit and --report may write their files.
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for line in block.splitlines():
        program, *argv = line.partition("#")[0].split()
        assert program == "newtonpoly"
        assert cli.main(argv) == 0, line
        outputs[argv[0]] = capsys.readouterr().out
    assert outputs["eval"] == "41/40\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.json", "records.jsonl"]
