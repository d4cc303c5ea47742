import re
from pathlib import Path

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
