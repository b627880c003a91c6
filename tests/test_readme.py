"""README's Python examples, run in order in a temporary directory, after
``okc gen`` has written the ``stream.csv`` of README's own ``spec.json``."""

import re
from pathlib import Path

from okc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_examples_run(tmp_path, monkeypatch):
    spec = re.search(r"cat > spec\.json <<'EOF'\n(.*?)\nEOF\n", README, re.DOTALL)
    assert spec is not None, "README lost its spec.json block"
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(spec.group(1))
    assert main(["gen", "spec.json", "stream.csv"]) == 0
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
