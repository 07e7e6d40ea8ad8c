import re

from conftest import ROOT


def test_readme_python_api_block_runs(monkeypatch, capsys):
    """The README's Python API example runs as printed from the repo root."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "4/5"
