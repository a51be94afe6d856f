"""The README's "minimal API session" block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_api_session_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A minimal API session:\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README lost its minimal API session block"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme_session"})
    auc = float(capsys.readouterr().out.strip())
    assert 0.5 < auc <= 1.0
