import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "5 10 (k5) 5",
        "9 19 (compose (k5) e=0-1 (k5) z=0 split=1|2,3,4) 5",
        "9 19 (compose (k5) e=0-1 (k5) z=0 split=1,2|3,4) 5",
    ]
    assert len(lines) == 4
