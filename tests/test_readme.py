import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_what_the_readme_says(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "0.0 1.0 no-improving-column",
        "8 of 8 human rules kept",
    ]
