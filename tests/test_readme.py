import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_to_completion():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    log, config = scope["log"], scope["config"]
    assert not log.aborted
    assert len(log) == config.n_steps + 1
