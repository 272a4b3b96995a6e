import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_blocks() -> list[str]:
    """The ``python`` code blocks of README's "Library" section, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_library_examples_run(monkeypatch):
    # the second block reuses the first one's imports and reads a preset by
    # its path relative to the repository root
    monkeypatch.chdir(ROOT)
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    report, cfg = namespace["report"], namespace["cfg"]
    assert namespace["h_eff"].shape == (cfg.k_users, cfg.n_ue, cfg.n_bs)
    assert namespace["beams"].combiners.shape == (cfg.k_users, cfg.n_ue, cfg.zeta)
    assert report.sum_rate > 0.0 and report.interference_ratio().max() < 1e-9
