"""The README stays true: its Python quick start runs, and every
``qendy.<module>.<name>`` it mentions exists."""

import importlib
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks, "README has no Python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_readme_qendy_names_resolve():
    names = sorted(set(re.findall(r"\bqendy\.(\w+)\.(\w+(?:\.\w+)*)", README)))
    assert names, "README names no qendy.<module>.<name>"
    missing = []
    for module, path in names:
        obj = importlib.import_module(f"qendy.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
            if obj is None:
                missing.append(f"qendy.{module}.{path}")
                break
    assert not missing, f"README names what does not exist: {missing}"


def test_readme_lists_each_command_s_config_only_keys():
    from qendy import cli
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    bullets = dict(re.findall(r"^\* `(\w+)` (.*?)(?=^\S)", section, re.S | re.M))
    assert sorted(bullets) == sorted(cli._SETTINGS)
    for command, text in bullets.items():
        listed = re.search(r"Config-only keys:\s+(.*?)\.(?:\s|$)", text, re.S)
        assert listed, f"README gives no config-only keys for {command}"
        config_only = {key for key, s in cli._SETTINGS[command].items()
                       if not isinstance(s, cli._Flag)}
        assert set(re.findall(r"`(\w+)`", listed.group(1))) == config_only, command
