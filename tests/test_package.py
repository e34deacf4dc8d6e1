"""The package's public surface and the README's examples."""

import re
from pathlib import Path

import ppvit
from ppvit import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(lang):
    (block,) = re.findall(rf"```{lang}\n(.*?)```", README, re.S)
    return block


def test_every_public_name_resolves():
    missing = [name for name in ppvit.__all__ if not hasattr(ppvit, name)]
    assert missing == []
    assert len(set(ppvit.__all__)) == len(ppvit.__all__)


def test_readme_python_example_runs():
    scope = {}
    exec(readme_block("python"), scope)
    assert scope["x"].shape == (1, 32, 32, 3)
    assert scope["logits"].shape == (1, 4)


def test_readme_run_config_loads(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(readme_block("json"))
    run = cli.load_run_config(path)
    assert run.model == ppvit.preset("micro", num_classes=4)
    assert (run.data.image_size, run.data.seed, run.train.total_steps) == (32, 7, 300)
