"""Some tests run the CLI in fresh processes; let those import the package
from src too, as pytest itself does through pyproject's pythonpath."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
