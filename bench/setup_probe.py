"""Set-up probe, run in a fresh interpreter by run.py.

Does what every ``resectsim`` command does before its first stage: import
the CLI (and with it numpy, scipy and every resectsim module), then build
the experiment config and the scene. Prints ``ready`` when done.

    python3 bench/setup_probe.py '<config JSON>'
"""

import json
import sys

import numpy  # noqa: F401
import scipy  # noqa: F401

import resectsim.cli  # noqa: F401
from resectsim.harness import ExperimentConfig
from resectsim.sensors import ScenePhantom

cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
ScenePhantom.from_dict(cfg.scene)
print("ready", flush=True)
